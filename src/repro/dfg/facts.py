"""Machine-independent facts of one loop's DFG, computed once per loop.

The schedulers, the verifier and the explain layer all receive
``(lowered, graph)``; the topological order, the Sig/Wat/Sigwat partition
(Section 3.1), the synchronization paths (Section 3.2), each pair's source
and sink instructions and every ancestor closure are the same on every
machine, so :meth:`~repro.dfg.graph.DataFlowGraph.facts` builds them once.
Ancestor closures are int bitmasks over topological positions (bit ``p`` =
``topo[p]``), which keeps a cached loop small and makes "these nodes'
ancestors in topological order" the set bits of one mask.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.lower import LoweredLoop
from repro.dfg.graph import DataFlowGraph
from repro.dfg.partition import ComponentKind, partition
from repro.dfg.syncpath import SyncPath, find_sync_paths


@dataclass(frozen=True, eq=False)
class LoopFacts:
    lowered: LoweredLoop
    topo: tuple[int, ...]
    position: tuple[int, ...]  # iid -> index into topo
    ancestors: tuple[int, ...]  # topo position -> mask of its ancestors
    components: tuple[tuple[ComponentKind, int], ...]  # partition: (kind, node mask)
    sync_paths: tuple[SyncPath, ...]
    sources: dict[int, tuple[int, ...]]  # pair_id -> source iids
    sinks: dict[int, tuple[int, ...]]  # pair_id -> sink iids

    @classmethod
    def of(cls, graph: DataFlowGraph, lowered: LoweredLoop) -> LoopFacts:
        topo = tuple(graph.topological_order())
        position = [-1] * (max(topo, default=0) + 1)
        ancestors: list[int] = []
        for pos, node in enumerate(topo):
            position[node] = pos
            closure = 0
            for edge in graph.pred[node]:
                closure |= ancestors[position[edge.src]] | (1 << position[edge.src])
            ancestors.append(closure)
        components = partition(graph, lowered)
        pair_ids = [pair.pair_id for pair in lowered.synced.pairs]
        return cls(
            lowered=lowered,
            topo=topo,
            position=tuple(position),
            ancestors=tuple(ancestors),
            components=tuple(
                (c.kind, sum(1 << position[node] for node in c.nodes)) for c in components
            ),
            sync_paths=tuple(find_sync_paths(graph, lowered, components)),
            sources={pid: lowered.source_iids(pid) for pid in pair_ids},
            sinks={pid: lowered.sink_iids(pid) for pid in pair_ids},
        )

    def bit(self, iid: int) -> int:
        return 1 << self.position[iid]

    def ancestor_mask(self, iid: int) -> int:
        """Every DFG ancestor of ``iid`` (excluding it)."""
        return self.ancestors[self.position[iid]]

    def members(self, mask: int) -> list[int]:
        """The iids of ``mask``'s set bits, in topological order."""
        topo, out = self.topo, []
        while mask:
            low = mask & -mask
            out.append(topo[low.bit_length() - 1])
            mask ^= low
        return out
