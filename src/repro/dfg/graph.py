"""Data-flow graph structure over instruction ids."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - facts imports this module
    from repro.dfg.facts import LoopFacts


class EdgeKind(enum.Enum):
    """Why the destination instruction must follow the source."""

    REG = "reg"  # true register dependence (producer -> consumer)
    REG_ANTI = "reg_anti"  # reader -> next writer of a reused register
    REG_OUTPUT = "reg_output"  # writer -> next writer of a reused register
    MEM_FLOW = "mem_flow"  # store -> load, same location, same iteration
    MEM_ANTI = "mem_anti"  # load -> store
    MEM_OUTPUT = "mem_output"  # store -> store
    SYNC_SRC_SIG = "src_sig"  # dependence source -> its Send_Signal
    SYNC_WAT_SNK = "wat_snk"  # Wait_Signal -> its dependence sink


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: EdgeKind

    def __str__(self) -> str:  # pragma: no cover - diagnostics
        return f"{self.src} -[{self.kind.value}]-> {self.dst}"


@dataclass
class DataFlowGraph:
    """Directed acyclic graph over 1-based instruction ids.

    ``nodes`` is the full ordered id list (listing order); ``succ``/``pred``
    are adjacency maps built as edges are added.  The graph is acyclic by
    construction (every edge points from a lower listing position to a
    higher one is *not* guaranteed — sync arcs respect listing order too,
    but we verify acyclicity in :meth:`topological_order`).
    """

    nodes: list[int] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    succ: dict[int, list[Edge]] = field(default_factory=dict)
    pred: dict[int, list[Edge]] = field(default_factory=dict)
    _facts: LoopFacts | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_facts": None}

    def facts(self, lowered) -> LoopFacts:
        """This graph's :class:`~repro.dfg.facts.LoopFacts` over ``lowered``,
        computed on first use and kept until a node or an edge is added."""
        if self._facts is None or self._facts.lowered is not lowered:
            from repro.dfg.facts import LoopFacts

            self._facts = LoopFacts.of(self, lowered)
        return self._facts

    def add_node(self, node: int) -> None:
        self._facts = None
        self.nodes.append(node)
        self.succ.setdefault(node, [])
        self.pred.setdefault(node, [])

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> Edge:
        if src == dst:
            raise ValueError(f"self edge on node {src}")
        self._facts = None
        edge = Edge(src, dst, kind)
        self.edges.append(edge)
        self.succ[src].append(edge)
        self.pred[dst].append(edge)
        return edge

    def has_edge(self, src: int, dst: int) -> bool:
        return any(e.dst == dst for e in self.succ.get(src, ()))

    def successors(self, node: int) -> list[int]:
        return [e.dst for e in self.succ[node]]

    def predecessors(self, node: int) -> list[int]:
        return [e.src for e in self.pred[node]]

    def in_degree(self, node: int) -> int:
        return len(self.pred[node])

    # -- algorithms ----------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        indeg = {n: self.in_degree(n) for n in self.nodes}
        ready = deque(n for n in self.nodes if indeg[n] == 0)
        order: list[int] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for edge in self.succ[node]:
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.nodes):
            raise ValueError("data-flow graph contains a cycle")
        return order

    def ancestors(self, node: int) -> set[int]:
        """All nodes with a directed path to ``node`` (excluding it)."""
        seen: set[int] = set()
        stack = [e.src for e in self.pred[node]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(e.src for e in self.pred[cur])
        return seen

    def descendants(self, node: int) -> set[int]:
        """All nodes reachable from ``node`` (excluding it)."""
        seen: set[int] = set()
        stack = [e.dst for e in self.succ[node]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(e.dst for e in self.succ[cur])
        return seen

    def shortest_path(self, start: int, goal: int) -> list[int] | None:
        """Fewest-nodes directed path from ``start`` to ``goal`` (BFS),
        inclusive of both endpoints; ``None`` if unreachable."""
        if start == goal:
            return [start]
        parent: dict[int, int] = {start: start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for edge in self.succ[cur]:
                if edge.dst in parent:
                    continue
                parent[edge.dst] = cur
                if edge.dst == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(edge.dst)
        return None

    def weakly_connected_components(self) -> list[set[int]]:
        """Connected components ignoring edge direction, in order of their
        smallest member."""
        seen: set[int] = set()
        components: list[set[int]] = []
        for node in self.nodes:
            if node in seen:
                continue
            component: set[int] = set()
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur in component:
                    continue
                component.add(cur)
                stack.extend(e.dst for e in self.succ[cur])
                stack.extend(e.src for e in self.pred[cur])
            seen |= component
            components.append(component)
        components.sort(key=min)
        return components

    def critical_path_length(self, latency: "Iterable[tuple[int, int]] | None" = None) -> int:
        """Longest path length in nodes (unit latency); a quick diagnostic."""
        order = self.topological_order()
        dist = {n: 1 for n in self.nodes}
        for node in order:
            for edge in self.succ[node]:
                dist[edge.dst] = max(dist[edge.dst], dist[node] + 1)
        return max(dist.values(), default=0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
