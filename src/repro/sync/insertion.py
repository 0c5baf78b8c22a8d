"""Insertion of Send_Signal / Wait_Signal statements into a DOACROSS loop."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deps import DependenceGraph, analyze_loop
from repro.deps.analysis import Dependence
from repro.ir.ast_nodes import (
    Assign,
    BinOp,
    Const,
    Loop,
    SendSignal,
    Stmt,
    VarRef,
    WaitSignal,
)
from repro.sync.pairs import SyncPair, eliminate_redundant_pairs


@dataclass
class SyncedLoop:
    """A loop with synchronization statements inserted, plus the pair map.

    ``loop.body`` interleaves the original assignments with
    :class:`WaitSignal`/:class:`SendSignal` statements.  ``pairs`` maps each
    enforced dependence group to its wait/send; ``waits``/``sends`` map a
    ``pair_id`` to the actual statement objects in the new body (one send
    may serve several pairs).
    """

    loop: Loop
    pairs: list[SyncPair] = field(default_factory=list)
    waits: dict[int, WaitSignal] = field(default_factory=dict)
    sends: dict[int, SendSignal] = field(default_factory=dict)

    def pair(self, pair_id: int) -> SyncPair:
        for p in self.pairs:
            if p.pair_id == pair_id:
                return p
        raise KeyError(pair_id)

    def wait_position(self, pair_id: int) -> int:
        return self.loop.stmt_position(self.waits[pair_id])

    def send_position(self, pair_id: int) -> int:
        return self.loop.stmt_position(self.sends[pair_id])

    def lbd_pairs(self) -> list[SyncPair]:
        return [p for p in self.pairs if p.is_lexically_backward]

    def lfd_pairs(self) -> list[SyncPair]:
        return [p for p in self.pairs if not p.is_lexically_backward]


def _ensure_labels(loop: Loop) -> Loop:
    """Give every assignment a unique label (``S1``, ``S2``, ... by position).

    Existing labels are kept; generated ones avoid collision with them.
    """
    taken = {s.label for s in loop.body if isinstance(s, Assign) and s.label}
    if len(taken) != len([s for s in loop.body if isinstance(s, Assign) and s.label]):
        raise ValueError("duplicate statement labels in loop body")
    body: list[Stmt] = []
    counter = 0
    for stmt in loop.body:
        if isinstance(stmt, Assign) and stmt.label is None:
            counter += 1
            while f"S{counter}" in taken:
                counter += 1
            label = f"S{counter}"
            taken.add(label)
            body.append(
                Assign(target=stmt.target, expr=stmt.expr, label=label, guard=stmt.guard)
            )
        else:
            body.append(stmt)
    return Loop(
        index=loop.index,
        lower=loop.lower,
        upper=loop.upper,
        body=body,
        step=loop.step,
        is_doacross=loop.is_doacross,
        name=loop.name,
    )


def _assert_unique_reference_objects(loop: Loop) -> None:
    """Guard the pipeline's object-identity invariant.

    Dependence events are anchored to the *object identity* of each array
    or scalar reference (``id(ref)``), both by the analyzer's bookkeeping
    and by the lowerer's ``ref_iids`` map that places the
    synchronization-condition arcs.  A transform that shares one node
    between two statements would silently mis-anchor those arcs — a
    stale-data hazard — so reject such bodies loudly here.
    """
    from repro.ir.ast_nodes import walk_expr

    seen: dict[int, int] = {}
    for pos, stmt in enumerate(loop.body):
        if not isinstance(stmt, Assign):
            continue
        roots: list = [stmt.expr, stmt.target, *stmt.guard_exprs()]
        for root in roots:
            for node in walk_expr(root):
                key = id(node)
                if key in seen:
                    raise ValueError(
                        f"expression node {node!r} appears twice (statements "
                        f"{seen[key]} and {pos}); transforms must emit fresh "
                        "nodes per occurrence (object identity anchors "
                        "synchronization arcs)"
                    )
                seen[key] = pos


def insert_synchronization(
    loop: Loop,
    graph: DependenceGraph | None = None,
    eliminate_redundant: bool = False,
) -> SyncedLoop:
    """Insert synchronization for every constant-distance carried dependence.

    Raises ``ValueError`` if the loop carries an irregular dependence (a
    SERIAL loop cannot be synchronized with constant-distance signals).

    The body must not already contain synchronization statements; to
    re-synchronize, start from the plain loop.
    """
    if any(isinstance(s, (WaitSignal, SendSignal)) for s in loop.body):
        raise ValueError("loop already contains synchronization statements")
    _assert_unique_reference_objects(loop)
    # Labelling keeps every statement's position and reference objects,
    # so a graph of ``loop`` holds for the labelled loop too.
    labelled = _ensure_labels(loop)
    if graph is None or graph.loop is not loop:
        graph = analyze_loop(labelled)
    loop = labelled
    carried = graph.loop_carried()
    if any(d.irregular for d in carried):
        raise ValueError("cannot synchronize irregular (non-constant-distance) dependences")

    # Group dependences into pairs keyed by (source stmt, sink stmt, distance).
    grouped: dict[tuple[int, int, int], list[Dependence]] = {}
    for dep in carried:
        assert dep.distance is not None and dep.distance > 0
        grouped.setdefault((dep.source, dep.sink, dep.distance), []).append(dep)

    def label_of(pos: int) -> str:
        stmt = loop.body[pos]
        assert isinstance(stmt, Assign) and stmt.label is not None
        return stmt.label

    pairs = [
        SyncPair(
            pair_id=i,
            source_label=label_of(src),
            source_pos=src,
            sink_pos=snk,
            distance=d,
            deps=deps,
        )
        for i, ((src, snk, d), deps) in enumerate(sorted(grouped.items()))
    ]
    if eliminate_redundant:
        pairs = eliminate_redundant_pairs(pairs)

    # Build the new body: waits immediately before their sink (larger
    # distances first, i.e. older iterations awaited first, as in Fig. 1),
    # one send immediately after each source statement.
    waits_at: dict[int, list[SyncPair]] = {}
    sends_at: dict[int, list[SyncPair]] = {}
    for pair in pairs:
        waits_at.setdefault(pair.sink_pos, []).append(pair)
        sends_at.setdefault(pair.source_pos, []).append(pair)

    synced = SyncedLoop(loop=loop)  # loop replaced below
    body: list[Stmt] = []
    for pos, stmt in enumerate(loop.body):
        for pair in sorted(waits_at.get(pos, ()), key=lambda p: -p.distance):
            wait = WaitSignal(
                source_label=pair.source_label,
                iteration=BinOp("-", VarRef(loop.index), Const(pair.distance)),
                pair_id=pair.pair_id,
            )
            synced.waits[pair.pair_id] = wait
            body.append(wait)
        body.append(stmt)
        pairs_here = sends_at.get(pos, ())
        if pairs_here:
            send = SendSignal(
                source_label=label_of(pos),
                pair_ids=tuple(sorted(p.pair_id for p in pairs_here)),
            )
            for pair in pairs_here:
                synced.sends[pair.pair_id] = send
            body.append(send)

    synced.loop = Loop(
        index=loop.index,
        lower=loop.lower,
        upper=loop.upper,
        body=body,
        step=loop.step,
        is_doacross=True,
        name=loop.name,
    )
    synced.pairs = pairs
    return synced
