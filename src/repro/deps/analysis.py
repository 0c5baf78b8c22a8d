"""Statement-level dependence analysis of a loop body.

:func:`analyze_loop` builds a :class:`DependenceGraph` whose nodes are the
body's assignment statements (identified by their position in
``loop.body``) and whose edges are :class:`Dependence` records: flow, anti
and output dependences, loop-carried (constant distance or irregular) and
loop-independent, over both array and scalar accesses.

Conventions
-----------

* A dependence runs from its **source** (the access that must happen first)
  to its **sink**.  For a loop-carried dependence with distance ``d``, the
  sink's iteration is ``d`` iterations after the source's.
* Reads of the loop index are not dependences (each processor of the
  DOACROSS execution owns a private copy of the index).
* Reads within a statement execute before its write, so a ``d == 0``
  write/read collision inside one statement is an anti dependence.
* A non-affine subscript conservatively conflicts with every other access
  to the same array (marked ``irregular``), which classifies the loop
  SERIAL downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.deps.subscripts import Affine, affine_of
from repro.deps.tests import DependenceSolution, solve_siv
from repro.ir.ast_nodes import ArrayRef, Assign, Expr, Loop, VarRef, walk_expr


class DepKind(enum.Enum):
    """Data dependence kind: flow (RAW), anti (WAR) or output (WAW)."""

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"


@dataclass(frozen=True)
class Access:
    """One static memory access inside the loop body.

    ``stmt_pos`` indexes ``loop.body``; ``is_write`` marks the statement
    target; ``order`` breaks ties within a statement (reads first).
    ``affine`` is ``None`` for scalars and for non-affine subscripts
    (distinguished by ``is_scalar``).  ``guarded`` marks a may-write under
    a statement guard: it creates dependences like any write but does not
    *kill* earlier definitions (a later read may still see older values).
    """

    variable: str
    stmt_pos: int
    is_write: bool
    is_scalar: bool
    ref: Expr
    affine: Affine | None = None
    guarded: bool = False

    @property
    def order(self) -> int:
        """Within-statement execution order: reads (0) before the write (1)."""
        return 1 if self.is_write else 0


@dataclass(frozen=True)
class Dependence:
    """A data dependence edge between two body statements."""

    source: int
    sink: int
    kind: DepKind
    variable: str
    distance: int | None
    source_ref: Expr
    sink_ref: Expr
    irregular: bool = False

    @property
    def loop_carried(self) -> bool:
        return self.irregular or (self.distance is not None and self.distance > 0)

    def __str__(self) -> str:  # pragma: no cover - diagnostics
        dist = "?" if self.distance is None else str(self.distance)
        return (
            f"{self.kind.value} dep on {self.variable}: "
            f"S@{self.source} -> S@{self.sink} (d={dist})"
        )


@dataclass
class DependenceGraph:
    """All dependences of one loop, with query helpers."""

    loop: Loop
    deps: list[Dependence] = field(default_factory=list)

    def loop_carried(self) -> list[Dependence]:
        return [d for d in self.deps if d.loop_carried]

    def loop_independent(self) -> list[Dependence]:
        return [d for d in self.deps if not d.loop_carried]

    def of_kind(self, kind: DepKind) -> list[Dependence]:
        return [d for d in self.deps if d.kind is kind]

    def on_variable(self, name: str) -> list[Dependence]:
        return [d for d in self.deps if d.variable == name]

    def irregular(self) -> list[Dependence]:
        return [d for d in self.deps if d.irregular]

    def carried_into(self, stmt_pos: int) -> list[Dependence]:
        return [d for d in self.loop_carried() if d.sink == stmt_pos]

    def __iter__(self) -> Iterator[Dependence]:
        return iter(self.deps)

    def __len__(self) -> int:
        return len(self.deps)


# ---------------------------------------------------------------------------
# Access collection
# ---------------------------------------------------------------------------


def _collect_accesses(loop: Loop) -> list[Access]:
    accesses: list[Access] = []
    for pos, stmt in enumerate(loop.body):
        if not isinstance(stmt, Assign):
            continue  # sync ops carry no data accesses of their own
        # Reads: every reference in the RHS, the guard, and the target's
        # subscript (guard and subscript evaluate whether or not the
        # guarded write happens).
        read_exprs: list[Expr] = [stmt.expr, *stmt.guard_exprs()]
        if isinstance(stmt.target, ArrayRef):
            read_exprs.append(stmt.target.subscript)
        for root in read_exprs:
            for node in walk_expr(root):
                if isinstance(node, ArrayRef):
                    accesses.append(
                        Access(
                            variable=node.name,
                            stmt_pos=pos,
                            is_write=False,
                            is_scalar=False,
                            ref=node,
                            affine=affine_of(node.subscript, loop.index),
                        )
                    )
                elif isinstance(node, VarRef) and node.name != loop.index:
                    accesses.append(
                        Access(
                            variable=node.name,
                            stmt_pos=pos,
                            is_write=False,
                            is_scalar=True,
                            ref=node,
                        )
                    )
        # The (possibly guarded) write.
        if isinstance(stmt.target, ArrayRef):
            accesses.append(
                Access(
                    variable=stmt.target.name,
                    stmt_pos=pos,
                    is_write=True,
                    is_scalar=False,
                    ref=stmt.target,
                    affine=affine_of(stmt.target.subscript, loop.index),
                    guarded=stmt.guard is not None,
                )
            )
        else:
            if stmt.target.name == loop.index:
                raise ValueError("assignment to the loop index is not supported")
            accesses.append(
                Access(
                    variable=stmt.target.name,
                    stmt_pos=pos,
                    is_write=True,
                    is_scalar=True,
                    ref=stmt.target,
                    guarded=stmt.guard is not None,
                )
            )
    return accesses


# ---------------------------------------------------------------------------
# Pairwise dependence construction
# ---------------------------------------------------------------------------


def _kind_of(source_is_write: bool, sink_is_write: bool) -> DepKind:
    if source_is_write and sink_is_write:
        return DepKind.OUTPUT
    if source_is_write:
        return DepKind.FLOW
    return DepKind.ANTI


def _executes_before(a: Access, b: Access) -> bool:
    """Does ``a`` execute before ``b`` within one iteration?"""
    return (a.stmt_pos, a.order) < (b.stmt_pos, b.order)


def _oriented(
    x: Access, y: Access, solution: DependenceSolution
) -> tuple[Access, Access, int | None] | None:
    """Orient a dependence test result into (source, sink, distance).

    ``solution`` answers "x at iteration k collides with y at iteration
    k + d".  ``d > 0`` means x happens first; ``d == 0`` falls back to
    within-iteration execution order; irregular keeps textual order.
    Returns ``None`` for a ``d == 0`` self-collision that is no dependence
    (an access colliding with itself).
    """
    if solution.irregular:
        if _executes_before(x, y):
            return (x, y, None)
        return (y, x, None)
    d = solution.distance
    assert d is not None
    if d > 0:
        return (x, y, d)
    if d < 0:
        return (y, x, -d)
    # Loop-independent: ordered by within-iteration execution.
    if _executes_before(x, y):
        return (x, y, 0)
    if _executes_before(y, x):
        return (y, x, 0)
    return None  # same access slot: not a dependence


def analyze_loop(loop: Loop) -> DependenceGraph:
    """Build the dependence graph of ``loop``.

    Array references are resolved with the SIV tests; scalar references use
    the exact positional rules for a straight-line body (see module doc).
    """
    accesses = _collect_accesses(loop)
    trip = None if loop.trip_count is None else max(0, loop.trip_count)
    graph = DependenceGraph(loop=loop)
    seen: set[tuple] = set()

    def emit(source: Access, sink: Access, distance: int | None, irregular: bool) -> None:
        dep = Dependence(
            source=source.stmt_pos,
            sink=sink.stmt_pos,
            kind=_kind_of(source.is_write, sink.is_write),
            variable=source.variable,
            distance=distance,
            source_ref=source.ref,
            sink_ref=sink.ref,
            irregular=irregular,
        )
        key = (
            dep.source,
            dep.sink,
            dep.kind,
            dep.variable,
            dep.distance,
            dep.irregular,
            id(dep.source_ref),
            id(dep.sink_ref),
        )
        if key not in seen:
            seen.add(key)
            graph.deps.append(dep)

    # -- arrays --------------------------------------------------------------
    arrays: dict[str, list[Access]] = {}
    for acc in accesses:
        if not acc.is_scalar:
            arrays.setdefault(acc.variable, []).append(acc)

    for refs in arrays.values():
        # A write whose target cell is not a per-iteration-distinct affine
        # function of the index (non-affine, or coefficient zero) collides
        # with *itself* across iterations: successive iterations may write
        # the same cell, an irregular carried output dependence.
        if trip is None or trip > 1:
            for w in refs:
                if w.is_write and (w.affine is None or w.affine.coeff == 0):
                    emit(w, w, None, True)
        for i, x in enumerate(refs):
            for y in refs[i + 1 :]:
                if not (x.is_write or y.is_write):
                    continue
                if x.affine is None or y.affine is None:
                    oriented = _oriented(
                        x, y, DependenceSolution(exists=True, irregular=True)
                    )
                    if oriented:
                        emit(oriented[0], oriented[1], None, True)
                    continue
                solution = solve_siv(x.affine, y.affine, trip)
                if not solution.exists:
                    continue
                oriented = _oriented(x, y, solution)
                if oriented is None:
                    continue
                source, sink, distance = oriented
                emit(source, sink, distance, solution.irregular)

    # -- scalars --------------------------------------------------------------
    scalars: dict[str, list[Access]] = {}
    for acc in accesses:
        if acc.is_scalar:
            scalars.setdefault(acc.variable, []).append(acc)

    for refs in scalars.values():
        writes = sorted((a for a in refs if a.is_write), key=lambda a: a.stmt_pos)
        reads = sorted((a for a in refs if not a.is_write), key=lambda a: a.stmt_pos)
        if not writes:
            continue  # read-only scalar: loop-invariant input, no dependence
        first_write = writes[0]
        last_write = writes[-1]
        def emit_prev_iteration_flows(read: Access) -> None:
            # Value produced by the previous iteration's final *executed*
            # write: the last write, or — through guarded may-writes — any
            # earlier write back to the nearest unguarded one.
            for w in reversed(writes):
                emit(w, read, 1, False)
                if not w.guarded:
                    break

        for read in reads:
            preceding = [w for w in writes if _executes_before(w, read)]
            if preceding:
                # Value comes from the nearest earlier write this iteration
                # — or, through guarded may-writes, any earlier one, and if
                # every preceding write is guarded, possibly the previous
                # iteration's value.
                all_guarded = True
                for w in reversed(preceding):
                    emit(w, read, 0, False)
                    if not w.guarded:
                        all_guarded = False
                        break
                if all_guarded:
                    emit_prev_iteration_flows(read)
            else:
                # Upward-exposed read.
                emit_prev_iteration_flows(read)
            # The location is overwritten afterwards: anti dependence to the
            # next write in execution order (this or the next iteration).
            following = [w for w in writes if _executes_before(read, w)]
            if following:
                emit(read, following[0], 0, False)
            else:
                emit(read, first_write, 1, False)
        for w1, w2 in zip(writes, writes[1:]):
            emit(w1, w2, 0, False)
        if trip is None or trip > 1:
            emit(last_write, first_write, 1, False)

    return graph
