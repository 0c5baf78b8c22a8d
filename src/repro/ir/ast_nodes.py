"""AST node definitions for the mini-Fortran loop language.

Expressions are immutable (frozen dataclasses) so they can be hashed, shared
and used as dictionary keys by the value-numbering pass in the code
generator.  Statements and loops are mutable because the restructuring
transforms (:mod:`repro.transforms`) and synchronization insertion
(:mod:`repro.sync`) rewrite them in place-ish style (they build new bodies
but reuse expression trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A numeric literal.  ``value`` is an ``int`` or ``float``."""

    value: Union[int, float]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return str(self.value)


@dataclass(frozen=True)
class VarRef:
    """A reference to a scalar variable (including the loop index)."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass(frozen=True)
class ArrayRef:
    """A singly-subscripted array reference, e.g. ``A(I-2)``."""

    name: str
    subscript: "Expr"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.name}({self.subscript})"


@dataclass(frozen=True)
class BinOp:
    """A binary arithmetic operation; ``op`` is one of ``+ - * /``."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unsupported binary operator: {self.op!r}")


@dataclass(frozen=True)
class UnaryOp:
    """A unary operation; ``op`` is ``-`` (negation)."""

    op: str
    operand: "Expr"

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator: {self.op!r}")


Expr = Union[Const, VarRef, ArrayRef, BinOp, UnaryOp]

EXPR_TYPES = (Const, VarRef, ArrayRef, BinOp, UnaryOp)

COMPARISON_OPS = ("<", ">", "<=", ">=", "==", "!=")


@dataclass(frozen=True)
class Comparison:
    """A relational guard expression, e.g. ``X(I) < M``.

    Comparisons appear only as statement guards (``IF (cond) stmt``); the
    expression language itself stays arithmetic.
    """

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")


def clone_expr(expr: Expr) -> Expr:
    """Structure-preserving deep copy with all-new node objects.

    Passes that splice one expression into several places must clone it
    per occurrence: the dependence machinery anchors events to node
    *object identity*, and :func:`repro.sync.insert_synchronization`
    rejects bodies with shared nodes.
    """
    if isinstance(expr, VarRef):
        return VarRef(expr.name)
    if isinstance(expr, Const):
        return Const(expr.value)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, clone_expr(expr.left), clone_expr(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, clone_expr(expr.operand))
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, clone_expr(expr.subscript))
    raise TypeError(f"not an expression: {expr!r}")


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first, pre-order."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ArrayRef):
        yield from walk_expr(expr.subscript)


def array_refs(expr: Expr) -> Iterator[ArrayRef]:
    """Yield every :class:`ArrayRef` in ``expr`` in textual (left-to-right) order."""
    for node in walk_expr(expr):
        if isinstance(node, ArrayRef):
            yield node


def scalar_refs(expr: Expr) -> Iterator[VarRef]:
    """Yield every :class:`VarRef` in ``expr`` (including inside subscripts)."""
    for node in walk_expr(expr):
        if isinstance(node, VarRef):
            yield node


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    """An assignment statement ``target = expr`` with an optional label.

    ``label`` is the paper-style statement name (``S1``, ``S2``, ...); the
    dependence analyzer and synchronization inserter refer to statements by
    label when one exists and by body position otherwise.

    ``guard`` makes it a Fortran logical-IF statement
    (``IF (guard) target = expr``): the write happens only when the guard
    holds — a *may*-write to the analyses, a predicated store to the code
    generator, and the taxonomy's control-dependence type when a carried
    dependence runs through it.
    """

    target: Union[VarRef, ArrayRef]
    expr: Expr
    label: str | None = None
    guard: Comparison | None = None

    def is_array_assign(self) -> bool:
        return isinstance(self.target, ArrayRef)

    def guard_exprs(self) -> tuple[Expr, ...]:
        """The guard's operand expressions (empty when unguarded)."""
        if self.guard is None:
            return ()
        return (self.guard.left, self.guard.right)


@dataclass
class WaitSignal:
    """``WAIT_SIGNAL(S, I-d)``: block until the signal for statement ``S``
    of iteration ``I-d`` has been produced.

    ``source_label`` names the dependence-source statement, ``iteration`` is
    the (affine) iteration expression, and ``pair_id`` ties this wait to its
    matching :class:`SendSignal` (assigned by :mod:`repro.sync.insertion`).
    """

    source_label: str
    iteration: Expr
    pair_id: int | None = None


@dataclass
class SendSignal:
    """``SEND_SIGNAL(S)``: publish the signal for statement ``S`` of the
    current iteration.  ``pair_ids`` lists every synchronization pair this
    send serves (one send can satisfy several waits on the same source)."""

    source_label: str
    pair_ids: tuple[int, ...] = ()


Stmt = Union[Assign, WaitSignal, SendSignal]

STMT_TYPES = (Assign, WaitSignal, SendSignal)


# ---------------------------------------------------------------------------
# Loops and programs
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    """A single-index counted loop.

    ``is_doacross`` distinguishes a plain ``DO`` from a ``DOACROSS`` (the
    synchronized parallel form).  Bounds are expressions so symbolic trip
    counts (``N``) can be carried through the pipeline; ``step`` is a
    positive integer constant, 1 in every kernel the paper considers.
    """

    index: str
    lower: Expr
    upper: Expr
    body: list[Stmt] = field(default_factory=list)
    step: int = 1
    is_doacross: bool = False
    name: str | None = None

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("loop step must be a positive integer")

    @property
    def trip_count(self) -> int | None:
        """``upper - lower + 1`` when both bounds are constants, else ``None``."""
        if isinstance(self.lower, Const) and isinstance(self.upper, Const):
            return int(self.upper.value) - int(self.lower.value) + 1
        return None

    def assignments(self) -> list[Assign]:
        """The assignment statements of the body, in textual order."""
        return [s for s in self.body if isinstance(s, Assign)]

    def sync_ops(self) -> list[Union[WaitSignal, SendSignal]]:
        """The synchronization statements of the body, in textual order."""
        return [s for s in self.body if isinstance(s, (WaitSignal, SendSignal))]

    def stmt_position(self, stmt: Stmt) -> int:
        """Textual position of ``stmt`` within the body (identity match)."""
        for i, s in enumerate(self.body):
            if s is stmt:
                return i
        raise ValueError("statement is not part of this loop body")

    def labelled(self, label: str) -> Assign:
        """Look up an assignment by its statement label."""
        for s in self.body:
            if isinstance(s, Assign) and s.label == label:
                return s
        raise KeyError(f"no statement labelled {label!r}")


@dataclass
class Program:
    """A compilation unit: optional name, declarations, and top-level loops.

    Declarations map a variable name to a declared type string (``"REAL"``
    or ``"INTEGER"``) and, for arrays, an extent.  They are optional in the
    surface syntax; undeclared arrays default to ``REAL`` and undeclared
    scalars to ``INTEGER`` (loop indexes and bounds are integers in every
    paper kernel).
    """

    loops: list[Loop] = field(default_factory=list)
    name: str | None = None
    declarations: dict[str, tuple[str, int | None]] = field(default_factory=dict)

    def loop(self, i: int = 0) -> Loop:
        return self.loops[i]
