"""Lowering of a synchronized loop body to DLX-style three-address code.

The lowering rules are reverse-engineered from the paper's Fig. 2 listing
(validated token-for-token in ``tests/codegen/test_fig2.py``):

* Per assignment: the target's address arithmetic first, then the RHS
  operands left-to-right (subscript arithmetic, address scaling, load),
  each operator as soon as its operands are ready, the store last.
* Addresses are byte addresses: subscript values are scaled by the 4-byte
  word size on the shifter (``t1 <- 4 * I``).
* Integer (index) arithmetic is value-numbered across the whole body —
  Fig. 2 computes ``4 * I`` once (instruction 2) and reuses ``t1`` for
  ``B[I]``'s store, ``B[I]``'s reload and ``A[I]``'s store.  Loads and
  floating-point values are never value-numbered (memory may change).
* ``FuseStore.BEFORE_SEND`` reproduces Fig. 2's instruction 26
  (``A[t1] <- t18 + t21``): the final operation of a dependence-*source*
  statement — one immediately followed by its ``Send_Signal`` — is fused
  into the store, shortening the source→send chain.  ``NEVER``/``ALWAYS``
  are provided for ablations.
* Scalars written inside the loop live in shared memory (they are what the
  iterations communicate through); scalars only read (the index ``I``,
  bounds, loop invariants) live in registers and cost no instruction.

Deviation from the paper's listing, documented in EXPERIMENTS.md: Fig. 2's
instruction 21 reads ``G[t9] <- t17``, using the *unscaled* subscript and
leaving instruction 13 (``t10 <- 4 * t9``) dead; we take this as a typo and
emit ``G[t10] <- t17``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.deps.subscripts import Affine, affine_of
from repro.ir.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    Expr,
    SendSignal,
    UnaryOp,
    VarRef,
    WaitSignal,
)
from repro.ir.symbols import SymbolKind, SymbolTable, VarType
from repro.codegen.isa import (
    WORD_SIZE,
    FuClass,
    Instruction,
    MemAccess,
    Opcode,
    Operand,
    SyncInfo,
)
from repro.sync.insertion import SyncedLoop

if TYPE_CHECKING:  # pragma: no cover - repro.sched imports this module
    from repro.sched.machine import MachineConfig, UnitSpec


class FuseStore(enum.Enum):
    """When to fuse a statement's final operation into its store."""

    NEVER = "never"
    BEFORE_SEND = "before_send"  # the paper's Fig. 2 behaviour
    ALWAYS = "always"


@dataclass
class LoweredLoop:
    """The instruction stream plus the maps the DFG builder needs.

    ``iid``s are 1-based listing positions.  ``ref_iids`` maps ``id(expr)``
    of each array/scalar reference in the source body to the instruction
    that performs the access (load for reads, store for the write), which is
    how synchronization-condition arcs find their Src/Snk instructions.

    ``id()`` keys do not survive pickling (every object gets a fresh id in
    the receiving process), so ``ref_objs`` keeps each registered reference
    object alongside its id and ``__getstate__``/``__setstate__`` ship the
    map as ``(ref, iid)`` pairs: the pickle memo preserves the identity the
    refs share with the nodes inside ``synced``, and the maps are rebuilt
    on the new ids.  This is what lets the compile cache's disk envelope
    and the process-pool workers exchange compiled loops.
    """

    synced: SyncedLoop
    symbols: SymbolTable
    instructions: list[Instruction] = field(default_factory=list)
    wait_iids: dict[int, int] = field(default_factory=dict)  # pair_id -> iid
    send_iids: dict[int, int] = field(default_factory=dict)  # pair_id -> iid
    ref_iids: dict[int, int] = field(default_factory=dict)  # id(ref expr) -> iid
    ref_objs: dict[int, object] = field(default_factory=dict)  # id(ref expr) -> expr
    _units: dict = field(default_factory=dict, repr=False, compare=False)

    def note_ref(self, ref: object, iid: int, keep_existing: bool = False) -> None:
        """Register ``ref``'s access instruction in ``ref_iids`` (and its
        object in ``ref_objs``, which keeps the map picklable)."""
        key = id(ref)
        if keep_existing and key in self.ref_iids:
            return
        self.ref_iids[key] = iid
        self.ref_objs[key] = ref

    def units(self, machine: MachineConfig) -> tuple[UnitSpec, ...]:
        """Each instruction's unit on ``machine``, indexed by iid (index 0
        unused), resolved once per machine for every reader."""
        units = self._units.get(machine)
        if units is None:
            units = (None, *(machine.unit_for(i.fu) for i in self.instructions))
            self._units[machine] = units
        return units

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_units", None)
        state.pop("ref_iids")
        refs = state.pop("ref_objs")
        state["_ref_items"] = [(refs[key], iid) for key, iid in self.ref_iids.items()]
        return state

    def __setstate__(self, state: dict) -> None:
        items = state.pop("_ref_items")
        self.__dict__.update(state)
        self._units = {}
        self.ref_iids = {id(ref): iid for ref, iid in items}
        self.ref_objs = {id(ref): ref for ref, _iid in items}

    def __len__(self) -> int:
        return len(self.instructions)

    def instruction(self, iid: int) -> Instruction:
        instr = self.instructions[iid - 1]
        assert instr.iid == iid
        return instr

    def source_iids(self, pair_id: int) -> tuple[int, ...]:
        """Instructions that are the dependence-source events of a pair."""
        pair = self.synced.pair(pair_id)
        return tuple(sorted({self.ref_iids[id(d.source_ref)] for d in pair.deps}))

    def sink_iids(self, pair_id: int) -> tuple[int, ...]:
        """Instructions that are the dependence-sink events of a pair."""
        pair = self.synced.pair(pair_id)
        return tuple(sorted({self.ref_iids[id(d.sink_ref)] for d in pair.deps}))


class _Lowerer:
    def __init__(self, synced: SyncedLoop, symbols: SymbolTable, fuse: FuseStore) -> None:
        self.synced = synced
        self.symbols = symbols
        self.fuse = fuse
        self.out = LoweredLoop(synced=synced, symbols=symbols)
        self.temp_count = 0
        self.cse: dict[tuple, str] = {}
        self.types: dict[str, VarType] = {}
        self.written_scalars = {
            s.target.name
            for s in synced.loop.body
            if isinstance(s, Assign) and isinstance(s.target, VarRef)
        }
        self.stmt_pos = -1

    # -- plumbing -----------------------------------------------------------

    def new_temp(self, var_type: VarType) -> str:
        self.temp_count += 1
        name = f"t{self.temp_count}"
        self.types[name] = var_type
        return name

    def emit(self, **kwargs) -> Instruction:
        instr = Instruction(iid=len(self.out.instructions) + 1, stmt_pos=self.stmt_pos, **kwargs)
        self.out.instructions.append(instr)
        return instr

    def operand_type(self, op: Operand) -> VarType:
        if isinstance(op, int):
            return VarType.INT
        if isinstance(op, float):
            return VarType.REAL
        if op in self.types:
            return self.types[op]
        if op in self.symbols:
            return self.symbols[op].var_type
        return VarType.INT

    # -- expression lowering -------------------------------------------------

    def lower_int_op(self, sym: str, a: Operand, b: Operand) -> Operand:
        """Integer arithmetic with constant folding and value numbering."""
        if isinstance(a, int) and isinstance(b, int):
            if sym == "+":
                return a + b
            if sym == "-":
                return a - b
            if sym == "*":
                return a * b
            if sym == "/":
                return a // b if b != 0 and a % b == 0 else a
        opcode = {
            "+": Opcode.IADD,
            "-": Opcode.ISUB,
            "*": Opcode.IMUL,
            "/": Opcode.IDIV,
        }[sym]
        if sym == "*" and isinstance(a, int) and a > 0 and (a & (a - 1)) == 0:
            opcode = Opcode.SHIFT
        elif sym == "*" and isinstance(b, int) and b > 0 and (b & (b - 1)) == 0:
            opcode = Opcode.SHIFT
            a, b = b, a  # canonical: power-of-two factor first, as in Fig. 2
        key = (opcode, a, b)
        if key in self.cse:
            return self.cse[key]
        dest = self.new_temp(VarType.INT)
        self.emit(opcode=opcode, dest=dest, srcs=(a, b))
        self.cse[key] = dest
        return dest

    def lower_address(self, subscript: Expr) -> tuple[Operand, Affine | None]:
        """Byte address of an array subscript: value-numbered index
        arithmetic followed by a word-size scale on the shifter."""
        value = self.lower_expr(subscript, force_int=True)
        affine = affine_of(subscript, self.synced.loop.index)
        if isinstance(value, int):
            return value * WORD_SIZE, affine
        assert isinstance(value, str)
        return self.lower_int_op("*", WORD_SIZE, value), affine

    def lower_load(self, ref: ArrayRef) -> str:
        address, affine = self.lower_address(ref.subscript)
        var_type = (
            self.symbols[ref.name].var_type if ref.name in self.symbols else VarType.REAL
        )
        dest = self.new_temp(var_type)
        instr = self.emit(
            opcode=Opcode.LOAD,
            dest=dest,
            mem=MemAccess(variable=ref.name, address=address, is_store=False, affine=affine),
        )
        self.out.note_ref(ref, instr.iid)
        return dest

    def lower_scalar_read(self, ref: VarRef) -> Operand:
        if ref.name in self.written_scalars:
            dest = self.new_temp(self.operand_type(ref.name))
            instr = self.emit(
                opcode=Opcode.LOAD,
                dest=dest,
                mem=MemAccess(variable=ref.name, address=None, is_store=False, is_scalar=True),
            )
            self.out.note_ref(ref, instr.iid)
            return dest
        self.out.note_ref(ref, 0)  # register access: no instruction
        return ref.name

    def lower_expr(self, expr: Expr, force_int: bool = False) -> Operand:
        """Lower ``expr``; returns the operand holding its value.

        ``force_int`` marks index context (subscripts), where arithmetic is
        integer regardless of operand defaults.
        """
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, VarRef):
            if force_int and expr.name not in self.written_scalars:
                self.out.note_ref(expr, 0, keep_existing=True)
                return expr.name
            return self.lower_scalar_read(expr)
        if isinstance(expr, ArrayRef):
            return self.lower_load(expr)
        if isinstance(expr, UnaryOp):
            inner = self.lower_expr(expr.operand, force_int=force_int)
            if isinstance(inner, (int, float)):
                return -inner
            is_int = force_int or self.operand_type(inner) is VarType.INT
            if is_int:
                return self.lower_int_op("-", 0, inner)
            dest = self.new_temp(VarType.REAL)
            self.emit(opcode=Opcode.FNEG, dest=dest, srcs=(inner,))
            return dest
        if isinstance(expr, BinOp):
            a = self.lower_expr(expr.left, force_int=force_int)
            b = self.lower_expr(expr.right, force_int=force_int)
            is_int = force_int or (
                self.operand_type(a) is VarType.INT and self.operand_type(b) is VarType.INT
            )
            if is_int:
                return self.lower_int_op(expr.op, a, b)
            opcode = {
                "+": Opcode.FADD,
                "-": Opcode.FSUB,
                "*": Opcode.FMUL,
                "/": Opcode.FDIV,
            }[expr.op]
            dest = self.new_temp(VarType.REAL)
            self.emit(opcode=opcode, dest=dest, srcs=(a, b))
            return dest
        raise TypeError(f"cannot lower {expr!r}")

    # -- statement lowering ----------------------------------------------------

    def _store_mem(self, target: ArrayRef | VarRef) -> MemAccess:
        if isinstance(target, ArrayRef):
            address, affine = self.lower_address(target.subscript)
            return MemAccess(
                variable=target.name, address=address, is_store=True, affine=affine
            )
        return MemAccess(variable=target.name, address=None, is_store=True, is_scalar=True)

    def lower_guard(self, stmt: Assign) -> str | None:
        """Lower the statement guard to a compare; returns the predicate
        register (or ``None`` for unguarded statements)."""
        if stmt.guard is None:
            return None
        a = self.lower_expr(stmt.guard.left)
        b = self.lower_expr(stmt.guard.right)
        is_int = (
            self.operand_type(a) is VarType.INT and self.operand_type(b) is VarType.INT
        )
        dest = self.new_temp(VarType.INT)
        self.emit(
            opcode=Opcode.ICMP if is_int else Opcode.FCMP,
            dest=dest,
            srcs=(a, b),
            cmp=stmt.guard.op,
        )
        return dest

    def lower_assign(self, stmt: Assign, fuse_this: bool) -> None:
        mem = self._store_mem(stmt.target)
        pred = self.lower_guard(stmt)
        expr = stmt.expr
        if fuse_this and isinstance(expr, BinOp):
            a = self.lower_expr(expr.left)
            b = self.lower_expr(expr.right)
            is_int = (
                self.operand_type(a) is VarType.INT
                and self.operand_type(b) is VarType.INT
            )
            fused = {
                ("+", True): Opcode.IADD,
                ("-", True): Opcode.ISUB,
                ("*", True): Opcode.IMUL,
                ("/", True): Opcode.IDIV,
                ("+", False): Opcode.FADD,
                ("-", False): Opcode.FSUB,
                ("*", False): Opcode.FMUL,
                ("/", False): Opcode.FDIV,
            }[(expr.op, is_int)]
            instr = self.emit(
                opcode=Opcode.STORE_OP, srcs=(a, b), mem=mem, fused=fused, pred=pred
            )
        else:
            value = self.lower_expr(expr)
            instr = self.emit(opcode=Opcode.STORE, srcs=(value,), mem=mem, pred=pred)
        self.out.note_ref(stmt.target, instr.iid)

    def lower_wait(self, stmt: WaitSignal) -> None:
        affine = affine_of(stmt.iteration, self.synced.loop.index)
        if affine is None or affine.coeff != 1 or affine.offset >= 0:
            raise ValueError(f"unsupported wait iteration expression: {stmt.iteration}")
        assert stmt.pair_id is not None, "wait statement lacks a pair id"
        instr = self.emit(
            opcode=Opcode.WAIT,
            sync=SyncInfo(
                pair_ids=(stmt.pair_id,),
                source_label=stmt.source_label,
                distance=-affine.offset,
            ),
        )
        self.out.wait_iids[stmt.pair_id] = instr.iid

    def lower_send(self, stmt: SendSignal) -> None:
        instr = self.emit(
            opcode=Opcode.SEND,
            sync=SyncInfo(pair_ids=stmt.pair_ids, source_label=stmt.source_label),
        )
        for pair_id in stmt.pair_ids:
            self.out.send_iids[pair_id] = instr.iid

    def run(self) -> LoweredLoop:
        body = self.synced.loop.body
        for pos, stmt in enumerate(body):
            self.stmt_pos = pos
            if isinstance(stmt, WaitSignal):
                self.lower_wait(stmt)
            elif isinstance(stmt, SendSignal):
                self.lower_send(stmt)
            elif isinstance(stmt, Assign):
                followed_by_send = pos + 1 < len(body) and isinstance(
                    body[pos + 1], SendSignal
                )
                fuse_this = self.fuse is FuseStore.ALWAYS or (
                    self.fuse is FuseStore.BEFORE_SEND and followed_by_send
                )
                self.lower_assign(stmt, fuse_this)
            else:  # pragma: no cover - defensive
                raise TypeError(f"cannot lower statement {stmt!r}")
        return self.out


def lower_loop(
    synced: SyncedLoop,
    symbols: SymbolTable | None = None,
    fuse: FuseStore = FuseStore.BEFORE_SEND,
) -> LoweredLoop:
    """Lower a synchronized loop to the Fig. 2 instruction stream."""
    if symbols is None:
        symbols = SymbolTable.from_loop(synced.loop)
    return _Lowerer(synced, symbols, fuse).run()
