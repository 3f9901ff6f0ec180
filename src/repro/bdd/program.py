"""Step programs: the composite BDD operations of the flow, each declared
once and run by one interpreter per kernel.

A composite operation — the OR and XOR bodies of a partition space
(equations 3.8 and 3.9), :meth:`~repro.bidec.symbolic.PartitionSpace.nontrivial`
and the size-pair analysis of Section 3.5.2, the extraction of ``g1``
and ``g2``, and one image step of Section 3.5.1's reachability — is a
fixed chain of BDD operations.  A :class:`Program` declares that chain
once, as a tuple of ``(op, dst, operand…)`` steps over a register file.
An operand is a register, an immediate count, or a *vector slot*: the
index of one of the integer sequences (variables, counter bits,
substitute nodes) a run is handed.  The ops are the public operations
the chains make:

========================  ====  =============================================
op                        dst   operands
========================  ====  =============================================
``not``                   1     f
``and`` ``or`` ``xor``    1     f, g
``exists`` ``forall``     1     f, slot (one interned cube of its variables)
``and_exists``            1     f, g, slot (a cube; an empty one is an AND)
``param_forall``          3     f, slot x, slot c, budget register:
``param_exists``                ``U``, the index of the first decision
                                variable the budget skipped, the node count
``replace``               1     f, slots x, y, c
``replace_pair``          1     f, slots x, y, c1, c2
``transfer``              n     first of n root registers (in the run's
                                source manager), n, slots source, target vars
``weights``               n+1   slot c (ascending), n: ``w_0 … w_n``
``krel``                  1     first of n weight registers, n, slot bits
``conjoin`` ``disjoin``   1     first of n registers, n
``rename``                1     f, slots levels, substitute nodes
``isop``                  1     l, u (raises on an inconsistent interval)
``leq``                   —     f, g: ends the run with 0 unless f ≤ g
``force``                 1     f, slot c, register k: f ∧ c[k] ∧ c[k+1] …
``pairs``                 1+2n  Bi_κ, slot e1 + e2 bits, n: the model
                                count, then each model's ``(k1, k2)``
========================  ====  =============================================

A program is validated when it is declared: an unknown op, a wrong
operand count, a register read before an input or an earlier step sets
it, or a destination outside the register file raises ``ValueError``
before any node is made.

:func:`run` is the one dispatcher.  On native managers the steps run as
one kernel call (``bdd_run``), plus the growth restarts: the kernel's
program counter is the walk's ``stage``, so a restart re-enters at the
step that asked for the growth.  The registers and the run's vectors
are packed into one buffer per run (:func:`prepare`, the cubes interned
in the order the steps first use them; a caller that runs over the same
vectors again, as the reachability schedule does, prepares the buffer
once).  On pure-Python managers (``REPRO_NATIVE=0``)
:func:`_py_run` runs the same steps through the same public functions,
which on a native manager land in the same static kernel bodies — so
the two interpreters make the same nodes with the same cache traffic by
construction, and the Python one is the parity reference.

A public function whose body is one op — the parameterized ∀/∃ and
replacements, ``vector_compose``, ``transfer_multi``, the weight table
and ``K(c, e)`` — runs on native managers as a one-step program declared
next to it; this module imports none of them at load, so each may
import it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.bdd.manager import BDDManager, _BAD_VAR

#: Words per step in the kernel's encoding: the op, the destination and
#: up to five operands (keep in sync with ``_kernel.c``).
STEP_WORDS = 7

# Operand kinds: ``r`` one register read, ``B`` the next operand's count
# of consecutive ones, ``k`` an immediate count, and a vector slot read
# as its values (``v``), as one interned cube of them (``c``) or as
# their one-variable cubes (``C``).
_VIEWS = "vcC"

#: op -> (kernel op code, destination width, operand kinds).  A width
#: that depends on the step is a function of its operands.
_OPS: dict[str, tuple[int, Any, str]] = {
    "not": (0, 1, "r"),
    "and": (1, 1, "rr"),
    "or": (2, 1, "rr"),
    "xor": (3, 1, "rr"),
    "exists": (4, 1, "rc"),
    "forall": (5, 1, "rc"),
    "and_exists": (6, 1, "rrc"),
    "param_forall": (7, 3, "rCvr"),
    "param_exists": (20, 3, "rCvr"),
    "replace": (8, 1, "rvvv"),
    "replace_pair": (9, 1, "rvvvv"),
    "transfer": (10, lambda args: args[1], "Bkvv"),
    "weights": (11, lambda args: args[1] + 1, "vk"),
    "krel": (12, 1, "Bkv"),
    "conjoin": (13, 1, "Bk"),
    "disjoin": (14, 1, "Bk"),
    "rename": (15, 1, "rvv"),
    "isop": (16, 1, "rr"),
    "leq": (17, 0, "rr"),
    "force": (18, 1, "rvr"),
    "pairs": (19, lambda args: 1 + 2 * args[2], "rvk"),
}


class Program:
    """A validated step program over ``nregs`` registers, of which
    ``inputs`` are set by each run, in that order."""

    __slots__ = ("steps", "nregs", "inputs", "views", "code", "pairs", "_buffer")

    def __init__(
        self, steps: Sequence[tuple], nregs: int, inputs: Sequence[int] = ()
    ) -> None:
        self.steps = tuple(tuple(step) for step in steps)
        self.nregs = nregs
        self.inputs = tuple(inputs)
        written = set(self.inputs)
        if not all(0 <= reg < nregs for reg in written):
            raise ValueError(f"an input register is outside the {nregs} registers")
        #: The (slot, kind) of each view, in first-use order.
        self.views: list[tuple[int, str]] = []
        self.code: list[int] = []
        #: The first register of a pairs block that ends the file, if any.
        self.pairs: int | None = None
        for index, step in enumerate(self.steps):
            op, dst, *args = step
            if op not in _OPS:
                raise ValueError(f"step {index}: unknown op {op!r}")
            opcode, width, kinds = _OPS[op]
            if len(args) != len(kinds):
                raise ValueError(
                    f"step {index}: {op} takes {len(kinds)} operands, not {len(args)}"
                )
            words = [opcode, -1 if dst is None else dst]
            for position, (kind, arg) in enumerate(zip(kinds, args)):
                if not isinstance(arg, int) or arg < 0:
                    raise ValueError(f"step {index}: operand {arg!r} of {op}")
                if kind in _VIEWS:
                    if (arg, kind) not in self.views:
                        self.views.append((arg, kind))
                    words.append(self.views.index((arg, kind)))
                    continue
                if kind != "k":
                    count = args[position + 1] if kind == "B" else 1
                    unset = [reg for reg in range(arg, arg + count) if reg not in written]
                    if unset:
                        raise ValueError(
                            f"step {index}: {op} reads register {unset[0]} "
                            "before any step writes it"
                        )
                words.append(arg)
            width = width(args) if callable(width) else width
            if width == 0 and dst is not None:
                raise ValueError(f"step {index}: {op} has no destination")
            if width and not (isinstance(dst, int) and 0 <= dst and dst + width <= nregs):
                raise ValueError(
                    f"step {index}: {op} writes outside the {nregs} registers"
                )
            written.update(range(dst, dst + width) if width else ())
            if op == "pairs" and dst + width == nregs:
                self.pairs = dst
            self.code.extend(words + [0] * (STEP_WORDS - len(words)))
        self._buffer = None


def run(
    manager: BDDManager,
    program: Program,
    inputs: Sequence[int],
    vectors: Sequence[Sequence[int]] = (),
    source: BDDManager | None = None,
    prepared: Any = None,
) -> tuple[int, list[int]]:
    """Run ``program`` on ``manager`` with its input registers set to
    ``inputs`` and its vector slots read from ``vectors``; a ``transfer``
    reads its roots in ``source``.  A caller that runs one program over
    the same vectors many times may hand in the buffer :func:`prepare`
    made for them, in which each run sets its inputs again.  Returns 1
    and the registers when the program ran to its end, 0 and the
    registers when a ``leq`` check failed.  A node id a manager never
    made raises ``ValueError``; so does an undeclared variable, and a
    transfer's source level that the variable map lacks raises
    ``KeyError``, as the public functions do."""
    if manager._st is None or (source is not None and source._st is None):
        return _py_run(manager, program, inputs, vectors, source, prepared)
    return _native_run(manager, program, inputs, vectors, source, prepared)


def prepare(
    manager: BDDManager, program: Program, vectors: Sequence[Sequence[int]], inputs: Sequence[int]
) -> Any:
    """The kernel's buffer for runs of ``program`` over ``vectors`` on the
    native ``manager``: the register file, its inputs set to ``inputs``,
    then the views (see :func:`pack`).  Registers a run writes are
    written again by the next, so the buffer serves every run."""
    packed = pack(manager, program, vectors)
    data = manager._ffi.new("int64_t[]", program.nregs + len(packed))  # zero-filled
    data[program.nregs : program.nregs + len(packed)] = packed
    for reg, value in zip(program.inputs, inputs):
        data[reg] = value
    return data


def _native_run(
    manager: BDDManager,
    program: Program,
    inputs: Sequence[int],
    vectors: Sequence[Sequence[int]],
    source: BDDManager | None,
    prepared: Any,
) -> tuple[int, list[int]]:
    """:func:`run` as one ``bdd_run`` call plus its growth restarts, over
    one buffer: the registers, then the packed vectors."""
    ffi = manager._ffi
    if program._buffer is None:
        program._buffer = ffi.new("int64_t[]", program.code)
    if prepared is None:
        data = prepare(manager, program, vectors, inputs)
    else:
        data = prepared
        for reg, value in zip(program.inputs, inputs):
            data[reg] = value
    nregs = program.nregs
    lib = manager._lib
    walk = manager._walk
    st = manager._st
    try:
        ok = manager._native_walk(
            lib.bdd_run,
            st if source is None else source._st,
            st,
            walk,
            program._buffer,
            len(program.steps),
            data,
            data + nregs,
            manager.num_vars,
        )
        if ok == _BAD_VAR:
            *_, sources, targets = program.steps[walk.stage]
            raise _bad_var(walk.err, dict(zip(vectors[sources], vectors[targets])))
    finally:
        lib.bdd_walk_clear(walk)
    if program.pairs is None:
        return ok, ffi.unpack(data, nregs)
    # A pairs block that ends the register file is read up to its count.
    count = program.pairs + 1 + 2 * data[program.pairs]
    return ok, ffi.unpack(data, count) + [0] * (nregs - count)


def _bad_var(level: int, var_map: dict[int, int]) -> Exception:
    """The error of a transfer step that stopped at source ``level``:
    ``KeyError`` when ``var_map`` lacks the level, else ``ValueError``
    for the undeclared target variable it maps to."""
    if level not in var_map:
        return KeyError(level)
    return ValueError(f"variable {var_map[level]} not declared")


def pack(
    manager: BDDManager, program: Program, vectors: Sequence[Sequence[int]]
) -> list[int]:
    """``program``'s views of ``vectors`` on ``manager``, as ``bdd_run``
    reads them: entry ``i`` the offset of view ``i``, then the views,
    each its length first.  Cubes are interned here, in the order the
    views list them."""
    views = program.views
    intern = manager.intern_cube
    words = [0] * len(views)
    for index, (slot, kind) in enumerate(views):
        words[index] = len(words)
        values = vectors[slot]
        if kind == "c":
            cube = intern(values)
            words += (len(cube.vars), cube.cube_id, cube.max_level)
            words += cube.levels
            continue
        words.append(len(values))
        words += values
        if kind == "C":
            words += [intern((var,)).cube_id for var in values]
    return words


def _py_run(
    manager: BDDManager,
    program: Program,
    inputs: Sequence[int],
    vectors: Sequence[Sequence[int]],
    source: BDDManager | None,
    prepared: Any = None,
) -> tuple[int, list[int]]:
    """:func:`run` step by step through the public functions, on either
    kernel: the ``REPRO_NATIVE=0`` path and the parity reference.  The
    cubes of the views are interned first, in the order :func:`pack`
    interns them, so a run that raises part way leaves the same cube
    table as the kernel's."""
    from repro.bdd import builders as _builders
    from repro.bdd import count as _count
    from repro.bdd import quantify as _quantify
    from repro.bdd.compose import transfer_multi, vector_compose
    from repro.bidec import parameterize as _param
    from repro.logic.sop import _isop

    m = manager
    for slot, kind in program.views:
        if kind == "c":
            m.intern_cube(vectors[slot])
        elif kind == "C":
            for var in vectors[slot]:
                m.intern_cube((var,))
    regs = [0] * program.nregs
    for reg, value in zip(program.inputs, inputs):
        regs[reg] = value
    for op, dst, *args in program.steps:
        a = args[0]
        if op == "not":
            regs[dst] = m.negate(regs[a])
        elif op in _BINARY:
            regs[dst] = _BINARY[op](m, regs[a], regs[args[1]])
        elif op in ("exists", "forall"):
            regs[dst] = getattr(_quantify, op)(m, regs[a], vectors[args[1]])
        elif op == "and_exists":
            regs[dst] = _quantify.and_exists(m, regs[a], regs[args[1]], vectors[args[2]])
        elif op in ("param_forall", "param_exists"):
            xs, cs = vectors[args[1]], vectors[args[2]]
            quantifier = _param._FORALL if op == "param_forall" else _param._EXISTS
            u, skipped = _param._parameterized_quantify(
                m, quantifier, regs[a], xs, cs, regs[args[3]]
            )
            regs[dst : dst + 3] = u, len(cs) - len(skipped), m.num_nodes
        elif op == "replace":
            xs, ys, cs = (vectors[slot] for slot in args[1:])
            regs[dst] = _param.parameterized_replace(m, regs[a], xs, ys, cs)
        elif op == "replace_pair":
            xs, ys, c1s, c2s = (vectors[slot] for slot in args[1:])
            regs[dst] = _param.parameterized_replace_pair(m, regs[a], xs, ys, c1s, c2s)
        elif op == "transfer":
            var_map = dict(zip(vectors[args[2]], vectors[args[3]]))
            roots = regs[a : a + args[1]]
            regs[dst : dst + args[1]] = transfer_multi(source, roots, m, var_map)
        elif op == "weights":
            regs[dst : dst + args[1] + 1] = _builders.weight_functions(
                m, vectors[a], args[1]
            )
        elif op == "krel":
            weights = regs[a : a + args[1]]
            regs[dst] = _builders.count_relation_from(m, weights, vectors[args[2]])
        elif op in ("conjoin", "disjoin"):
            fold = m.conjoin if op == "conjoin" else m.disjoin
            regs[dst] = fold(regs[a : a + args[1]])
        elif op == "rename":
            substitution = dict(zip(vectors[args[1]], vectors[args[2]]))
            regs[dst] = vector_compose(m, regs[a], substitution)
        elif op == "isop":
            regs[dst] = _isop(m, regs[a], regs[args[1]], False)[1]
        elif op == "leq":
            if not m.leq(regs[a], regs[args[1]]):
                return 0, regs
        elif op == "force":
            f = regs[a]
            for c in vectors[args[1]][regs[args[2]] :]:
                f = m.apply_and(f, m.var(c))
            regs[dst] = f
        else:  # pairs
            bits = vectors[args[1]]
            e1, e2 = bits[: len(bits) // 2], bits[len(bits) // 2 :]
            pairs = [
                (_builders.decode_int(e1, model), _builders.decode_int(e2, model))
                for model in _count.iter_models(m, regs[a], bits)
            ]
            regs[dst] = len(pairs)
            regs[dst + 1 : dst + 1 + 2 * len(pairs)] = [k for pair in pairs for k in pair]
    return 1, regs


_BINARY = {
    "and": BDDManager.apply_and,
    "or": BDDManager.apply_or,
    "xor": BDDManager.apply_xor,
}
