"""Step programs: validation when declared, one kernel call per run,
and the traffic of a whole flow.

A program is checked once, when it is declared, so a malformed one
raises before either interpreter makes a node; the kernel's interpreter
also rejects an op code it does not know with an error code.  On a
native manager every run of each of the flow's programs, and each call
of a public function that runs as a one-step program, crosses into C
once (``bdd_run``), plus one call per growth restart and per table
growth the kernel runs, and the manager's own call counter agrees.  Last,
one ``algorithm1`` run pins the node and kernel-call traffic the programs
make."""

import importlib
import random

import pytest

from repro import obs
from repro.bdd import builders
from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.compose import transfer_multi, vector_compose
from repro.bdd.manager import _BAD_OP, BDDManager, FALSE, TRUE
from repro.bdd.program import STEP_WORDS, Program
from repro.benchgen import iscas_analog
from repro.bidec import parameterize
from repro.bidec import symbolic as _symbolic
from repro.intervals import Interval
from repro.reach import TransitionSystem
from repro.reach import image as _image
from repro.reach import traversal as _traversal
from repro.synth import algorithm1

from strategies import small_circuit
from test_bidec_space_parity import _interval, _scratch_pair

_extract = importlib.import_module("repro.bidec.extract")

native_only = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)
KERNELS = [False, pytest.param(True, marks=native_only)]


class TestValidation:
    @pytest.mark.parametrize(
        "steps, nregs, message",
        [
            ((("nand", 1, 0, 0),), 2, "unknown op 'nand'"),
            ((("and", 1, 0),), 2, "and takes 2 operands, not 1"),
            ((("not", 1, 0, 0),), 2, "not takes 1 operands, not 2"),
            ((("not", 1, 0), ("and", 2, 1, 3)), 4, "reads register 3 before"),
            ((("conjoin", 2, 0, 2),), 3, "reads register 1 before"),
            ((("not", 2, 0),), 2, "writes outside the 2 registers"),
            ((("transfer", 1, 0, 2, 0, 1),), 2, "reads register 1 before"),
            ((("weights", 1, 0, 2),), 3, "writes outside the 3 registers"),
            ((("leq", 1, 0, 0),), 2, "leq has no destination"),
            ((("not", -1, 0),), 2, "writes outside"),
        ],
    )
    @pytest.mark.parametrize("native", KERNELS)
    def test_malformed_program_raises_before_any_node(self, native, steps, nregs, message):
        m = BDDManager(2, native=native)
        f = m.apply_and(m.var(0), m.var(1))
        before = m.num_nodes, m.stats_snapshot()
        with pytest.raises(ValueError, match=message):
            _program.run(m, Program(steps, nregs, (0,)), (f,))
        assert (m.num_nodes, m.stats_snapshot()) == before

    def test_input_outside_the_registers(self):
        with pytest.raises(ValueError, match="outside"):
            Program((("not", 1, 0),), 2, (0, 2))

    @native_only
    @pytest.mark.parametrize("opcode", [99, -1])
    def test_kernel_rejects_unknown_op_code(self, opcode):
        m = BDDManager(2, native=True)
        f = m.var(0)
        ffi, lib = m._ffi, m._lib
        code = ffi.new("int64_t[]", [opcode, 1] + [0] * (STEP_WORDS - 2))
        regs = ffi.new("int64_t[]", [f, 0, 0])
        nodes = m.num_nodes
        assert lib.bdd_run(m._st, m._st, m._walk, code, 1, regs, regs + 2, 2) == _BAD_OP
        lib.bdd_walk_clear(m._walk)
        assert m.num_nodes == nodes
        program = Program((("not", 1, 0),), 2, (0,))
        program.code[0] = opcode  # past the check a declaration makes
        with pytest.raises(ValueError, match="op code"):
            _program.run(m, program, (f,))


class CountingLib:
    """The kernel library, recording the name of every call into it."""

    def __init__(self, lib):
        self.lib = lib
        self.names = []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        return lambda *args: (self.names.append(name), fn(*args))[1]


def _one_call(manager, call):
    """Run ``call`` with ``manager``'s library counted: one ``bdd_run``
    plus one per growth restart, the table growths and the walk's clear,
    nothing else, and the manager's call counter agrees.  Returns the
    result and the number of restarts."""
    real_lib, real_grow = manager._lib, manager._grow
    lib = manager._lib = CountingLib(real_lib)
    grows = []
    manager._grow = lambda code: (grows.append(code), real_grow(code))[1]
    before = manager._calls[0]
    try:
        result = call()
    finally:
        manager._lib = real_lib
        del manager._grow
    assert lib.names.count("bdd_run") == 1 + len(grows)
    assert lib.names[-1] == "bdd_walk_clear"
    assert set(lib.names) <= {"bdd_run", "bdd_grow_unique", "bdd_grow_table", "bdd_walk_clear"}
    assert manager._calls[0] - before == len(lib.names) - lib.names.count("bdd_walk_clear")
    return result, len(grows)


@native_only
class TestOneCallPerRun:
    @pytest.mark.parametrize("with_y", [False, True])
    def test_space_bodies(self, with_y):
        interval = _interval(21, k=7)
        variables = sorted(interval.support())
        (sm, _), layout = _scratch_pair(len(variables), with_y)
        if with_y:
            call = lambda: _symbolic._xor_body(interval, variables, sm, layout)  # noqa: E731
        else:
            call = lambda: _symbolic._or_body(interval, variables, sm, layout, 400)  # noqa: E731
        bi, restarts = _one_call(sm, call)
        assert bi != FALSE and restarts

    @pytest.mark.parametrize("gate", ["or", "and"])
    def test_space_analyses(self, gate, monkeypatch):
        monkeypatch.setattr(_symbolic, "_spares", [])
        space = _symbolic.partition_space(_interval(22, k=7), gate)
        space.manager.clear_caches()
        restricted, restarts = _one_call(space.manager, space.nontrivial)
        assert restricted.bi != FALSE and restarts
        pairs, _ = _one_call(space.manager, restricted.size_pairs)
        assert pairs

    @pytest.mark.parametrize("gate", ["or", "and"])
    def test_extraction(self, gate):
        m = BDDManager(6, native=True)
        rng = random.Random(23)
        terms = [m.cube({v: rng.random() < 0.5 for v in rng.sample(range(6), 3)}) for _ in range(5)]
        f = m.disjoin(terms)
        interval = Interval.exact(m, f if gate == "or" else m.negate(f))
        space = _symbolic.partition_space(interval, gate).nontrivial()
        support1, support2 = space.pick_partition()
        program, _ = _extract._EXTRACTIONS[gate, True]
        vectors = _extract_vectors(interval, support1, support2)
        (found, _), _ = _one_call(
            m, lambda: _program.run(m, program, (interval.lower, interval.upper), vectors)
        )
        assert found

    def test_reach_step(self):
        ts = TransitionSystem(small_circuit(5, latches=8), manager=BDDManager(native=True))
        schedule = _traversal._schedule(ts, "early")
        reached = frontier = ts.initial_states()
        restarted = 0
        while frontier != FALSE:
            (frontier, reached), restarts = _one_call(
                ts.manager, lambda: _image.reach_step(ts.manager, schedule, frontier, reached)
            )
            restarted += restarts
        assert restarted


def _random_functions(m, seed, count):
    """``count`` random sums of four-literal cubes over all of ``m``'s
    variables."""
    rng = random.Random(seed)
    variables = range(m.num_vars)
    return [
        m.disjoin([m.cube({v: rng.random() < 0.5 for v in rng.sample(variables, 4)}) for _ in range(8)])
        for _ in range(count)
    ]


#: Each public function that runs as a one-step program, on a native
#: manager over 16 variables, three random functions ``fs`` of it and
#: the weight table ``ws`` of variables 0-11.
ONE_STEP = {
    "param_forall": lambda m, fs, ws: parameterize.parameterized_forall(
        m, fs[0], range(8), range(8, 16)
    ),
    "param_forall_budget": lambda m, fs, ws: parameterize.parameterized_forall(
        m, fs[0], range(8), range(8, 16), m.num_nodes + 40
    ),
    "param_exists": lambda m, fs, ws: parameterize.parameterized_exists(
        m, fs[1], range(0, 16, 2), range(1, 16, 2)
    ),
    "param_replace": lambda m, fs, ws: parameterize.parameterized_replace(
        m, fs[0], range(5), range(5, 10), range(10, 15)
    ),
    "param_replace_pair": lambda m, fs, ws: parameterize.parameterized_replace_pair(
        m, fs[1], range(4), range(4, 8), range(8, 12), range(12, 16)
    ),
    "vector_compose": lambda m, fs, ws: vector_compose(
        m, fs[0], {0: fs[1], 5: fs[2], 9: TRUE, 11: m.var(3)}
    ),
    "weight_functions": lambda m, fs, ws: builders.weight_functions(m, range(1, 16, 2)),
    "count_relation_from": lambda m, fs, ws: builders.count_relation_from(
        m, ws, range(12, 16)
    ),
}


@native_only
class TestOneCallPerPublicFunction:
    """Each public function whose body is one op crosses into C once,
    as a one-step program, plus its restarts."""

    @pytest.mark.parametrize("name", sorted(ONE_STEP))
    def test_one_call(self, name):
        m = BDDManager(16, native=True)
        functions = _random_functions(m, 31, 3)
        weights = builders.weight_functions(m, range(12))
        result, restarts = _one_call(m, lambda: ONE_STEP[name](m, functions, weights))
        assert restarts
        if name == "param_forall_budget":
            assert result[1]  # the budget skipped some decision variables

    @pytest.mark.parametrize(
        "roots, var_map",
        [
            ((0,), "reversed"),
            ((0, 1, 2), "reversed"),
            ((0, 1, 2), None),
        ],
        ids=["one_root", "three_roots", "identity"],
    )
    def test_transfer_multi(self, roots, var_map):
        source = BDDManager(16, native=True)
        functions = _random_functions(source, 32, 3)
        target = BDDManager(16, native=True)
        if var_map == "reversed":
            var_map = {v: 15 - v for v in range(16)}
        picked = [functions[i] for i in roots]
        moved, restarts = _one_call(
            target, lambda: transfer_multi(source, picked, target, var_map)
        )
        assert len(moved) == len(roots) and restarts


def _extract_vectors(interval, support1, support2):
    """The extraction programs' vectors: x̄2, then x̄1."""
    support = interval.support()
    return sorted(support - set(support2)), sorted(support - set(support1))


@pytest.mark.parametrize("native", KERNELS)
def test_algorithm1_traffic(native, monkeypatch):
    """``algorithm1`` on s344 with default options from no spare scratch
    manager: the nodes it makes on both kernels, and on the kernel its
    calls into C."""
    monkeypatch.setattr(_symbolic, "_spares", [])
    if not native:
        monkeypatch.setattr(_native, "kernel", lambda: None)
    network = iscas_analog("s344")
    obs.reset()
    try:
        with obs.scope():
            algorithm1(network)
        counters = obs.report()["counters"]
    finally:
        obs.reset()
    assert counters["bdd.unique.inserts"] == 197_600
    assert counters.get("bdd.kernel_calls", 0) == (2_713 if native else 0)
