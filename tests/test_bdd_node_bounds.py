"""Node ids a manager never made are rejected where they reach a core.

Every exported kernel entry checks its node operands against the node
count and the pure-Python cores check at the same point, so on both
kernels a stray id raises ``ValueError`` instead of reading outside the
node arrays (natively) or returning a wrong node.  A short-circuit
return (a terminal or an equal partner, an empty cube) checks the
call's operands first, and ``support`` checks its root."""

import os
import subprocess
import sys

import pytest

from repro.bdd import native as _native
from repro.bdd import quantify
from repro.bdd.builders import count_relation_from
from repro.bdd.compose import transfer_multi, vector_compose
from repro.bdd.count import iter_models
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bidec import parameterize
from repro.bidec.symbolic import partition_space
from repro.intervals import Interval

requires_native = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)

KERNELS = [
    pytest.param(False, id="python"),
    pytest.param(True, id="native", marks=requires_native),
]

#: Each operator and quantifier with the stray id in every operand
#: position; ``a`` and ``b`` are the literals of variables 0 and 1.
OPERATIONS = {
    "negate": lambda m, a, b, x: m.negate(x),
    "and_1": lambda m, a, b, x: m.apply_and(x, a),
    "and_2": lambda m, a, b, x: m.apply_and(a, x),
    "or_1": lambda m, a, b, x: m.apply_or(x, a),
    "or_2": lambda m, a, b, x: m.apply_or(a, x),
    "xor_1": lambda m, a, b, x: m.apply_xor(x, a),
    "xor_2": lambda m, a, b, x: m.apply_xor(a, x),
    "ite_1": lambda m, a, b, x: m.ite(x, a, b),
    "ite_2": lambda m, a, b, x: m.ite(a, x, b),
    "ite_3": lambda m, a, b, x: m.ite(a, b, x),
    "exists": lambda m, a, b, x: quantify.exists(m, x, [2]),
    "forall": lambda m, a, b, x: quantify.forall(m, x, [2]),
    "and_exists_1": lambda m, a, b, x: quantify.and_exists(m, x, a, [2]),
    "and_exists_2": lambda m, a, b, x: quantify.and_exists(m, a, x, [2]),
    "compose_root": lambda m, a, b, x: vector_compose(m, x, {0: b}),
    "compose_substitute": lambda m, a, b, x: vector_compose(m, a, {0: x}),
    "transfer_root": lambda m, a, b, x: transfer_multi(m, [a, x], BDDManager(3)),
    "count_relation_weight": lambda m, a, b, x: count_relation_from(
        m, [a, x], [2]
    ),
    # Short-circuit returns: terminal and equal partners, empty cubes.
    "and_true": lambda m, a, b, x: m.apply_and(TRUE, x),
    "and_false": lambda m, a, b, x: m.apply_and(x, FALSE),
    "and_equal": lambda m, a, b, x: m.apply_and(x, x),
    "or_false": lambda m, a, b, x: m.apply_or(FALSE, x),
    "or_true": lambda m, a, b, x: m.apply_or(x, TRUE),
    "or_equal": lambda m, a, b, x: m.apply_or(x, x),
    "xor_false": lambda m, a, b, x: m.apply_xor(FALSE, x),
    "xor_equal": lambda m, a, b, x: m.apply_xor(x, x),
    "ite_true": lambda m, a, b, x: m.ite(TRUE, x, a),
    "ite_false": lambda m, a, b, x: m.ite(FALSE, a, x),
    "ite_equal": lambda m, a, b, x: m.ite(a, x, x),
    "ite_constants": lambda m, a, b, x: m.ite(x, TRUE, FALSE),
    "exists_empty": lambda m, a, b, x: quantify.exists(m, x, []),
    "forall_empty": lambda m, a, b, x: quantify.forall(m, x, []),
    "and_exists_empty": lambda m, a, b, x: quantify.and_exists(m, TRUE, x, []),
    "support": lambda m, a, b, x: m.support(x),
    # The loops: the fold reaches each operand, the others check theirs
    # before any iteration.
    "conjoin": lambda m, a, b, x: m.conjoin([TRUE, x]),
    "conjoin_three": lambda m, a, b, x: m.conjoin([TRUE, a, x]),
    "disjoin_three": lambda m, a, b, x: m.disjoin((FALSE, a, x)),
    "conjoin_iterator": lambda m, a, b, x: m.conjoin(iter([a, x])),
    "param_forall": lambda m, a, b, x: parameterize.parameterized_forall(
        m, x, [2], [1]
    ),
    "param_forall_budget": lambda m, a, b, x: parameterize.parameterized_forall(
        m, x, [2], [1], 0
    ),
    "param_exists_empty": lambda m, a, b, x: parameterize.parameterized_exists(
        m, x, [], []
    ),
    "param_replace": lambda m, a, b, x: parameterize.parameterized_replace(
        m, x, [0], [1], [2]
    ),
    "param_replace_pair": lambda m, a, b, x: parameterize.parameterized_replace_pair(
        m, x, [0], [1], [2], [2]
    ),
    "reduce_support": lambda m, a, b, x: Interval(m, x, x).reduce_support(),
    "iter_models": lambda m, a, b, x: list(iter_models(m, x, [0, 1, 2])),
}


@pytest.mark.parametrize("native", KERNELS)
@pytest.mark.parametrize("stray", ["minus_one", "num_nodes", "two_hundred"])
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_stray_id_raises(native, stray, operation):
    m = BDDManager(3, native=native)
    a, b = m.var(0), m.var(1)
    x = {"minus_one": -1, "num_nodes": m.num_nodes, "two_hundred": 200}[stray]
    nodes, capacities = m.num_nodes, m.cache_capacities()
    with pytest.raises(ValueError, match="not made by this manager"):
        OPERATIONS[operation](m, a, b, x)
    # Rejected before any node was made or any cache allocated, and the
    # manager carries on.
    assert m.num_nodes == nodes
    assert m.cache_capacities() == capacities
    assert m.apply_and(a, m.negate(b)) == m.ite(b, 0, a)


@pytest.fixture
def one_kernel(monkeypatch):
    """Run partition spaces' scratch managers on the kernel of the
    interval's manager: ``one_kernel(False)`` keeps them pure Python."""

    def select(native):
        if not native:
            monkeypatch.setattr(_native, "kernel", lambda: None)

    return select


@pytest.mark.parametrize("native", KERNELS)
@pytest.mark.parametrize("gate", ["or", "and", "xor"])
@pytest.mark.parametrize("given", [True, False], ids=["variables", "support"])
@pytest.mark.parametrize("stray", ["minus_one", "num_nodes", "two_hundred"])
def test_stray_space_bound_raises(one_kernel, native, gate, given, stray):
    """A partition space over an interval whose upper bound is a stray
    id, with the variables given or read off the bounds."""
    one_kernel(native)
    m = BDDManager(3, native=native)
    a = m.var(0)
    x = {"minus_one": -1, "num_nodes": m.num_nodes, "two_hundred": 200}[stray]
    with pytest.raises(ValueError, match="not made by this manager"):
        partition_space(Interval(m, a, x), gate, [0, 1, 2] if given else None)


@pytest.mark.parametrize("native", KERNELS)
@pytest.mark.parametrize("gate", ["or", "and", "xor"])
def test_space_variables_must_cover_the_bounds(one_kernel, native, gate):
    """The variable map of a space lacks a level of its bounds: the
    transfer raises ``KeyError`` naming the level."""
    one_kernel(native)
    m = BDDManager(3, native=native)
    f = m.apply_and(m.var(0), m.var(2))
    with pytest.raises(KeyError) as info:
        partition_space(Interval.exact(m, f), gate, [0, 1])
    assert info.value.args == (2,)


@pytest.mark.parametrize("native", KERNELS)
def test_far_id_in_a_subprocess(native):
    """An id far past the node arrays once crashed the interpreter
    inside the kernel, so this runs in a child process."""
    script = (
        "from repro.bdd.manager import BDDManager\n"
        f"m = BDDManager(3, native={native})\n"
        "a = m.var(0)\n"
        "try:\n"
        "    m.apply_and(a, 10**9)\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "rejected"


@pytest.mark.parametrize("native", KERNELS)
def test_terminals_and_made_nodes_pass(native):
    m = BDDManager(3, native=native)
    a = m.var(0)
    assert m.negate(0) == TRUE
    assert m.apply_and(a, m.num_nodes - 1) == a
    assert quantify.exists(m, a, [0]) == TRUE
