"""Node ids a manager never made are rejected where they reach a core.

Every exported kernel entry checks its node operands against the node
count and the pure-Python cores check at the same point, so on both
kernels a stray id raises ``ValueError`` instead of reading outside the
node arrays (natively) or returning a wrong node."""

import os
import subprocess
import sys

import pytest

from repro.bdd import native as _native
from repro.bdd import quantify
from repro.bdd.builders import count_relation_from
from repro.bdd.compose import transfer_multi, vector_compose
from repro.bdd.manager import BDDManager, TRUE

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
    "transfer_node_map": lambda m, a, b, x: transfer_multi(
        m, [a], BDDManager(3), node_map={a: x}
    ),
    "count_relation_weight": lambda m, a, b, x: count_relation_from(
        m, [a, x], [2]
    ),
}


@pytest.mark.parametrize("native", KERNELS)
@pytest.mark.parametrize("stray", ["minus_one", "num_nodes", "two_hundred"])
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_stray_id_raises(native, stray, operation):
    m = BDDManager(3, native=native)
    a, b = m.var(0), m.var(1)
    x = {"minus_one": -1, "num_nodes": m.num_nodes, "two_hundred": 200}[stray]
    nodes = m.num_nodes
    with pytest.raises(ValueError, match="not made by this manager"):
        OPERATIONS[operation](m, a, b, x)
    # Rejected before any node was made, and the manager carries on.
    assert m.num_nodes == nodes
    assert m.apply_and(a, m.negate(b)) == m.ite(b, 0, a)


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
