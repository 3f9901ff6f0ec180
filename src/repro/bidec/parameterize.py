"""Parameterized abstraction constructs (Sections 3.2.2 and 3.4).

Quantification decisions are encoded with auxiliary decision variables
``c``: the ITE operator selects between "variable kept" and "variable
abstracted" per the value of its ``c`` variable, so a *single* BDD encodes
the effect of abstracting *every* variable subset at once.

On a native manager each loop below runs as a one-step program of
:mod:`repro.bdd.program` (``param_exists``, ``param_forall``,
``replace``, ``replace_pair``) whose kernel loop makes the calls of the
Python loop (``_py_parameterized_quantify``,
``_py_parameterized_replace``) in the same order, so both kernels make
the same nodes; the Python loops stay as the pure-Python fallback and the
parity reference.  Both read the variable lists only after
:func:`_check_loop` has accepted them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs as _obs
from repro.bdd import program as _program
from repro.bdd import quantify as _quantify
from repro.bdd.builders import _check_vars
from repro.bdd.compose import vector_compose
from repro.bdd.manager import BDDManager, _bad_node
from repro.bdd.program import Program

_EXISTS, _FORALL = 0, 1

#: The kernel's "no node budget": no node count exceeds it.
_NO_BUDGET = (1 << 63) - 1

#: Per quantifier, ``f`` (register 0) parameterized over the xs and cs
#: of slots 0 and 1 under the budget in register 1: ``U``, the index of
#: the first decision variable the budget skipped and the node count
#: then (registers 2-4).
_QUANTIFY = {
    _EXISTS: Program((("param_exists", 2, 0, 0, 1, 1),), 5, (0, 1)),
    _FORALL: Program((("param_forall", 2, 0, 0, 1, 1),), 5, (0, 1)),
}

#: ``f`` (register 0) with the xs of slot 0 replaced under the ys and cs
#: of the next slots, into register 1.
_REPLACE = Program((("replace", 1, 0, 0, 1, 2),), 2, (0,))
_REPLACE_PAIR = Program((("replace_pair", 1, 0, 0, 1, 2, 3),), 2, (0,))


def parameterized_forall(
    manager: BDDManager,
    f: int,
    x_vars: Sequence[int],
    c_vars: Sequence[int],
    node_budget: int | None = None,
) -> tuple[int, list[int]] | int:
    """The Section 3.4.1 iteration::

        U <- u
        for each x in x_vars:  U <- ITE(c_x, U, ∀x U)

    Result ``U(c, x)`` equals ``f`` universally abstracted of exactly the
    variables whose decision variable is 0.

    ``node_budget`` implements the paper's resource-monitored variant
    ("specialized BDD-based abstraction techniques that monitor resource
    consumption could be deployed to produce solution subsets"): once the
    manager holds more than the budgeted node count, the remaining
    variables are left unparameterized.  With a budget the return value
    is ``(U, skipped_c_vars)`` — the caller must force the skipped
    decision variables to 1 (variable kept) to stay sound; without a
    budget only ``U`` is returned.
    """
    if len(x_vars) != len(c_vars):
        raise ValueError("need one decision variable per abstracted variable")
    result, skipped = _parameterized_quantify(
        manager, _FORALL, f, x_vars, c_vars, node_budget
    )
    record_forall(len(x_vars), skipped, manager.num_nodes, node_budget)
    if node_budget is None:
        return result
    return result, skipped


def record_forall(
    count: int, skipped: Sequence[int], nodes: int, node_budget: int | None
) -> None:
    """The obs record of one :func:`parameterized_forall` loop over
    ``count`` variables that left ``skipped`` unparameterized, with
    ``nodes`` in the manager when it ended."""
    if _obs.enabled():
        _obs.inc("bidec.param.forall_vars", count - len(skipped))
        if skipped:
            # Resource-monitored relaxation kicked in: these variables
            # stay pinned to "kept in both supports".
            _obs.inc("bidec.param.skipped_vars", len(skipped))
            _obs.event(
                "bidec.param.budget_hit",
                skipped=len(skipped),
                nodes=nodes,
                budget=node_budget,
            )


def kernel_budget(node_budget: int | None) -> int:
    """``node_budget`` as the kernel loops take it: an ``int64_t``, with
    no budget as one no node count exceeds."""
    budget = _NO_BUDGET if node_budget is None else node_budget
    return max(-_NO_BUDGET, min(budget, _NO_BUDGET))


def parameterized_exists(
    manager: BDDManager, f: int, x_vars: Sequence[int], c_vars: Sequence[int]
) -> int:
    """Existential dual of :func:`parameterized_forall`:
    ``L <- ITE(c_x, L, ∃x L)`` (Example 3.3 applies this to interval lower
    bounds)."""
    if len(x_vars) != len(c_vars):
        raise ValueError("need one decision variable per abstracted variable")
    result, _ = _parameterized_quantify(manager, _EXISTS, f, x_vars, c_vars, None)
    _obs.inc("bidec.param.exists_vars", len(x_vars))
    return result


def _check_loop(manager: BDDManager, f: int, *variable_lists: Sequence[int]) -> None:
    """The checks both kernels share before a loop reads its lists:
    every variable declared and ``f`` a node of ``manager``
    (``ValueError`` otherwise)."""
    for variables in variable_lists:
        _check_vars(manager, variables, "loop variables", distinct=False)
    if not 0 <= f < manager.num_nodes:
        raise _bad_node(f)


def _parameterized_quantify(
    manager: BDDManager,
    op: int,
    f: int,
    x_vars: Sequence[int],
    c_vars: Sequence[int],
    node_budget: Optional[int],
) -> tuple[int, list[int]]:
    """``U <- ITE(c_x, U, Q x U)`` over the variables, ``Q`` being ∃ (op
    0) or ∀ (op 1); returns ``U`` and the decision variables a node
    budget skipped."""
    _check_loop(manager, f, x_vars, c_vars)
    if manager._st is None:
        return _py_parameterized_quantify(manager, op, f, x_vars, c_vars, node_budget)
    _, regs = _program.run(
        manager, _QUANTIFY[op], (f, kernel_budget(node_budget)), (x_vars, c_vars)
    )
    return regs[2], list(c_vars[regs[3] :])


def _py_parameterized_quantify(
    manager: BDDManager,
    op: int,
    f: int,
    x_vars: Sequence[int],
    c_vars: Sequence[int],
    node_budget: Optional[int],
) -> tuple[int, list[int]]:
    """:func:`_parameterized_quantify` as a Python loop, one quantifier
    and one ``ite`` call per variable."""
    quantify = _quantify.exists if op == _EXISTS else _quantify.forall
    result = f
    skipped: list[int] = []
    # Intern the single-variable cubes up front: every ``Q x`` in the loop
    # then keys the manager's persistent quantification cache on a stable
    # cube id, so re-parameterizing the same function (or overlapping
    # subgraphs of different functions) hits instead of re-walking.
    cubes = [manager.intern_cube((x,)) for x in x_vars]
    for x_cube, c in zip(cubes, c_vars):
        if node_budget is not None and manager.num_nodes > node_budget:
            skipped.append(c)
            continue
        abstracted = quantify(manager, result, x_cube)
        result = manager.ite(manager.var(c), result, abstracted)
    return result, skipped


def parameterized_replace(
    manager: BDDManager,
    f: int,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    c_vars: Sequence[int],
) -> int:
    """Section 3.4.2 substitution: replace each ``x_i`` of ``f`` with
    ``ITE(c_i, x_i, y_i)`` — the variable is swapped for its primed copy
    exactly when its decision variable is 0."""
    if not len(x_vars) == len(y_vars) == len(c_vars):
        raise ValueError("x, y and c variable lists must align")
    return _parameterized_replace(manager, f, x_vars, y_vars, c_vars, None)


def parameterized_replace_pair(
    manager: BDDManager,
    f: int,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    c1_vars: Sequence[int],
    c2_vars: Sequence[int],
) -> int:
    """Joint substitution for the last component of (3.9): each ``x_i``
    becomes ``ITE(c1_i · c2_i, x_i, y_i)`` — swapped when *either*
    decision variable marks it exclusive."""
    if not len(x_vars) == len(y_vars) == len(c1_vars) == len(c2_vars):
        raise ValueError("x, y, c1 and c2 variable lists must align")
    return _parameterized_replace(manager, f, x_vars, y_vars, c1_vars, c2_vars)


def _parameterized_replace(
    manager: BDDManager,
    f: int,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    c1_vars: Sequence[int],
    c2_vars: Optional[Sequence[int]],
) -> int:
    """``f`` with each ``x_i`` replaced by ``ITE(c_i, x_i, y_i)``, where
    ``c_i`` is ``c1_i``, or ``c1_i · c2_i`` when ``c2_vars`` is given."""
    _check_loop(manager, f, x_vars, y_vars, c1_vars, c2_vars or ())
    if not x_vars:
        return f
    if manager._st is None:
        return _py_parameterized_replace(manager, f, x_vars, y_vars, c1_vars, c2_vars)
    if c2_vars is None:
        program, vectors = _REPLACE, (x_vars, y_vars, c1_vars)
    else:
        program, vectors = _REPLACE_PAIR, (x_vars, y_vars, c1_vars, c2_vars)
    return _program.run(manager, program, (f,), vectors)[1][1]


def _py_parameterized_replace(
    manager: BDDManager,
    f: int,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    c1_vars: Sequence[int],
    c2_vars: Optional[Sequence[int]],
) -> int:
    """:func:`_parameterized_replace` as a Python loop: the substitution
    built one ``ite`` per variable, then :func:`vector_compose`."""
    substitution = {}
    if c2_vars is None:
        for x, y, c in zip(x_vars, y_vars, c1_vars):
            substitution[x] = manager.ite(manager.var(c), manager.var(x), manager.var(y))
    else:
        for x, y, c1, c2 in zip(x_vars, y_vars, c1_vars, c2_vars):
            both = manager.apply_and(manager.var(c1), manager.var(c2))
            substitution[x] = manager.ite(both, manager.var(x), manager.var(y))
    return vector_compose(manager, f, substitution)
