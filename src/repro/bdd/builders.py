"""Builders for structured BDDs: symmetric (weight) functions and
integer-encoding relations.

These are the combinatorial-set helpers of Section 3.5.2: the weight
functions ``w_k(c)`` that constrain how many decision variables are set,
the encoding relation ``K(c, e)`` between decision assignments and binary
counters, and the ``gte``/``equ`` comparators used by dominance pruning.

On a native manager :func:`weight_functions` and
:func:`count_relation_from` run as kernel walks that make their nodes in
the order of the Python walks below (``_py_weight_functions``,
``_py_count_relation_from``), which stay as the pure-Python fallback and
the parity reference.  Both kernels read the variable lists only after
:func:`_check_vars` has accepted them.
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDDManager, FALSE, TRUE, _bad_node


def _check_vars(manager: BDDManager, variables: Sequence[int], what: str) -> None:
    """Reject duplicate or undeclared variables (``ValueError``), as
    :meth:`BDDManager.var` and :meth:`BDDManager.cube` reject undeclared
    ones: a duplicate would break the variable order of a weight
    function or let the later polarity of a counter bit win."""
    if not variables:
        return
    if min(variables) < 0 or max(variables) >= manager.num_vars:
        raise ValueError(f"{what} {list(variables)} include an undeclared variable")
    if len(set(variables)) != len(variables):
        raise ValueError(f"{what} {list(variables)} repeat a variable")


def exactly_k(manager: BDDManager, variables: Sequence[int], k: int) -> int:
    """Weight function ``w_k``: true iff exactly ``k`` of ``variables``
    are 1.  Totally symmetric, hence an ``O(n*k)``-node BDD."""
    if not 0 <= k <= len(variables):
        return FALSE
    return weight_functions(manager, variables, k)[k]


def weight_at(weights: Sequence[int], k: int) -> int:
    """``w_k`` read off a full table ``[w_0, ..., w_n]`` from
    :func:`weight_functions`: FALSE for a weight outside ``0..n``."""
    return weights[k] if 0 <= k < len(weights) else FALSE


def weight_functions(
    manager: BDDManager, variables: Sequence[int], max_weight: int | None = None
) -> list[int]:
    """All weight functions ``[w_0, w_1, ..., w_m]`` over ``variables``.

    Builds the whole family in one dynamic-programming sweep (the BDDs
    share almost all of their nodes).  ``max_weight`` defaults to
    ``len(variables)``.  ``variables`` must be distinct declared
    variables (``ValueError`` otherwise).
    """
    _check_vars(manager, variables, "weight variables")
    n = len(variables)
    if max_weight is None:
        max_weight = n
    max_weight = min(max_weight, n)
    # Process variables bottom-up (highest level first) so node levels
    # are consistent.
    ordered = sorted(variables, reverse=True)
    if manager._st is None or max_weight < 0:
        return _py_weight_functions(manager, ordered, max_weight)
    out = manager._ffi.new("int64_t[]", max_weight + 1)
    manager._native_walk(
        manager._lib.bdd_weight_functions, manager._st, ordered, n, max_weight, out
    )
    return manager._ffi.unpack(out, max_weight + 1)


def _py_weight_functions(
    manager: BDDManager, ordered: Sequence[int], max_weight: int
) -> list[int]:
    """:func:`weight_functions` over checked variables sorted from the
    highest index down, one node per weight ``j = 0..max_weight`` and
    variable.  ``counts[j]`` is the BDD over the already-processed
    suffix that exactly ``j`` of those variables are 1."""
    counts = [TRUE] + [FALSE] * max_weight
    for var in ordered:
        new_counts = []
        for j in range(max_weight + 1):
            take = counts[j - 1] if j > 0 else FALSE
            skip = counts[j]
            new_counts.append(manager._mk(var, skip, take) if take != skip else take)
        counts = new_counts
    return counts


def at_most_k(manager: BDDManager, variables: Sequence[int], k: int) -> int:
    """Threshold function: true iff at most ``k`` of ``variables`` are 1."""
    weights = weight_functions(manager, variables, min(k, len(variables)))
    return manager.disjoin(weights[: k + 1])


def encode_int(manager: BDDManager, bits: Sequence[int], value: int) -> int:
    """Minterm ``κ_value(e)``: the cube asserting that the little-endian
    binary counter on ``bits`` (distinct declared variables) equals the
    non-negative ``value``."""
    if not 0 <= value < (1 << len(bits)):
        raise ValueError(f"{value} does not fit in {len(bits)} unsigned bits")
    _check_vars(manager, bits, "counter bits")
    return manager.cube(
        {bit: bool((value >> i) & 1) for i, bit in enumerate(bits)}
    )


def count_relation(
    manager: BDDManager, variables: Sequence[int], bits: Sequence[int]
) -> int:
    """The paper's ``K(c, e) = Σ_i w_i(c) · κ_i(e)`` — relates an
    assignment to the decision variables ``c`` to the binary encoding of
    its weight on the counter bits ``e`` (Section 3.5.2)."""
    return count_relation_from(manager, weight_functions(manager, variables), bits)


def count_relation_from(
    manager: BDDManager, weights: Sequence[int], bits: Sequence[int]
) -> int:
    """:func:`count_relation` over an already built full weight table
    ``[w_0, ..., w_n]`` of the decision variables."""
    n = len(weights) - 1
    if (1 << len(bits)) <= n:
        raise ValueError(f"{len(bits)} bits cannot encode weights up to {n}")
    _check_vars(manager, bits, "counter bits")
    if manager._st is None:
        return _py_count_relation_from(manager, weights, bits)
    walk = manager._walk
    try:
        return manager._native_walk(
            manager._lib.bdd_count_relation,
            manager._st,
            walk,
            list(weights),
            len(weights),
            list(bits),
            len(bits),
        )
    finally:
        manager._lib.bdd_walk_clear(walk)


def _py_count_relation_from(
    manager: BDDManager, weights: Sequence[int], bits: Sequence[int]
) -> int:
    """:func:`count_relation_from` over checked ``bits``: for each weight
    that is not FALSE, the value's cube, its AND with the weight and the
    OR into the relation."""
    for weight in weights:
        if not 0 <= weight < manager.num_nodes:
            raise _bad_node(weight)
    relation = FALSE
    for value, weight in enumerate(weights):
        if weight == FALSE:
            continue
        relation = manager.apply_or(
            relation, manager.apply_and(weight, encode_int(manager, bits, value))
        )
    return relation


def equ(manager: BDDManager, a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
    """Equality relation between two equally wide binary encodings."""
    if len(a_bits) != len(b_bits):
        raise ValueError("encodings must have equal width")
    return manager.conjoin(
        manager.apply_xnor(manager.var(a), manager.var(b))
        for a, b in zip(a_bits, b_bits)
    )


def gte(manager: BDDManager, a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
    """Greater-than-or-equal relation ``a >= b`` between two little-endian
    binary encodings (used by the dominance relation of Section 3.5.2)."""
    if len(a_bits) != len(b_bits):
        raise ValueError("encodings must have equal width")
    # Build LSB-to-MSB: result_so_far holds "a_suffix >= b_suffix".
    result = TRUE
    for a, b in zip(a_bits, b_bits):
        va, vb = manager.var(a), manager.var(b)
        a_gt_b = manager.apply_and(va, manager.negate(vb))
        a_eq_b = manager.apply_xnor(va, vb)
        result = manager.apply_or(a_gt_b, manager.apply_and(a_eq_b, result))
    return result


def decode_int(bits: Sequence[int], assignment: dict[int, bool]) -> int:
    """Inverse of :func:`encode_int` for a model returned by the counting
    helpers: read the little-endian integer off ``assignment``."""
    value = 0
    for i, bit in enumerate(bits):
        if assignment.get(bit, False):
            value |= 1 << i
    return value
