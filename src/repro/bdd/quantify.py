"""Quantification over BDD variables.

Implements existential and universal abstraction plus the fused
``and_exists`` (relational product) used by image computation, where
conjoining and quantifying in one pass avoids building the full
intermediate conjunction.

Results are cached *persistently* on the manager in lossless
open-addressed array tables (they grow by rehash, never evict), keyed by
``node << 31 | cube_id`` over interned
:class:`~repro.bdd.manager.VarCube` objects — repeated ``∃x f`` /
``∀x f`` over the same variable set (the ``ITE(c_x, f, ∀x f)``
parameterization loops, image iterations) hit the cache instead of
re-walking.  The caches are dropped by
:meth:`BDDManager.clear_caches` and surfaced through
``ManagerStats``/``cache_sizes``.  Like the manager's operator cores,
the walks are iterative (explicit stacks), so deep chain-shaped BDDs do
not hit the interpreter recursion limit.
"""

from __future__ import annotations

from typing import Iterable

from repro.bdd.manager import (
    BDDManager,
    FALSE,
    TRUE,
    VarCube,
    _M1,
    _M2,
    _M3,
    _C_AE_MASK,
    _C_EX_MASK,
    _C_FA_MASK,
    _C_NNODES,
    _S_AE_HIT,
    _S_AE_MISS,
    _S_EX_HIT,
    _S_EX_MISS,
    _S_FA_HIT,
    _S_FA_MISS,
    _T_EX,
    _T_FA,
    _bad_node,
)


def exists(
    manager: BDDManager, f: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Existential quantification ``∃ variables . f``."""
    cube = manager.intern_cube(variables)
    var_set = cube.vars
    if not var_set:
        return f
    max_level = cube.max_level
    if not 0 <= f < manager._ctrl[_C_NNODES]:
        raise _bad_node(f)
    if f <= 1 or manager._level[f] > max_level:
        return f
    cid = cube.cube_id
    manager._ensure_quantify_caches()
    sarr = manager._stat_arr
    ctrl = manager._ctrl
    qk = manager._ex_k
    qv = manager._ex_v
    qmask = ctrl[_C_EX_MASK]

    # Entry probe in Python even when the C kernel is available: a warm
    # repeat then costs one probe chain, not an FFI round trip.
    fkey = (f << 31) | cid
    slot = (f * _M1 + cid * _M2) & qmask
    while True:
        k = qk[slot]
        if k == 0:
            break
        if k == fkey:
            sarr[_S_EX_HIT] += 1
            return qv[slot]
        slot = (slot + 1) & qmask
    if manager._lib is not None:
        return manager._native_quantify(0, f, cube)

    def put(key: int, value: int) -> None:
        # Growth swaps the arrays; rebind the probe locals afterwards.
        nonlocal qk, qv, qmask
        manager._q_put(_T_EX, key, value)
        qk = manager._ex_k
        qv = manager._ex_v
        qmask = ctrl[_C_EX_MASK]
    level = manager._level
    lo_arr = manager._lo
    hi_arr = manager._hi
    mk = manager._mk
    apply_or = manager.apply_or
    # Tags: 0 expand; 1 rebuild an unquantified level; 2 lo-cofactor of a
    # quantified level done (early-exit on TRUE, else expand hi); 3 both
    # cofactors of a quantified level done (OR them).
    tasks: list[tuple] = [(0, f)]
    push = tasks.append
    results: list[int] = []
    rpush = results.append
    while tasks:
        frame = tasks.pop()
        tag = frame[0]
        if tag == 0:
            n = frame[1]
            if n <= 1 or level[n] > max_level:
                rpush(n)
                continue
            nkey = (n << 31) | cid
            slot = (n * _M1 + cid * _M2) & qmask
            cached = -1
            while True:
                k = qk[slot]
                if k == 0:
                    break
                if k == nkey:
                    cached = qv[slot]
                    break
                slot = (slot + 1) & qmask
            if cached >= 0:
                sarr[_S_EX_HIT] += 1
                rpush(cached)
                continue
            sarr[_S_EX_MISS] += 1
            lvl = level[n]
            if lvl in var_set:
                push((2, nkey, hi_arr[n]))
                push((0, lo_arr[n]))
            else:
                push((1, nkey, lvl))
                push((0, hi_arr[n]))
                push((0, lo_arr[n]))
        elif tag == 1:
            _, nkey, lvl = frame
            hi = results.pop()
            lo = results[-1]
            node = lo if lo == hi else mk(lvl, lo, hi)
            put(nkey, node)
            results[-1] = node
        elif tag == 2:
            _, nkey, hi_child = frame
            if results[-1] == TRUE:
                put(nkey, TRUE)
                continue
            push((3, nkey))
            push((0, hi_child))
        else:
            nkey = frame[1]
            hi = results.pop()
            node = apply_or(results[-1], hi)
            put(nkey, node)
            results[-1] = node
    return results[0]


def forall(
    manager: BDDManager, f: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Universal quantification ``∀ variables . f``."""
    cube = manager.intern_cube(variables)
    var_set = cube.vars
    if not var_set:
        return f
    max_level = cube.max_level
    if not 0 <= f < manager._ctrl[_C_NNODES]:
        raise _bad_node(f)
    if f <= 1 or manager._level[f] > max_level:
        return f
    cid = cube.cube_id
    manager._ensure_quantify_caches()
    sarr = manager._stat_arr
    ctrl = manager._ctrl
    qk = manager._fa_k
    qv = manager._fa_v
    qmask = ctrl[_C_FA_MASK]

    fkey = (f << 31) | cid
    slot = (f * _M1 + cid * _M2) & qmask
    while True:
        k = qk[slot]
        if k == 0:
            break
        if k == fkey:
            sarr[_S_FA_HIT] += 1
            return qv[slot]
        slot = (slot + 1) & qmask
    if manager._lib is not None:
        return manager._native_quantify(1, f, cube)

    def put(key: int, value: int) -> None:
        nonlocal qk, qv, qmask
        manager._q_put(_T_FA, key, value)
        qk = manager._fa_k
        qv = manager._fa_v
        qmask = ctrl[_C_FA_MASK]
    level = manager._level
    lo_arr = manager._lo
    hi_arr = manager._hi
    mk = manager._mk
    apply_and = manager.apply_and
    tasks: list[tuple] = [(0, f)]
    push = tasks.append
    results: list[int] = []
    rpush = results.append
    while tasks:
        frame = tasks.pop()
        tag = frame[0]
        if tag == 0:
            n = frame[1]
            if n <= 1 or level[n] > max_level:
                rpush(n)
                continue
            nkey = (n << 31) | cid
            slot = (n * _M1 + cid * _M2) & qmask
            cached = -1
            while True:
                k = qk[slot]
                if k == 0:
                    break
                if k == nkey:
                    cached = qv[slot]
                    break
                slot = (slot + 1) & qmask
            if cached >= 0:
                sarr[_S_FA_HIT] += 1
                rpush(cached)
                continue
            sarr[_S_FA_MISS] += 1
            lvl = level[n]
            if lvl in var_set:
                push((2, nkey, hi_arr[n]))
                push((0, lo_arr[n]))
            else:
                push((1, nkey, lvl))
                push((0, hi_arr[n]))
                push((0, lo_arr[n]))
        elif tag == 1:
            _, nkey, lvl = frame
            hi = results.pop()
            lo = results[-1]
            node = lo if lo == hi else mk(lvl, lo, hi)
            put(nkey, node)
            results[-1] = node
        elif tag == 2:
            _, nkey, hi_child = frame
            if results[-1] == FALSE:
                put(nkey, FALSE)
                continue
            push((3, nkey))
            push((0, hi_child))
        else:
            nkey = frame[1]
            hi = results.pop()
            node = apply_and(results[-1], hi)
            put(nkey, node)
            results[-1] = node
    return results[0]


def and_exists(
    manager: BDDManager, f: int, g: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Relational product ``∃ variables . (f & g)`` computed in one pass.

    This is the classic fused operator of symbolic model checking: the
    conjunction is never materialised for subgraphs where quantification
    collapses it first.
    """
    cube = manager.intern_cube(variables)
    var_set = cube.vars
    if not var_set:
        return manager.apply_and(f, g)
    max_level = cube.max_level
    cid = cube.cube_id
    manager._ensure_quantify_caches()
    if manager._lib is not None:
        return manager._native_and_exists(f, g, cube)
    for node in (f, g):
        if not 0 <= node < manager._ctrl[_C_NNODES]:
            raise _bad_node(node)
    sarr = manager._stat_arr
    ctrl = manager._ctrl
    qk1 = manager._ae_k1
    qk2 = manager._ae_k2
    qv = manager._ae_v
    qmask = ctrl[_C_AE_MASK]

    def put(a: int, b: int, value: int) -> None:
        nonlocal qk1, qk2, qv, qmask
        manager._ae_put(a, b, cid, value)
        qk1 = manager._ae_k1
        qk2 = manager._ae_k2
        qv = manager._ae_v
        qmask = ctrl[_C_AE_MASK]

    level = manager._level
    lo_arr = manager._lo
    hi_arr = manager._hi
    mk = manager._mk
    apply_or = manager.apply_or
    apply_and = manager.apply_and
    # Tags: 0 expand a (a, b) product; 1 rebuild an unquantified level;
    # 2 lo-product of a quantified level done (early-exit on TRUE, else
    # expand the hi-product); 3 both products done (OR them).
    tasks: list[tuple] = [(0, f, g)]
    push = tasks.append
    results: list[int] = []
    rpush = results.append
    while tasks:
        frame = tasks.pop()
        tag = frame[0]
        if tag == 0:
            _, a, b = frame
            if a == FALSE or b == FALSE:
                rpush(FALSE)
                continue
            if a == TRUE:
                rpush(TRUE if b == TRUE else exists(manager, b, cube))
                continue
            if b == TRUE:
                rpush(exists(manager, a, cube))
                continue
            la = level[a]
            lb = level[b]
            if la > max_level and lb > max_level:
                # No quantified variable below either operand: the
                # product degenerates to a plain conjunction.
                rpush(apply_and(a, b))
                continue
            if a > b:
                a, b = b, a
                la, lb = lb, la
            key1 = (a << 31) | b
            slot = (a * _M1 + b * _M2 + cid * _M3) & qmask
            cached = -1
            while True:
                k = qk1[slot]
                if k == 0:
                    break
                if k == key1 and qk2[slot] == cid:
                    cached = qv[slot]
                    break
                slot = (slot + 1) & qmask
            if cached >= 0:
                sarr[_S_AE_HIT] += 1
                rpush(cached)
                continue
            sarr[_S_AE_MISS] += 1
            if la < lb:
                top = la
                a0 = lo_arr[a]
                a1 = hi_arr[a]
                b0 = b1 = b
            elif lb < la:
                top = lb
                a0 = a1 = a
                b0 = lo_arr[b]
                b1 = hi_arr[b]
            else:
                top = la
                a0 = lo_arr[a]
                a1 = hi_arr[a]
                b0 = lo_arr[b]
                b1 = hi_arr[b]
            if top in var_set:
                push((2, a, b, a1, b1))
                push((0, a0, b0))
            else:
                push((1, a, b, top))
                push((0, a1, b1))
                push((0, a0, b0))
        elif tag == 1:
            _, a, b, top = frame
            hi = results.pop()
            lo = results[-1]
            node = lo if lo == hi else mk(top, lo, hi)
            put(a, b, node)
            results[-1] = node
        elif tag == 2:
            _, a, b, a1, b1 = frame
            if results[-1] == TRUE:
                put(a, b, TRUE)
                continue
            push((3, a, b))
            push((0, a1, b1))
        else:
            _, a, b = frame
            hi = results.pop()
            node = apply_or(results[-1], hi)
            put(a, b, node)
            results[-1] = node
    return results[0]


def abstract_interval(
    manager: BDDManager, lower: int, upper: int, variables: Iterable[int]
) -> tuple[int, int]:
    """The paper's interval abstraction ``∀x [l, u] = [∃x l, ∀x u]``
    (Section 3.2.1, Example 3.2).

    Returns the (possibly empty) abstracted interval as a bound pair; the
    result is consistent iff ``∃x l <= ∀x u``.
    """
    cube = manager.intern_cube(variables)
    return exists(manager, lower, cube), forall(manager, upper, cube)
