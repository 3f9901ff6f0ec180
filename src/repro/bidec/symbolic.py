"""Symbolic (implicit) enumeration of all feasible variable partitions
(Section 3.4) — the paper's core contribution.

For a function over variables ``x``, every candidate support assignment of
the two decomposition components is encoded with decision variables: in
this implementation ``c1_i = 1`` means variable ``x_i`` may appear in the
support of ``g1`` and likewise ``c2_i`` for ``g2``.  (The paper words the
encoding in terms of the *vacuous* sets; ``c = 0`` marks an abstracted
variable in both readings.)  A single universally quantified BDD
``Bi(c1, c2)`` — equation (3.8) for OR, (3.9) for XOR — then characterises
*all* feasible partitions simultaneously, sharing partial computations
across the exponentially many decomposability subproblems.

The computation runs in a dedicated scratch manager whose order interleaves
``c1_i, c2_i, x_i (, y_i)`` per original variable, which keeps the
parameterized intermediate forms compact; the names and indices of that
layout are made once per ``(n, with_y)`` and declared in one call.  A
caller that owns a space's whole life hands the manager back with
:func:`release_space`; the next space is then built in it after a
:meth:`~BDDManager.reset`, which keeps the arrays' capacity but is
otherwise indistinguishable from a fresh manager, so the space's nodes —
and every output byte — are the same.

On native managers four steps each run as one kernel entry: the OR body
of :func:`or_partition_space` (and so of :func:`and_partition_space`),
the XOR body of :func:`xor_partition_space`,
:meth:`PartitionSpace.nontrivial` and :meth:`PartitionSpace.size_pairs`.
Each entry makes the calls of the Python composition it replaces
(``_py_or_body``, ``_py_xor_body``, ``_py_nontrivial``,
``_py_size_pairs``) in the same order, so both make the same nodes with
the same cache traffic; the compositions stay as the pure-Python
fallback and the parity reference.  The spans and the
``bidec.param.*`` records stay here, fed from what the entries report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from repro import obs as _obs
from repro.bdd import builders as _builders
from repro.bdd import count as _count
from repro.bdd import native as _native
from repro.bdd import quantify as _quantify
from repro.bdd.builders import _check_vars
from repro.bdd.compose import bad_var, transfer_multi
from repro.bdd.manager import BDDManager, FALSE, TRUE, _BAD_VAR
from repro.bidec import parameterize as _param
from repro.intervals import Interval


@dataclass
class PartitionSpace:
    """The set of feasible support partitions of one bi-decomposition.

    Wraps the characteristic function ``bi`` living in ``manager`` over
    decision variables ``c1_vars``/``c2_vars`` (one per entry of
    ``variables``, which are the *original*-manager variable indices),
    plus the analysis operations of Section 3.5.2.

    Every one of those operations reads the weight functions
    ``[w_0 … w_n]`` of ``c1`` and of ``c2``.  Each table is built once,
    on first use, and shared with the space :meth:`nontrivial` derives
    from this one.
    """

    gate: str
    manager: BDDManager
    bi: int
    variables: tuple[int, ...]
    c1_vars: tuple[int, ...]
    c2_vars: tuple[int, ...]
    #: Scratch-manager indices of the function variables (internal).
    x_vars: tuple[int, ...] = ()
    #: Full weight table per decision vector (internal, shared).
    weight_tables: dict[tuple[int, ...], list[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def bi_size(self) -> int:
        """dag size of ``bi`` — the "BDD size" column of the Section 3.4.1
        table (walked on each read)."""
        return _count.dag_size(self.manager, self.bi)

    # -- feasibility ----------------------------------------------------

    def is_feasible(self) -> bool:
        """True iff at least one (possibly trivial) partition exists."""
        return self.bi != FALSE

    def weights(self, c_vars: tuple[int, ...]) -> list[int]:
        """The weight table ``[w_0 … w_n]`` of ``c_vars`` (``c1_vars`` or
        ``c2_vars``), built on the first call."""
        table = self.weight_tables.get(c_vars)
        if table is None:
            table = _builders.weight_functions(self.manager, c_vars)
            self.weight_tables[c_vars] = table
        return table

    def nontrivial(self) -> "PartitionSpace":
        """Restrict to non-trivial partitions: each component must drop at
        least one variable (``k_i < n``), ruling out ``g = f`` solutions."""
        if not self.variables:
            return self._with_bi(FALSE)
        manager = self.manager
        if manager._st is None:
            return self._with_bi(self._py_nontrivial())
        return self._with_bi(self._weights_entry(manager._lib.bdd_nontrivial))

    def _py_nontrivial(self) -> int:
        """:meth:`nontrivial`'s ``Bi`` as the Python composition: both
        weight tables, the two disjunctions and the two ANDs."""
        n = len(self.variables)
        manager = self.manager
        constraint = manager.apply_and(
            manager.disjoin(self.weights(self.c1_vars)[:n]),
            manager.disjoin(self.weights(self.c2_vars)[:n]),
        )
        return manager.apply_and(self.bi, constraint)

    def _with_bi(self, bi: int) -> "PartitionSpace":
        return PartitionSpace(
            self.gate,
            self.manager,
            bi,
            self.variables,
            self.c1_vars,
            self.c2_vars,
            self.x_vars,
            self.weight_tables,
        )

    def _weights_entry(self, fn, *args) -> int:
        """Run kernel entry ``fn`` — ``bdd_nontrivial`` or
        ``bdd_size_pairs`` — with ``args`` after the arguments both
        take: ``bi``, each decision vector sorted from the highest index
        down, a buffer per weight table and the bit mask of the tables
        handed over.  A table not built yet is built by the entry where
        :meth:`weights` would build it, then kept.  Returns the entry's
        result."""
        manager = self.manager
        ffi = manager._ffi
        n = len(self.variables)
        vectors = (self.c1_vars, self.c2_vars)
        buffers = []
        built = 0
        for bit, c_vars in enumerate(vectors):
            table = self.weight_tables.get(c_vars)
            if table is None:
                _check_vars(manager, c_vars, "weight variables")
                buffers.append(ffi.new("int64_t[]", n + 1))
            else:
                built |= 1 << bit
                buffers.append(ffi.new("int64_t[]", table))
        walk = manager._walk
        try:
            result = manager._native_walk(
                fn,
                manager._st,
                walk,
                self.bi,
                sorted(self.c1_vars, reverse=True),
                sorted(self.c2_vars, reverse=True),
                n,
                *buffers,
                built,
                *args,
            )
        finally:
            manager._lib.bdd_walk_clear(walk)
        for bit, c_vars in enumerate(vectors):
            if not built >> bit & 1:
                self.weight_tables[c_vars] = ffi.unpack(buffers[bit], n + 1)
        return result

    # -- size-pair analysis (Section 3.5.2) ------------------------------

    def size_pairs(
        self, prune_dominated: bool = True, symbolic_prune: bool = False
    ) -> list[tuple[int, int]]:
        """All feasible support-size pairs ``(k1, k2)``, computed through
        the ``Bi_κ(e1, e2) = ∃c1c2 [Bi · K(c1,e1) · K(c2,e2)]`` form.

        With ``prune_dominated`` the dominated pairs (Section 3.5.2) are
        removed: ``(3, 5)`` is dominated by ``(3, 4)``.  The pruning is
        done on the decoded pairs by default; ``symbolic_prune`` instead
        applies the paper's BDD formulation —
        ``∀ε' [Bi_κ(ε') ⇒ subtract dominated ε]`` via the ``gte``/``equ``
        comparator relations — before decoding (same result, kept for
        fidelity and for the A2 ablation).
        """
        if self.bi == FALSE:
            return []
        with _obs.span("bidec.size_pairs"):
            symbolic = prune_dominated and symbolic_prune
            if self.manager._st is None or symbolic:
                pairs = self._py_size_pairs(symbolic)
            else:
                pairs = self._native_size_pairs()
            pairs.sort()
            if prune_dominated and not symbolic_prune:
                pairs = prune_dominated_pairs(pairs)
        if _obs.enabled():
            _obs.observe(f"bidec.size_pairs.{self.gate}", len(pairs))
        return pairs

    def _py_size_pairs(self, symbolic_prune: bool) -> list[tuple[int, int]]:
        """The feasible pairs as the Python composition: ``Bi_κ`` (after
        the symbolic pruning, with ``symbolic_prune``), then the walk of
        its models, each decoded."""
        bi_kappa, e1, e2 = self._size_pair_relation()
        if symbolic_prune:
            bi_kappa = self._prune_dominated_symbolic(bi_kappa, e1, e2)
        return [
            (_builders.decode_int(e1, model), _builders.decode_int(e2, model))
            for model in _count.iter_models(self.manager, bi_kappa, e1 + e2)
        ]

    def _native_size_pairs(self) -> list[tuple[int, int]]:
        """The feasible pairs as one kernel entry (``bdd_size_pairs``):
        ``Bi_κ`` over counter bits declared, and the cube of the decision
        variables interned, as :meth:`_size_pair_relation` declares and
        interns them, then its models decoded in C.  ``Bi_κ`` has at most
        one model per pair of weights ``0..n``."""
        manager = self.manager
        n = len(self.variables)
        bits_needed = max(1, n.bit_length())
        bits = manager.new_vars(bits_needed) + manager.new_vars(bits_needed)
        cube = manager.intern_cube(self.c1_vars + self.c2_vars)
        cap = (n + 1) ** 2
        out = manager._ffi.new("int64_t[]", 2 * cap)
        count = self._weights_entry(
            manager._lib.bdd_size_pairs,
            bits,
            bits_needed,
            cube.cube_id,
            cube.view,
            len(cube.vars),
            cube.max_level,
            out,
            cap,
        )
        values = manager._ffi.unpack(out, 2 * count)
        return list(zip(values[::2], values[1::2]))

    def _size_pair_relation(self) -> tuple[int, list[int], list[int]]:
        """``Bi_κ`` over freshly allocated counter bits ``(e1, e2)``."""
        n = len(self.variables)
        bits_needed = max(1, n.bit_length())
        e1 = [self.manager.new_var() for _ in range(bits_needed)]
        e2 = [self.manager.new_var() for _ in range(bits_needed)]
        k_rel1 = _builders.count_relation_from(
            self.manager, self.weights(self.c1_vars), e1
        )
        k_rel2 = _builders.count_relation_from(
            self.manager, self.weights(self.c2_vars), e2
        )
        product = self.manager.conjoin([self.bi, k_rel1, k_rel2])
        bi_kappa = _quantify.exists(
            self.manager, product, list(self.c1_vars) + list(self.c2_vars)
        )
        return bi_kappa, e1, e2

    def _prune_dominated_symbolic(
        self, bi_kappa: int, e1: list[int], e2: list[int]
    ) -> int:
        """Section 3.5.2's symbolic subtraction of dominated solutions.

        With ``ε = (e1, e2)`` and primed copies ``ε'``, the dominance
        relation is ``dom(ε, ε') = gte(e1,e1') · gte(e2,e2') ·
        ~(equ(e1,e1') · equ(e2,e2'))`` and the surviving set is
        ``Bi_κ(ε) · ~∃ε' [Bi_κ(ε') · dom(ε, ε')]``.
        """
        manager = self.manager
        e1p = [manager.new_var() for _ in e1]
        e2p = [manager.new_var() for _ in e2]
        from repro.bdd.compose import rename

        primed = rename(
            manager,
            bi_kappa,
            {**dict(zip(e1, e1p)), **dict(zip(e2, e2p))},
        )
        gte1 = _builders.gte(manager, e1, e1p)
        gte2 = _builders.gte(manager, e2, e2p)
        equal = manager.apply_and(
            _builders.equ(manager, e1, e1p), _builders.equ(manager, e2, e2p)
        )
        dominance = manager.apply_and(
            manager.apply_and(gte1, gte2), manager.negate(equal)
        )
        dominated = _quantify.exists(
            manager, manager.apply_and(primed, dominance), e1p + e2p
        )
        return manager.apply_and(bi_kappa, manager.negate(dominated))

    def best_balanced_pair(self) -> Optional[tuple[int, int]]:
        """The pair minimising ``max(k1, k2)`` (ties: smaller total, then
        smaller ``k1``) — the paper's balanced-support objective."""
        pairs = self.size_pairs()
        if not pairs:
            return None
        return min(pairs, key=lambda kk: (max(kk), kk[0] + kk[1], kk[0]))

    def min_total_pair(self) -> Optional[tuple[int, int]]:
        """Alternative objective for the A3 ablation: minimise
        ``k1 + k2`` (ties: smaller max)."""
        pairs = self.size_pairs()
        if not pairs:
            return None
        return min(pairs, key=lambda kk: (kk[0] + kk[1], max(kk), kk[0]))

    def count_choices(self, k1: int, k2: int) -> int:
        """Number of feasible decision assignments achieving support sizes
        exactly ``(k1, k2)`` — the "No. of Choices" column of the
        Section 3.4.1 table."""
        constrained = self._constrain_sizes(k1, k2)
        return _count.sat_count(
            self.manager, constrained, len(self.c1_vars) + len(self.c2_vars)
        )

    def _constrain_sizes(self, k1: int, k2: int) -> int:
        w1 = _builders.weight_at(self.weights(self.c1_vars), k1)
        w2 = _builders.weight_at(self.weights(self.c2_vars), k2)
        return self.manager.conjoin([self.bi, w1, w2])

    def pick_partition(
        self, k1: Optional[int] = None, k2: Optional[int] = None
    ) -> Optional[tuple[set[int], set[int]]]:
        """One concrete feasible partition, as the pair of *original*
        variable-index sets ``(support(g1), support(g2))``.

        With no sizes given, the balanced-best pair is used.
        """
        if k1 is None or k2 is None:
            best = self.best_balanced_pair()
            if best is None:
                return None
            k1, k2 = best
        constrained = self._constrain_sizes(k1, k2)
        model = _count.pick_one(self.manager, constrained)
        if model is None:
            return None
        support1 = {
            orig
            for orig, c in zip(self.variables, self.c1_vars)
            if model.get(c, False)
        }
        support2 = {
            orig
            for orig, c in zip(self.variables, self.c2_vars)
            if model.get(c, False)
        }
        return support1, support2

    def iter_partitions(self, k1: int, k2: int, limit: int = 64):
        """Iterate feasible partitions of the given sizes (up to
        ``limit``), each as ``(support(g1), support(g2))`` original-index
        sets — the "variety of decomposition choices" the synthesis loop
        scans for logic sharing."""
        constrained = self._constrain_sizes(k1, k2)
        c_all = list(self.c1_vars) + list(self.c2_vars)
        for count, model in enumerate(
            _count.iter_models(self.manager, constrained, c_all)
        ):
            if count >= limit:
                return
            support1 = {
                orig
                for orig, c in zip(self.variables, self.c1_vars)
                if model.get(c, False)
            }
            support2 = {
                orig
                for orig, c in zip(self.variables, self.c2_vars)
                if model.get(c, False)
            }
            yield support1, support2


def prune_dominated_pairs(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop pairs dominated per Section 3.5.2: ``p`` dominates ``q`` when
    ``p <= q`` componentwise and ``p != q``."""
    result = [
        p
        for p in pairs
        if not any(
            q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs
        )
    ]
    return sorted(set(result))


def _record_space(space: PartitionSpace) -> None:
    """Metrics for one constructed partition space: per-gate build count,
    ``Bi`` node count, and feasibility (the build *time* lives in the
    ``bidec.build.<gate>`` span recorded around the construction)."""
    if not _obs.enabled():
        return
    gate = space.gate
    _obs.inc(f"bidec.spaces.{gate}")
    _obs.observe(f"bidec.bi_size.{gate}", space.bi_size)
    _obs.observe(f"bidec.space_vars.{gate}", len(space.variables))
    _obs.inc(
        f"bidec.feasible.{gate}"
        if space.bi != FALSE
        else f"bidec.infeasible.{gate}"
    )


# ---------------------------------------------------------------------------
# Scratch-space construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """The variables of a scratch manager over ``n`` function
    variables: ``c1_i, c2_i, x_i (, y_i)`` per variable, in declaration
    order, with their names."""

    names: tuple[str, ...]
    c1_vars: tuple[int, ...]
    c2_vars: tuple[int, ...]
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]


@lru_cache(maxsize=64)
def _layout(num_vars: int, with_y: bool) -> _Layout:
    kinds = ("c1", "c2", "x", "y") if with_y else ("c1", "c2", "x")
    step = len(kinds)
    names = tuple(f"{kind}_{i}" for i in range(num_vars) for kind in kinds)
    columns = [tuple(range(k, step * num_vars, step)) for k in range(step)]
    return _Layout(names, *columns[:3], columns[3] if with_y else ())


#: The scratch manager handed back by :func:`release_space` (at most one),
#: taken and reset by the next :func:`_make_scratch`.  A list, so that
#: taking it is one atomic ``pop``: no two spaces can get the same one.
_spares: list[BDDManager] = []


def release_space(space: PartitionSpace) -> None:
    """Hand ``space``'s scratch manager back for the next space to
    reuse.  Only a caller that owns the space's whole life may do this:
    the next space built resets the manager, so every node of ``space``
    and of the spaces derived from it becomes invalid.  One spare is
    kept; a manager handed back while one waits is left to the
    collector."""
    if not _spares:
        _spares.append(space.manager)


def _make_scratch(num_vars: int, with_y: bool) -> tuple[BDDManager, _Layout]:
    """Dedicated manager with the interleaved order
    ``c1_i, c2_i, x_i (, y_i)`` per original variable, declared in one
    call, and its layout.  The spare is reset and reused when one is
    waiting and runs on the kernel a new manager would get; otherwise a
    new manager is built."""
    try:
        manager = _spares.pop()
    except IndexError:
        manager = None
    if manager is not None and manager.native == (_native.kernel() is not None):
        manager.reset()
    else:
        manager = BDDManager()
    layout = _layout(num_vars, with_y)
    manager.declare_vars(layout.names)
    return manager, layout


def _space_variables(
    interval: Interval, variables: Optional[Sequence[int]]
) -> list[int]:
    """The function variables a space is built over: ``variables``, or
    the interval's sorted support.  A given list must name distinct
    variables of the interval's manager (``ValueError`` otherwise,
    before any scratch manager is taken): the variable map would drop a
    repeated, negative or undeclared entry and leave a decision pair no
    function variable stands behind."""
    if variables is None:
        return sorted(interval.support())
    variables = list(variables)
    _check_vars(interval.manager, variables, "space variables")
    return variables


def _run_body(
    entry, interval: Interval, variables: list[int], sm: BDDManager, x_vars, *args
) -> tuple[int, list[int]]:
    """Run body entry ``entry`` on the scratch manager ``sm``: the
    interval's bounds, the variable map ``variables`` -> ``x_vars``,
    then ``args``.  A bound's level that ``variables`` lacks raises
    ``KeyError``, as the transfer does.  Returns ``Bi`` and the first
    eight of the walk's registers."""
    source = interval.manager
    walk = sm._walk
    try:
        bi = sm._native_walk(
            entry,
            source._st,
            sm._st,
            walk,
            interval.lower,
            interval.upper,
            variables,
            source.num_vars,
            x_vars,
            *args,
        )
        if bi == _BAD_VAR:
            raise bad_var(walk.err, dict(zip(variables, x_vars)))
        return bi, sm._ffi.unpack(walk.reg, 8)
    finally:
        sm._lib.bdd_walk_clear(walk)


def or_partition_space(
    interval: Interval,
    variables: Optional[Sequence[int]] = None,
    node_budget: Optional[int] = None,
) -> PartitionSpace:
    """Equation (3.8): the characteristic function of all feasible OR
    partitions of an (incompletely specified) function.

    ``Bi(c1, c2) = ∀x [ ¬l(x) + U1(x, c1) + U2(x, c2) ]`` where each
    ``U_j`` is the parameterized universal abstraction of the upper bound.

    ``node_budget`` caps the scratch manager's node count during
    parameterization (Section 3.4.1's resource-monitored relaxation):
    variables left unparameterized when the budget runs out have their
    decision variables forced to 1 (kept in both supports), so the space
    becomes a sound *subset* of the full solution set rather than an
    exhaustive one.
    """
    variables = _space_variables(interval, variables)
    with _obs.span("bidec.build.or"):
        space = _or_space(interval, variables, "or", node_budget)
    _record_space(space)
    return space


def _or_space(
    interval: Interval,
    variables: list[int],
    gate: str,
    node_budget: Optional[int] = None,
) -> PartitionSpace:
    """The space of equation (3.8) over ``interval``, named ``gate``:
    ``"or"``, or ``"and"`` when ``interval`` is the complement of the
    one decomposed."""
    sm, layout = _make_scratch(len(variables), with_y=False)
    body = _native_or_body if _native_pair(interval, sm) else _py_or_body
    bi = body(interval, variables, sm, layout, node_budget)
    return PartitionSpace(
        gate=gate,
        manager=sm,
        bi=bi,
        variables=tuple(variables),
        c1_vars=layout.c1_vars,
        c2_vars=layout.c2_vars,
        x_vars=layout.x_vars,
    )


def _native_pair(interval: Interval, sm: BDDManager) -> bool:
    """Whether a body can run as one kernel entry: both the interval's
    manager and the scratch manager are native."""
    return interval.manager._st is not None and sm._st is not None


def _py_or_body(
    interval: Interval,
    variables: list[int],
    sm: BDDManager,
    layout: _Layout,
    node_budget: Optional[int],
) -> int:
    """The OR body as the Python composition: the transfer of
    ``[l, u]``, both parameterized ∀ loops, ``¬l ∨ (U1 ∨ U2)``, ``∀x``
    and the forcing ANDs."""
    var_map = {orig: layout.x_vars[i] for i, orig in enumerate(variables)}
    lower, upper = transfer_multi(
        interval.manager, [interval.lower, interval.upper], sm, var_map
    )
    forced: list[int] = []
    if node_budget is None:
        u1 = _param.parameterized_forall(sm, upper, layout.x_vars, layout.c1_vars)
        u2 = _param.parameterized_forall(sm, upper, layout.x_vars, layout.c2_vars)
    else:
        u1, skipped1 = _param.parameterized_forall(
            sm, upper, layout.x_vars, layout.c1_vars, node_budget
        )
        u2, skipped2 = _param.parameterized_forall(
            sm, upper, layout.x_vars, layout.c2_vars, node_budget
        )
        forced = skipped1 + skipped2
    body = sm.apply_or(sm.negate(lower), sm.apply_or(u1, u2))
    bi = _quantify.forall(sm, body, layout.x_vars)
    for c in forced:
        bi = sm.apply_and(bi, sm.var(c))
    return bi


def _native_or_body(
    interval: Interval,
    variables: list[int],
    sm: BDDManager,
    layout: _Layout,
    node_budget: Optional[int],
) -> int:
    """The OR body as one kernel entry (``bdd_or_space``), with the
    cubes interned in the composition's order first (their ids key the
    quantify caches); each ∀ loop's obs record is made from where the
    entry reports it stopped."""
    x_vars = layout.x_vars
    cids = [sm.intern_cube((x,)).cube_id for x in x_vars]
    cube = sm.intern_cube(x_vars)
    bi, reg = _run_body(
        sm._lib.bdd_or_space,
        interval,
        variables,
        sm,
        x_vars,
        layout.c1_vars,
        layout.c2_vars,
        cids,
        len(x_vars),
        sm.num_vars,
        _param.kernel_budget(node_budget),
        cube.cube_id,
        cube.view,
        cube.max_level,
    )
    # reg[4], reg[6]: where each loop stopped; reg[5], reg[7]: the node
    # count then.
    for c_vars, stop, nodes in (
        (layout.c1_vars, reg[4], reg[5]),
        (layout.c2_vars, reg[6], reg[7]),
    ):
        _param.record_forall(len(x_vars), c_vars[stop:], nodes, node_budget)
    return bi


def and_partition_space(
    interval: Interval, variables: Optional[Sequence[int]] = None
) -> PartitionSpace:
    """AND partitions via the OR space of the complement interval
    (Section 3.3.1 duality); the feasible partitions coincide.  The
    space is built, and recorded, once, as an AND space."""
    variables = _space_variables(interval, variables)
    with _obs.span("bidec.build.and"):
        space = _or_space(interval.complement(), variables, "and")
    _record_space(space)
    return space


def xor_partition_space(
    interval: Interval, variables: Optional[Sequence[int]] = None
) -> PartitionSpace:
    """Equation (3.9) generalised to intervals (Section 3.3.2): the
    characteristic function of all feasible XOR support assignments.

    With ``F^c`` denoting ``F`` with each ``x_i`` replaced by
    ``ITE(c_i, x_i, y_i)``, the body is::

        [ (l ≠ l^{c2}) ∧ (u ≠ u^{c2}) ]  ⇒  [ (u^{c1} ≠ u^{c1·c2}) ∨ (l^{c1} ≠ l^{c1·c2}) ]

    universally quantified over ``x`` and ``y``.  For a completely
    specified function (``l = u = f``) this is exactly (3.9).  Note the
    role of the decision variables: ``c2_i = 0`` marks ``x_i`` exclusive
    to ``g1``, so the substitution testing "flip a variable g2 cannot see"
    uses ``c2`` — with the support-indicator convention ``c1`` still
    counts ``|support(g1)|``.
    """
    variables = _space_variables(interval, variables)
    with _obs.span("bidec.build.xor"):
        sm, layout = _make_scratch(len(variables), with_y=True)
        body = _native_xor_body if _native_pair(interval, sm) else _py_xor_body
        bi = body(interval, variables, sm, layout)
        space = PartitionSpace(
            gate="xor",
            manager=sm,
            bi=bi,
            variables=tuple(variables),
            c1_vars=layout.c1_vars,
            c2_vars=layout.c2_vars,
            x_vars=layout.x_vars,
        )
    _record_space(space)
    return space


def _py_xor_body(
    interval: Interval, variables: list[int], sm: BDDManager, layout: _Layout
) -> int:
    """The XOR body as the Python composition: the transfer of
    ``[l, u]``, the six parameterized replacements, the XOR/AND/OR/
    ``implies`` and ``∀(x ∪ y)``."""
    var_map = {orig: layout.x_vars[i] for i, orig in enumerate(variables)}
    lower, upper = transfer_multi(
        interval.manager, [interval.lower, interval.upper], sm, var_map
    )
    xs, ys = layout.x_vars, layout.y_vars
    c1, c2 = layout.c1_vars, layout.c2_vars

    # Flip variables exclusive to g1 (not in support(g2)): substitution
    # keyed on c2.
    l_excl1 = _param.parameterized_replace(sm, lower, xs, ys, c2)
    u_excl1 = _param.parameterized_replace(sm, upper, xs, ys, c2)
    must_differ = sm.apply_and(
        sm.apply_xor(lower, l_excl1), sm.apply_xor(upper, u_excl1)
    )
    # Flip variables exclusive to g2 (keyed on c1), and variables
    # exclusive to either side (keyed on c1·c2).
    l_excl2 = _param.parameterized_replace(sm, lower, xs, ys, c1)
    u_excl2 = _param.parameterized_replace(sm, upper, xs, ys, c1)
    l_both = _param.parameterized_replace_pair(sm, lower, xs, ys, c1, c2)
    u_both = _param.parameterized_replace_pair(sm, upper, xs, ys, c1, c2)
    may_differ = sm.apply_or(
        sm.apply_xor(u_excl2, u_both), sm.apply_xor(l_excl2, l_both)
    )
    condition = sm.implies(must_differ, may_differ)
    return _quantify.forall(sm, condition, xs + ys)


def _native_xor_body(
    interval: Interval, variables: list[int], sm: BDDManager, layout: _Layout
) -> int:
    """The XOR body as one kernel entry (``bdd_xor_space``), with the
    cube of the xs and ys interned first."""
    xs, ys = layout.x_vars, layout.y_vars
    cube = sm.intern_cube(xs + ys)
    bi, _ = _run_body(
        sm._lib.bdd_xor_space,
        interval,
        variables,
        sm,
        xs,
        ys,
        layout.c1_vars,
        layout.c2_vars,
        len(xs),
        sm.num_vars,
        cube.cube_id,
        cube.view,
        len(cube.vars),
        cube.max_level,
    )
    return bi


def partition_space(
    interval: Interval, gate: str, variables: Optional[Sequence[int]] = None
) -> PartitionSpace:
    """Dispatch on gate type: ``"or"``, ``"and"`` or ``"xor"``."""
    if gate == "or":
        return or_partition_space(interval, variables)
    if gate == "and":
        return and_partition_space(interval, variables)
    if gate == "xor":
        return xor_partition_space(interval, variables)
    raise ValueError(f"unknown decomposition gate: {gate!r}")
