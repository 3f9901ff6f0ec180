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
parameterized intermediate forms compact.  A caller that owns a space's
whole life hands the manager back with :func:`release_space`; the next
space is then built in it after a :meth:`~BDDManager.reset`, which keeps
the arrays' capacity but is otherwise indistinguishable from a fresh
manager, so the space's nodes — and every output byte — are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro import obs as _obs
from repro.bdd import builders as _builders
from repro.bdd import count as _count
from repro.bdd import native as _native
from repro.bdd import quantify as _quantify
from repro.bdd.compose import transfer_multi
from repro.bdd.manager import BDDManager, FALSE, TRUE
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
    on first use, and shared with every space derived from this one
    (:meth:`nontrivial`, the AND space over its inner OR space).
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
        n = len(self.variables)
        if n == 0:
            return self._with_bi(FALSE)
        manager = self.manager
        constraint = manager.apply_and(
            manager.disjoin(self.weights(self.c1_vars)[:n]),
            manager.disjoin(self.weights(self.c2_vars)[:n]),
        )
        return self._with_bi(manager.apply_and(self.bi, constraint))

    def _with_bi(self, bi: int) -> "PartitionSpace":
        return replace(self, bi=bi)

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
            bi_kappa, e1, e2 = self._size_pair_relation()
            if prune_dominated and symbolic_prune:
                bi_kappa = self._prune_dominated_symbolic(bi_kappa, e1, e2)
            pairs = sorted(
                (
                    _builders.decode_int(e1, model),
                    _builders.decode_int(e2, model),
                )
                for model in _count.iter_models(self.manager, bi_kappa, e1 + e2)
            )
            if prune_dominated and not symbolic_prune:
                pairs = prune_dominated_pairs(pairs)
        if _obs.enabled():
            _obs.observe(f"bidec.size_pairs.{self.gate}", len(pairs))
        return pairs

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


@dataclass
class _Scratch:
    manager: BDDManager
    x_vars: list[int]
    y_vars: list[int]
    c1_vars: list[int]
    c2_vars: list[int]


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


def _make_scratch(num_vars: int, with_y: bool) -> _Scratch:
    """Dedicated manager with the interleaved order
    ``c1_i, c2_i, x_i (, y_i)`` per original variable.  The spare is
    reset and reused when one is waiting and runs on the kernel a new
    manager would get; otherwise a new manager is built."""
    try:
        manager = _spares.pop()
    except IndexError:
        manager = None
    if manager is not None and manager.native == (_native.kernel() is not None):
        manager.reset()
    else:
        manager = BDDManager()
    x_vars: list[int] = []
    y_vars: list[int] = []
    c1_vars: list[int] = []
    c2_vars: list[int] = []
    for i in range(num_vars):
        c1_vars.append(manager.new_var(f"c1_{i}"))
        c2_vars.append(manager.new_var(f"c2_{i}"))
        x_vars.append(manager.new_var(f"x_{i}"))
        if with_y:
            y_vars.append(manager.new_var(f"y_{i}"))
    return _Scratch(manager, x_vars, y_vars, c1_vars, c2_vars)


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
    if variables is None:
        variables = sorted(interval.support())
    variables = list(variables)
    with _obs.span("bidec.build.or"):
        scratch = _make_scratch(len(variables), with_y=False)
        var_map = {orig: scratch.x_vars[i] for i, orig in enumerate(variables)}
        sm = scratch.manager
        lower, upper = transfer_multi(
            interval.manager, [interval.lower, interval.upper], sm, var_map
        )
        forced: list[int] = []
        if node_budget is None:
            u1 = _param.parameterized_forall(sm, upper, scratch.x_vars, scratch.c1_vars)
            u2 = _param.parameterized_forall(sm, upper, scratch.x_vars, scratch.c2_vars)
        else:
            u1, skipped1 = _param.parameterized_forall(
                sm, upper, scratch.x_vars, scratch.c1_vars, node_budget
            )
            u2, skipped2 = _param.parameterized_forall(
                sm, upper, scratch.x_vars, scratch.c2_vars, node_budget
            )
            forced = skipped1 + skipped2
        body = sm.apply_or(sm.negate(lower), sm.apply_or(u1, u2))
        bi = _quantify.forall(sm, body, scratch.x_vars)
        for c in forced:
            bi = sm.apply_and(bi, sm.var(c))
        space = PartitionSpace(
            gate="or",
            manager=sm,
            bi=bi,
            variables=tuple(variables),
            c1_vars=tuple(scratch.c1_vars),
            c2_vars=tuple(scratch.c2_vars),
            x_vars=tuple(scratch.x_vars),
        )
    _record_space(space)
    return space


def and_partition_space(
    interval: Interval, variables: Optional[Sequence[int]] = None
) -> PartitionSpace:
    """AND partitions via the OR space of the complement interval
    (Section 3.3.1 duality); the feasible partitions coincide."""
    with _obs.span("bidec.build.and"):
        inner = or_partition_space(interval.complement(), variables)
        space = replace(inner, gate="and")
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
    if variables is None:
        variables = sorted(interval.support())
    variables = list(variables)
    with _obs.span("bidec.build.xor"):
        scratch = _make_scratch(len(variables), with_y=True)
        var_map = {orig: scratch.x_vars[i] for i, orig in enumerate(variables)}
        sm = scratch.manager
        lower, upper = transfer_multi(
            interval.manager, [interval.lower, interval.upper], sm, var_map
        )
        xs, ys = scratch.x_vars, scratch.y_vars
        c1, c2 = scratch.c1_vars, scratch.c2_vars

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
        bi = _quantify.forall(sm, condition, xs + ys)
        space = PartitionSpace(
            gate="xor",
            manager=sm,
            bi=bi,
            variables=tuple(variables),
            c1_vars=tuple(scratch.c1_vars),
            c2_vars=tuple(scratch.c2_vars),
            x_vars=tuple(scratch.x_vars),
        )
    _record_space(space)
    return space


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
