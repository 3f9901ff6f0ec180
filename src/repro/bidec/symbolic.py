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

Each step that builds or reads a space on its scratch manager is a step
program (:mod:`repro.bdd.program`) declared once here: the OR body of
:func:`or_partition_space` (and so of :func:`and_partition_space`), the
XOR body of :func:`xor_partition_space`, and the analyses behind
:meth:`PartitionSpace.nontrivial` and :meth:`PartitionSpace.size_pairs`
(per layout size and set of weight tables the space already holds).  A
run is one kernel call on native managers and the same public calls on
pure-Python ones.  The spans and the ``bidec.param.*`` records stay here,
fed from the registers the programs leave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from repro import obs as _obs
from repro.bdd import builders as _builders
from repro.bdd import count as _count
from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd import quantify as _quantify
from repro.bdd.builders import _check_vars
from repro.bdd.manager import BDDManager, FALSE
from repro.bdd.program import Program
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
        regs = self._analyse("nontrivial")
        return self._with_bi(regs[_analysis_out(len(self.variables))])

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

    def _analyse(self, kind: str, vectors: Sequence[Sequence[int]] = ()) -> list[int]:
        """Run the ``kind`` analysis program (see :func:`_analysis`) on
        ``Bi``, the weight tables the space holds and ``vectors`` after
        the decision vectors; a weight table the program builds is kept.
        Returns the registers."""
        n = len(self.variables)
        tables = self.weight_tables
        c1, c2 = self.c1_vars, self.c2_vars
        w1, w2 = tables.get(c1), tables.get(c2)
        inputs = [self.bi]
        inputs += w1 or ()
        inputs += w2 or ()
        program = _analysis(n, (w1 is not None, w2 is not None), kind)
        _, regs = _program.run(self.manager, program, inputs, (c1, c2, *vectors))
        if w1 is None:
            tables[c1] = regs[3 : n + 4]
        if w2 is None:
            tables[c2] = regs[n + 4 : 2 * n + 5]
        return regs

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
            manager = self.manager
            n = len(self.variables)
            bits_needed = max(1, n.bit_length())
            e1 = manager.new_vars(bits_needed)
            e2 = manager.new_vars(bits_needed)
            symbolic = prune_dominated and symbolic_prune
            regs = self._analyse(
                "kappa" if symbolic else "pairs",
                (e1, e2, self.c1_vars + self.c2_vars, e1 + e2),
            )
            at = _analysis_out(n)
            if symbolic:
                bi_kappa = self._prune_dominated_symbolic(regs[at], e1, e2)
                pairs = [
                    (_builders.decode_int(e1, model), _builders.decode_int(e2, model))
                    for model in _count.iter_models(manager, bi_kappa, e1 + e2)
                ]
            else:
                flat = regs[at + 2 : at + 2 + 2 * regs[at + 1]]
                pairs = list(zip(flat[::2], flat[1::2]))
            pairs.sort()
            if prune_dominated and not symbolic_prune:
                pairs = prune_dominated_pairs(pairs)
        if _obs.enabled():
            _obs.observe(f"bidec.size_pairs.{self.gate}", len(pairs))
        return pairs

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


#: Equation (3.8)'s body over the scratch layout.  Inputs: ``[l, u]`` in
#: the interval's manager and the node budget; vectors: the function
#: variables, the xs they map to, ``c1`` and ``c2``.  The transfer of
#: ``[l, u]`` (registers 3, 4); ``U1`` and ``U2``, each with where its loop
#: stopped and the node count then (5-7, 8-10); ``¬l ∨ (U1 ∨ U2)`` (13);
#: ``∀x`` (14); then the literal of each skipped decision variable ANDed
#: in (16).
_OR_BODY = Program(
    (
        ("transfer", 3, 0, 2, 0, 1),
        ("param_forall", 5, 4, 1, 2, 2),
        ("param_forall", 8, 4, 1, 3, 2),
        ("not", 11, 3),
        ("or", 12, 5, 8),
        ("or", 13, 11, 12),
        ("forall", 14, 13, 1),
        ("force", 15, 14, 2, 6),
        ("force", 16, 15, 3, 9),
    ),
    nregs=17,
    inputs=(0, 1, 2),
)


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
    return PartitionSpace(
        gate=gate,
        manager=sm,
        bi=_or_body(interval, variables, sm, layout, node_budget),
        variables=tuple(variables),
        c1_vars=layout.c1_vars,
        c2_vars=layout.c2_vars,
        x_vars=layout.x_vars,
    )


def _or_body(
    interval: Interval,
    variables: list[int],
    sm: BDDManager,
    layout: _Layout,
    node_budget: Optional[int],
) -> int:
    """``Bi`` of equation (3.8) on the scratch manager ``sm``: one run of
    :data:`_OR_BODY`.  Each ∀ loop's obs record is made from where the
    program reports it stopped and the node count then."""
    _, regs = _program.run(
        sm,
        _OR_BODY,
        (interval.lower, interval.upper, _param.kernel_budget(node_budget)),
        (variables, layout.x_vars, layout.c1_vars, layout.c2_vars),
        interval.manager,
    )
    for c_vars, stop, nodes in (
        (layout.c1_vars, regs[6], regs[7]),
        (layout.c2_vars, regs[9], regs[10]),
    ):
        _param.record_forall(len(variables), c_vars[stop:], nodes, node_budget)
    return regs[16]


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
        space = PartitionSpace(
            gate="xor",
            manager=sm,
            bi=_xor_body(interval, variables, sm, layout),
            variables=tuple(variables),
            c1_vars=layout.c1_vars,
            c2_vars=layout.c2_vars,
            x_vars=layout.x_vars,
        )
    _record_space(space)
    return space


#: Equation (3.9)'s body over intervals, on the scratch layout.  Inputs:
#: ``[l, u]`` in the interval's manager; vectors: the function variables,
#: the xs they map to, the ys, ``c1``, ``c2`` and the xs and ys together.
#: The transfer (registers 2, 3); ``l`` and ``u`` with the xs exclusive to
#: ``g1`` flipped, keyed on ``c2`` (4, 5), and ``must`` = ``(l ≠ l^c2) ∧
#: (u ≠ u^c2)`` (8); keyed on ``c1`` (9, 10) and on ``c1·c2`` (11, 12), and
#: ``may`` = ``(u^c1 ≠ u^c1c2) ∨ (l^c1 ≠ l^c1c2)`` (15); ``must ⇒ may``
#: (17); then ``∀(x ∪ y)`` (18).
_XOR_BODY = Program(
    (
        ("transfer", 2, 0, 2, 0, 1),
        ("replace", 4, 2, 1, 2, 4),
        ("replace", 5, 3, 1, 2, 4),
        ("xor", 6, 2, 4),
        ("xor", 7, 3, 5),
        ("and", 8, 6, 7),
        ("replace", 9, 2, 1, 2, 3),
        ("replace", 10, 3, 1, 2, 3),
        ("replace_pair", 11, 2, 1, 2, 3, 4),
        ("replace_pair", 12, 3, 1, 2, 3, 4),
        ("xor", 13, 10, 12),
        ("xor", 14, 9, 11),
        ("or", 15, 13, 14),
        ("not", 16, 8),
        ("or", 17, 16, 15),
        ("forall", 18, 17, 5),
    ),
    nregs=19,
    inputs=(0, 1),
)


def _xor_body(
    interval: Interval, variables: list[int], sm: BDDManager, layout: _Layout
) -> int:
    """``Bi`` of equation (3.9) on the scratch manager ``sm``: one run of
    :data:`_XOR_BODY`."""
    xs, ys = layout.x_vars, layout.y_vars
    _, regs = _program.run(
        sm,
        _XOR_BODY,
        (interval.lower, interval.upper),
        (variables, xs, ys, layout.c1_vars, layout.c2_vars, xs + ys),
        interval.manager,
    )
    return regs[18]


@lru_cache(maxsize=256)
def _analysis(n: int, handed: tuple[bool, bool], kind: str) -> Program:
    """The Section 3.5.2 analysis ``kind`` of a space over ``n`` function
    variables.  Registers: ``Bi`` (an input), one result per decision
    vector (1, 2), the weight table ``[w_0 … w_n]`` of ``c1`` (from 3) and
    of ``c2`` (from ``n + 4``), then the program's own.  Vectors: ``c1``
    and ``c2``, each in ascending order, then for ``"kappa"`` and
    ``"pairs"`` the counter bits ``e1`` and ``e2``, the decision variables
    and all the bits.  Per decision vector, its weight table — an input
    where ``handed`` says the space holds it — and then:

    * ``"nontrivial"``: the disjunction of ``w_0 … w_{n-1}``; then
      ``Bi ∧ (d1 ∧ d2)``;
    * ``"kappa"``: ``K(c, e)``; then ``Bi ∧ K1 ∧ K2`` folded as
      :meth:`~BDDManager.conjoin` folds a list, and ``∃(c1 ∪ c2)``, which
      is ``Bi_κ``;
    * ``"pairs"``: as ``"kappa"``, then ``Bi_κ``'s model count and each
      model decoded into ``(k1, k2)``.

    The result (``Bi`` restricted, or ``Bi_κ``) is at
    :func:`_analysis_out`, the model count after it."""
    out = _analysis_out(n)
    steps: list[tuple] = []
    inputs = [0]
    for slot, table in enumerate((3, n + 4)):
        if handed[slot]:
            inputs += range(table, table + n + 1)
        else:
            steps.append(("weights", table, slot, n))
        if kind == "nontrivial":
            steps.append(("disjoin", 1 + slot, table, n))
        else:
            steps.append(("krel", 1 + slot, table, n + 1, 2 + slot))
    if kind == "nontrivial":
        steps += [("and", out - 1, 1, 2), ("and", out, 0, out - 1)]
        return Program(steps, out + 1, inputs)
    steps += [("conjoin", out - 1, 0, 3), ("exists", out, out - 1, 4)]
    cap = (n + 1) ** 2 if kind == "pairs" else 0
    if cap:  # Bi_κ has at most one model per pair of weights 0..n
        steps.append(("pairs", out + 1, out, 5, cap))
    return Program(steps, out + 2 + 2 * cap, inputs)


def _analysis_out(n: int) -> int:
    """The result register of the :func:`_analysis` programs."""
    return 2 * n + 6


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
