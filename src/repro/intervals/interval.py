"""Incompletely specified functions as intervals (Section 3.2).

An interval ``[l(x), u(x)]`` denotes the set of completely specified
functions ``{f : l <= f <= u}``.  It is *consistent* (non-empty) iff
``l <= u``.  The don't-care set is ``u & ~l``.  Abstraction of a variable
subset follows Example 3.2: ``∀x [l, u] = [∃x l, ∀x u]`` — the members of
the result are exactly the members of the original interval that are
vacuous in (independent of) the abstracted variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.bdd import count as _count
from repro.bdd import quantify as _quantify
from repro.bdd.manager import BDDManager, FALSE, TRUE


@dataclass(frozen=True)
class Interval:
    """An incompletely specified Boolean function ``[lower, upper]``.

    ``lower`` and ``upper`` are BDD nodes in ``manager``.  The class does
    not require consistency at construction time — emptiness is itself a
    meaningful result of abstraction (Example 3.2) — but most operations
    on inconsistent intervals raise.
    """

    manager: BDDManager
    lower: int
    upper: int

    # -- constructors --------------------------------------------------

    @classmethod
    def exact(cls, manager: BDDManager, f: int) -> "Interval":
        """Interval containing the single function ``f``."""
        return cls(manager, f, f)

    @classmethod
    def with_dont_cares(
        cls, manager: BDDManager, f: int, dont_care: int
    ) -> "Interval":
        """The paper's synthesis interval ``[f & ~dc, f | dc]`` for an
        on-set function ``f`` and a don't-care set ``dc`` (Section 3.5.3
        uses unreachable states as ``dc``)."""
        return cls(
            manager,
            manager.apply_and(f, manager.negate(dont_care)),
            manager.apply_or(f, dont_care),
        )

    # -- basic predicates ----------------------------------------------

    def is_consistent(self) -> bool:
        """Non-emptiness check: ``lower <= upper``."""
        return self.manager.leq(self.lower, self.upper)

    def _require_consistent(self) -> None:
        if not self.is_consistent():
            raise ValueError("interval is inconsistent (empty)")

    def is_exact(self) -> bool:
        """True iff the interval contains exactly one function."""
        return self.lower == self.upper

    def contains(self, f: int) -> bool:
        """Membership test for a completely specified function."""
        return self.manager.leq(self.lower, f) and self.manager.leq(f, self.upper)

    def dont_care(self) -> int:
        """The don't-care set ``upper & ~lower``."""
        return self.manager.apply_and(self.upper, self.manager.negate(self.lower))

    def num_members(self, num_vars: Optional[int] = None) -> int:
        """Number of completely specified member functions:
        ``2**|dont_care minterms|`` (Example 3.1 has four)."""
        self._require_consistent()
        return 2 ** _count.sat_count(self.manager, self.dont_care(), num_vars)

    def members(self, variables: Sequence[int]) -> Iterator[int]:
        """Enumerate all member functions over the given variable list.

        Exponential in the number of don't-care minterms; intended for
        small examples and tests.
        """
        self._require_consistent()
        dc_minterms = list(
            _count.iter_models(self.manager, self.dont_care(), variables)
        )
        for selection in range(1 << len(dc_minterms)):
            member = self.lower
            for index, minterm in enumerate(dc_minterms):
                if (selection >> index) & 1:
                    member = self.manager.apply_or(
                        member, self.manager.cube(minterm)
                    )
            yield member

    # -- operations ----------------------------------------------------

    def complement(self) -> "Interval":
        """The interval of complements ``[~u, ~l]`` (used to derive AND
        decomposition from OR decomposability, Section 3.3.1)."""
        return Interval(
            self.manager, self.manager.negate(self.upper), self.manager.negate(self.lower)
        )

    def abstract(self, variables: Iterable[int]) -> "Interval":
        """``∀x [l, u] = [∃x l, ∀x u]`` — may yield an inconsistent
        interval, meaning no member is vacuous in ``variables``."""
        lower, upper = _quantify.abstract_interval(
            self.manager, self.lower, self.upper, list(variables)
        )
        return Interval(self.manager, lower, upper)

    def can_abstract(self, variables: Iterable[int]) -> bool:
        """True iff some member function is independent of ``variables``."""
        return self.abstract(variables).is_consistent()

    def support(self) -> set[int]:
        """Union of the structural supports of the two bounds, as a
        fresh set the caller may change."""
        support = self.manager.support
        variables = set(support(self.lower))
        if self.upper != self.lower:
            variables |= support(self.upper)
        return variables

    def essential_support(self) -> set[int]:
        """Variables that *every* member depends on — i.e. variables whose
        individual abstraction is infeasible."""
        # Sorted: abstraction makes nodes, and a set's iteration order
        # can depend on its insertion history.
        return {
            var
            for var in sorted(self.support())
            if not self.can_abstract([var])
        }

    def reduce_support(self) -> tuple["Interval", set[int]]:
        """Greedily abstract redundant variables (Section 3.5.1: "interval
        pre-processed with the ∀ operation eliminates vacuous variables").

        Returns the reduced interval and the set of variables removed.
        The greedy order is by ascending variable index; a variable is
        dropped when the interval abstracted of it *and all previously
        dropped variables* stays consistent.

        On a native manager the loop runs as one kernel entry
        (``bdd_reduce_support``) that makes the calls of
        :meth:`_py_reduce_support` in the same order.
        """
        manager = self.manager
        if manager._st is None:
            return self._py_reduce_support()
        self._require_consistent()
        variables = sorted(self.support())
        # Interned in the Python loop's order: the cube ids key the
        # quantify caches.
        cids = [manager.intern_cube((var,)).cube_id for var in variables]
        flags = manager._ffi.new("int64_t[]", len(variables))
        lib = manager._lib
        walk = manager._walk
        try:
            manager._native_walk(
                lib.bdd_reduce_support,
                manager._st,
                walk,
                self.lower,
                self.upper,
                variables,
                cids,
                len(variables),
                flags,
            )
            lower, upper = walk.acc, walk.acc2
        finally:
            lib.bdd_walk_clear(walk)
        dropped = {var for var, flag in zip(variables, flags) if flag}
        if not dropped:
            return self, dropped
        return Interval(manager, lower, upper), dropped

    def _py_reduce_support(self) -> tuple["Interval", set[int]]:
        """:meth:`reduce_support` as a Python loop: per variable, the
        abstraction of both bounds, then the consistency test."""
        self._require_consistent()
        dropped: set[int] = set()
        current = self
        for var in sorted(self.support()):
            attempt = current.abstract([var])
            if attempt.is_consistent():
                current = attempt
                dropped.add(var)
        return current, dropped

    def any_member(self) -> int:
        """A canonical member (the lower bound)."""
        self._require_consistent()
        return self.lower

    def restrict(self, assignment: dict[int, bool]) -> "Interval":
        """Cofactor both bounds by a partial assignment."""
        return Interval(
            self.manager,
            self.manager.restrict(self.lower, assignment),
            self.manager.restrict(self.upper, assignment),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "consistent" if self.is_consistent() else "EMPTY"
        return f"<Interval lower={self.lower} upper={self.upper} {state}>"
