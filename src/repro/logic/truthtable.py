"""Dense truth tables as integer bit masks.

Truth tables are the brute-force oracle used throughout the test suite to
validate BDD operations and decomposition results, and the canonical-form
substrate of the cut-based technology mapper.  A function of ``n``
variables is a Python int whose bit ``m`` holds ``f(m)``, where minterm
``m`` assigns bit ``i`` of ``m`` to variable ``i``.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.bdd.manager import BDDManager, FALSE, TRUE


def full_mask(num_vars: int) -> int:
    """Mask with all ``2**num_vars`` minterm bits set."""
    return (1 << (1 << num_vars)) - 1


@functools.lru_cache(maxsize=1024)
def variable_mask(var: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_var`` (memoised: the
    mapper asks for the same few masks many times)."""
    mask = 0
    for minterm in range(1 << num_vars):
        if (minterm >> var) & 1:
            mask |= 1 << minterm
    return mask


@dataclass(frozen=True)
class TruthTable:
    """An immutable completely specified function over ``num_vars`` inputs."""

    bits: int
    num_vars: int

    def __post_init__(self) -> None:
        if self.bits & ~full_mask(self.num_vars):
            raise ValueError("truth-table bits exceed 2**num_vars entries")

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value: bool, num_vars: int) -> "TruthTable":
        return cls(full_mask(num_vars) if value else 0, num_vars)

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        return cls(variable_mask(var, num_vars), num_vars)

    @classmethod
    def from_function(
        cls, fn: Callable[..., bool], num_vars: int
    ) -> "TruthTable":
        """Tabulate a Python predicate of ``num_vars`` boolean arguments."""
        bits = 0
        for minterm in range(1 << num_vars):
            args = [bool((minterm >> i) & 1) for i in range(num_vars)]
            if fn(*args):
                bits |= 1 << minterm
        return cls(bits, num_vars)

    @classmethod
    def random(cls, num_vars: int, rng: random.Random) -> "TruthTable":
        return cls(rng.getrandbits(1 << num_vars), num_vars)

    @classmethod
    def from_bdd(
        cls, manager: BDDManager, node: int, variables: Sequence[int]
    ) -> "TruthTable":
        """Tabulate a BDD over the listed variables (position ``i`` in
        ``variables`` becomes truth-table variable ``i``)."""
        num_vars = len(variables)
        bits = 0
        for minterm in range(1 << num_vars):
            assignment = {
                variables[i]: bool((minterm >> i) & 1) for i in range(num_vars)
            }
            if manager.evaluate(node, assignment):
                bits |= 1 << minterm
        return cls(bits, num_vars)

    # -- conversion ----------------------------------------------------

    def to_bdd(self, manager: BDDManager, variables: Sequence[int]) -> int:
        """Build the BDD of this table over the given manager variables."""
        if len(variables) != self.num_vars:
            raise ValueError("variable list length must match num_vars")

        def build(prefix: int, depth: int) -> int:
            if depth == self.num_vars:
                return TRUE if (self.bits >> prefix) & 1 else FALSE
            var = variables[depth]
            lo = build(prefix, depth + 1)
            hi = build(prefix | (1 << depth), depth + 1)
            return manager.ite(manager.var(var), hi, lo)

        try:
            return build(0, 0)
        finally:
            del build  # it holds itself (and the manager) through its closure

    # -- combinators ---------------------------------------------------

    def _check(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("operand arities differ")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits & other.bits, self.num_vars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits | other.bits, self.num_vars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits ^ other.bits, self.num_vars)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.bits ^ full_mask(self.num_vars), self.num_vars)

    def implies(self, other: "TruthTable") -> bool:
        """Containment ``self <= other``."""
        self._check(other)
        return self.bits & ~other.bits == 0

    # -- inspection ----------------------------------------------------

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        minterm = sum(1 << i for i, value in enumerate(assignment) if value)
        return bool((self.bits >> minterm) & 1)

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor (result keeps the same arity; ``var`` becomes
        irrelevant)."""
        bits = 0
        for minterm in range(1 << self.num_vars):
            source = (minterm | (1 << var)) if value else (minterm & ~(1 << var))
            if (self.bits >> source) & 1:
                bits |= 1 << minterm
        return TruthTable(bits, self.num_vars)

    def depends_on(self, var: int) -> bool:
        """True iff the function differs between the two cofactors of
        ``var`` (i.e. ``var`` is in the true support).  Compares the
        table with itself shifted by ``2**var``, under the mask of the
        minterms where ``x_var = 0``: bit ``m`` of the shifted table is
        ``f(m + 2**var)``.  ``ValueError`` for a variable outside
        ``0..num_vars-1``."""
        n = self.num_vars
        if not 0 <= var < n:
            raise ValueError(f"variable {var} outside 0..{n - 1}")
        bits = self.bits
        low = full_mask(n) ^ variable_mask(var, n)
        return ((bits ^ (bits >> (1 << var))) & low) != 0

    def support(self) -> set[int]:
        """True support: variables the function actually depends on."""
        return {v for v in range(self.num_vars) if self.depends_on(v)}

    def count_ones(self) -> int:
        """Number of onset minterms."""
        return bin(self.bits).count("1")

    def minterms(self) -> Iterator[int]:
        """Iterate the onset minterms in increasing order."""
        for minterm in range(1 << self.num_vars):
            if (self.bits >> minterm) & 1:
                yield minterm

    def permute(self, permutation: Sequence[int]) -> "TruthTable":
        """Reindex inputs: new variable ``i`` reads old variable
        ``permutation[i]``."""
        if sorted(permutation) != list(range(self.num_vars)):
            raise ValueError("not a permutation of the inputs")
        bits = 0
        for minterm in range(1 << self.num_vars):
            source = 0
            for new, old in enumerate(permutation):
                if (minterm >> new) & 1:
                    source |= 1 << old
            if (self.bits >> source) & 1:
                bits |= 1 << minterm
        return TruthTable(bits, self.num_vars)

    def flip_input(self, var: int) -> "TruthTable":
        """Complement one input variable."""
        bits = 0
        for minterm in range(1 << self.num_vars):
            if (self.bits >> (minterm ^ (1 << var))) & 1:
                bits |= 1 << minterm
        return TruthTable(bits, self.num_vars)


def npn_canonical(table: TruthTable) -> int:
    """NPN-canonical representative of a truth table: the smallest ``bits``
    value over all input permutations, input polarities and output
    polarity.  Exponential in arity; intended for library cells of up to
    ~5 inputs (the mapper precomputes it per cut)."""
    n = table.num_vars
    best = None
    for perm in itertools.permutations(range(n)):
        permuted = table.permute(perm)
        for flips in range(1 << n):
            candidate = permuted
            for var in range(n):
                if (flips >> var) & 1:
                    candidate = candidate.flip_input(var)
            for bits in (candidate.bits, candidate.bits ^ full_mask(n)):
                if best is None or bits < best:
                    best = bits
    assert best is not None
    return best


def p_canonical(table: TruthTable) -> int:
    """P-canonical representative (input permutations only).

    Cheaper than NPN; used when polarity is handled separately.
    """
    n = table.num_vars
    return min(table.permute(perm).bits for perm in itertools.permutations(range(n)))
