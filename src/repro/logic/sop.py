"""Sum-of-products covers and the Minato-Morreale ISOP algorithm.

An irredundant SOP of an *interval* ``[l, u]`` (a cover ``g`` with
``l <= g <= u``) is how incompletely specified functions are turned back
into gates and how literal counts are estimated.  This is also the
BLIF-writing path for collapsed BDD nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.bdd.manager import BDDManager, FALSE, TRUE


@dataclass(frozen=True)
class Cube:
    """A product term: a partial assignment ``{var: polarity}``."""

    literals: tuple[tuple[int, bool], ...]

    @classmethod
    def from_dict(cls, literals: Mapping[int, bool]) -> "Cube":
        return cls(tuple(sorted(literals.items())))

    def as_dict(self) -> dict[int, bool]:
        return dict(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def with_literal(self, var: int, polarity: bool) -> "Cube":
        return Cube.from_dict({**self.as_dict(), var: polarity})

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return all(assignment[var] == pol for var, pol in self.literals)

    def to_bdd(self, manager: BDDManager) -> int:
        return manager.cube(self.as_dict())

    def __str__(self) -> str:
        if not self.literals:
            return "1"
        return "".join(
            f"x{var}" if pol else f"~x{var}" for var, pol in self.literals
        )


@dataclass
class Cover:
    """A set of cubes interpreted as their disjunction."""

    cubes: list[Cube] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def literal_count(self) -> int:
        """Total number of literals — the SOP area proxy used before
        technology mapping."""
        return sum(len(cube) for cube in self.cubes)

    def to_bdd(self, manager: BDDManager) -> int:
        return manager.disjoin(cube.to_bdd(manager) for cube in self.cubes)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return any(cube.evaluate(assignment) for cube in self.cubes)


def isop(manager: BDDManager, lower: int, upper: int) -> tuple[Cover, int]:
    """Minato-Morreale irredundant SOP of the interval ``[lower, upper]``.

    Returns ``(cover, g)`` where ``g`` is the BDD of the cover and
    satisfies ``lower <= g <= upper``.  Raises ``ValueError`` on an
    inconsistent interval.
    """
    if not manager.leq(lower, upper):
        raise ValueError("inconsistent interval: lower is not <= upper")
    cache: dict[tuple[int, int], tuple[tuple[Cube, ...], int]] = {}

    def recurse(l: int, u: int) -> tuple[tuple[Cube, ...], int]:
        if l == FALSE:
            return (), FALSE
        if u == TRUE:
            return (Cube(()),), TRUE
        key = (l, u)
        hit = cache.get(key)
        if hit is not None:
            return hit
        level_l = manager.level(l)
        level_u = manager.level(u)
        var = min(level_l, level_u)
        l0, l1 = (
            (manager.lo(l), manager.hi(l)) if level_l == var else (l, l)
        )
        u0, u1 = (
            (manager.lo(u), manager.hi(u)) if level_u == var else (u, u)
        )
        # Cubes that must contain ~x: needed where the onset is not
        # coverable by the positive half.
        cover0, g0 = recurse(manager.apply_and(l0, manager.negate(u1)), u0)
        # Cubes that must contain x.
        cover1, g1 = recurse(manager.apply_and(l1, manager.negate(u0)), u1)
        # What is still uncovered may be covered by cubes free of x.
        l_rest = manager.apply_or(
            manager.apply_and(l0, manager.negate(g0)),
            manager.apply_and(l1, manager.negate(g1)),
        )
        cover_rest, g_rest = recurse(l_rest, manager.apply_and(u0, u1))
        cubes = (
            tuple(cube.with_literal(var, False) for cube in cover0)
            + tuple(cube.with_literal(var, True) for cube in cover1)
            + cover_rest
        )
        g = manager.apply_or(
            manager.ite(manager.var(var), g1, g0), g_rest
        )
        result = (cubes, g)
        cache[key] = result
        return result

    try:
        cubes, g = recurse(lower, upper)
    finally:
        del recurse  # it holds itself (and the manager) through its closure
    return Cover(list(cubes)), g


def isop_function(manager: BDDManager, f: int) -> Cover:
    """ISOP of a completely specified function."""
    cover, g = isop(manager, f, f)
    assert g == f
    return cover
