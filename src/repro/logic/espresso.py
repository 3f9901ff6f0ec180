"""Espresso-style two-level minimisation over BDD-represented intervals.

A compact EXPAND / IRREDUNDANT / REDUCE loop in the spirit of Espresso,
with all containment checks done on BDDs: given an interval ``[l, u]``
(on-set ``l``, don't-care set ``u & ~l``) the minimiser returns a prime,
irredundant cover ``g`` with ``l <= g <= u``.  Used to post-optimise the
ISOP leaves of recursive bi-decomposition and as a standalone two-level
minimiser (the paper's pre-processing pipeline relies on this class of
optimisation before mapping).
"""

from __future__ import annotations

from typing import Optional

from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.logic.sop import Cover, Cube, isop


def _cube_node(manager: BDDManager, cube: Cube) -> int:
    return manager.cube(cube.as_dict())


def _cover_node(manager: BDDManager, cubes: list[Cube]) -> int:
    return manager.disjoin(_cube_node(manager, cube) for cube in cubes)


def expand_cube(manager: BDDManager, cube: Cube, upper: int) -> Cube:
    """Make a cube prime: greedily drop literals while the enlarged cube
    stays inside the upper bound (on-set union don't cares)."""
    literals = cube.as_dict()
    # Try dropping literals in a deterministic order (by variable).
    for var in sorted(literals):
        trial = dict(literals)
        del trial[var]
        if manager.leq(manager.cube(trial), upper):
            literals = trial
    return Cube.from_dict(literals)


def irredundant(
    manager: BDDManager, cubes: list[Cube], lower: int, upper: int
) -> list[Cube]:
    """Drop cubes whose on-set contribution is covered by the others
    (plus the don't cares).  Greedy, biggest cubes kept first."""
    kept = list(cubes)
    # Try removing the largest (fewest literals first = biggest cube
    # LAST to be removed? remove redundant small contributions first).
    for cube in sorted(cubes, key=lambda c: -len(c)):
        if cube not in kept:
            continue
        rest = [c for c in kept if c is not cube]
        rest_node = _cover_node(manager, rest)
        if manager.leq(lower, rest_node):
            kept = rest
    return kept


def reduce_cube(
    manager: BDDManager, cube: Cube, others_node: int, lower: int
) -> Cube:
    """Shrink a cube to the smallest cube containing the on-set part only
    it covers; a later EXPAND can then grow it in a different direction."""
    essential = manager.apply_and(
        _cube_node(manager, cube),
        manager.apply_and(lower, manager.negate(others_node)),
    )
    if essential == FALSE:
        return cube
    literals: dict[int, bool] = {}
    # Sorted: cofactors make nodes, and a set's iteration order can
    # depend on its insertion history.
    for var in sorted(manager.support(essential).union(cube.as_dict())):
        low = manager.cofactor(essential, var, False)
        high = manager.cofactor(essential, var, True)
        if low == FALSE:
            literals[var] = True
        elif high == FALSE:
            literals[var] = False
    return Cube.from_dict(literals)


def espresso(
    manager: BDDManager,
    lower: int,
    upper: int,
    max_iterations: int = 8,
    initial: Optional[Cover] = None,
) -> Cover:
    """EXPAND / IRREDUNDANT / REDUCE loop; returns a cover ``g`` with
    ``lower <= g <= upper``, each cube prime, no cube redundant.

    Deterministic; seeded from the Minato-Morreale ISOP unless
    ``initial`` is given.  Raises ``ValueError`` on an inconsistent
    interval, and when the final cover is not a member of it (a check
    that also runs under ``python -O``).
    """
    if not manager.leq(lower, upper):
        raise ValueError("inconsistent interval")
    if lower == FALSE:
        return Cover([])
    if upper == TRUE and lower == TRUE:
        return Cover([Cube(())])
    if initial is None:
        initial, _ = isop(manager, lower, upper)
    cubes = list(initial.cubes)
    best_cost = _cost(cubes)
    for _ in range(max_iterations):
        cubes = [expand_cube(manager, cube, upper) for cube in cubes]
        # Deduplicate (expansion can merge cubes).
        cubes = list(dict.fromkeys(cubes))
        cubes = irredundant(manager, cubes, lower, upper)
        cost = _cost(cubes)
        if cost >= best_cost:
            break
        best_cost = cost
        # REDUCE to escape local minima before the next EXPAND.
        reduced = []
        for index, cube in enumerate(cubes):
            others = _cover_node(
                manager, [c for i, c in enumerate(cubes) if i != index]
            )
            reduced.append(reduce_cube(manager, cube, others, lower))
        cubes = list(dict.fromkeys(reduced))
    result = Cover(cubes)
    cover_node = _cover_node(manager, cubes)
    if not (manager.leq(lower, cover_node) and manager.leq(cover_node, upper)):
        raise ValueError("the minimised cover is not a member of [lower, upper]")
    return result


def _cost(cubes: list[Cube]) -> tuple[int, int]:
    return (len(cubes), sum(len(c) for c in cubes))


def minimize_function(manager: BDDManager, f: int) -> Cover:
    """Espresso on a completely specified function."""
    return espresso(manager, f, f)
