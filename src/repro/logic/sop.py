"""Sum-of-products covers and the Minato-Morreale ISOP algorithm.

An irredundant SOP of an *interval* ``[l, u]`` (a cover ``g`` with
``l <= g <= u``) is how incompletely specified functions are turned back
into gates and how literal counts are estimated.  This is also the
BLIF-writing path for collapsed BDD nodes.

On a native manager :func:`isop` runs as one kernel walk
(``bdd_isop``); :func:`_py_isop` makes the same public calls in the same
order over an explicit stack, as the pure-Python path and the parity
reference.  Neither recurses, so intervals thousands of variables deep
go through.  Both build the cover as records and list its cubes only
when asked, in the order of the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

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


#: Cover ids of the two terminal calls: the empty cover (``g`` FALSE) and
#: the cover of one empty cube (``g`` TRUE).  Every other cover is a
#: record ``(g, var, cover0, cover1, cover_rest)``: the cubes of
#: ``cover0`` with ``~var``, those of ``cover1`` with ``var``, then those
#: of ``cover_rest``.
_NO_CUBE, _ONE_CUBE = 0, 1
_POLARITY = (False, True)


def isop(manager: BDDManager, lower: int, upper: int) -> tuple[Cover, int]:
    """Minato-Morreale irredundant SOP of the interval ``[lower, upper]``.

    Returns ``(cover, g)`` where ``g`` is the BDD of the cover and
    satisfies ``lower <= g <= upper``.  Raises ``ValueError`` on an
    inconsistent interval.
    """
    cubes, g = _isop(manager, lower, upper, True)
    return Cover(cubes), g


def _isop(
    manager: BDDManager, lower: int, upper: int, cubes: bool
) -> tuple[list[Cube], int]:
    """:func:`isop`'s cubes (none unless ``cubes``) and ``g``: one kernel
    walk (``bdd_isop``) on a native manager, else :func:`_py_isop`."""
    if manager._st is None:
        records, root = _py_isop(manager, lower, upper)
        return (_expand(records, root) if cubes else []), records[root][0]
    lib = manager._lib
    walk = manager._walk
    try:
        if not manager._native_walk(
            lib.bdd_isop, manager._st, walk, lower, upper, int(cubes)
        ):
            raise ValueError("inconsistent interval: lower is not <= upper")
        codes = manager._ffi.unpack(walk.cubes, walk.cubes_len) if walk.cubes_len else ()
        g = walk.acc
    finally:
        lib.bdd_walk_clear(walk)
    return _decode(codes), g


def _decode(codes: Sequence[int]) -> list[Cube]:
    """The cubes of the kernel's encoding: each cube's literal count,
    then ``2 var + polarity`` per literal."""
    cubes = []
    index = 0
    while index < len(codes):
        end = index + 1 + codes[index]
        literals = codes[index + 1 : end]
        cubes.append(Cube(tuple((code >> 1, _POLARITY[code & 1]) for code in literals)))
        index = end
    return cubes


def _py_isop(
    manager: BDDManager, lower: int, upper: int
) -> tuple[list[tuple[int, ...]], int]:
    """The Minato-Morreale recursion over an explicit stack: the walk of
    ``bdd_isop`` in Python, making the same public calls in the same
    order.  Each call ``isop(l, u)`` that is not a terminal case or an
    ``(l, u)`` memo hit runs as a generator on the stack, which yields
    the intervals of its three sub-calls and receives their covers.
    Returns the cover records and the id of the root's cover."""
    if not manager.leq(lower, upper):
        raise ValueError("inconsistent interval: lower is not <= upper")
    level, lo, hi = manager.level, manager.lo, manager.hi
    negate, conj, disj = manager.negate, manager.apply_and, manager.apply_or
    records: list[tuple[int, ...]] = [(FALSE,), (TRUE,)]
    memo: dict[tuple[int, int], int] = {}

    def frame(l: int, u: int):
        var = min(level(l), level(u))
        l0, l1 = (lo(l), hi(l)) if level(l) == var else (l, l)
        u0, u1 = (lo(u), hi(u)) if level(u) == var else (u, u)
        # Cubes that must contain ~x: needed where the onset is not
        # coverable by the positive half.
        cover0 = yield conj(l0, negate(u1)), u0
        g0 = records[cover0][0]
        # Cubes that must contain x.
        cover1 = yield conj(l1, negate(u0)), u1
        g1 = records[cover1][0]
        # What is still uncovered may be covered by cubes free of x.
        l_rest = disj(conj(l0, negate(g0)), conj(l1, negate(g1)))
        cover_rest = yield l_rest, conj(u0, u1)
        g = disj(manager.ite(manager.var(var), g1, g0), records[cover_rest][0])
        records.append((g, var, cover0, cover1, cover_rest))
        return len(records) - 1

    stack: list = []
    call: Optional[tuple[int, int]] = (lower, upper)
    cover = _NO_CUBE
    while True:
        if call is not None:
            l, u = call
            call = None
            if l == FALSE:
                cover = _NO_CUBE
            elif u == TRUE:
                cover = _ONE_CUBE
            else:
                found = memo.get((l, u))
                if found is None:
                    opened = frame(l, u)
                    stack.append((l, u, opened))
                    call = next(opened)
                    continue
                cover = found
        if not stack:
            return records, cover
        l, u, running = stack[-1]
        try:
            call = running.send(cover)
        except StopIteration as done:
            stack.pop()
            cover = memo[l, u] = done.value


def _expand(records: Sequence[tuple[int, ...]], root: int) -> list[Cube]:
    """The cubes of cover ``root`` in the order the recursion lists them,
    walked depth first over the records with one shared literal prefix."""
    cubes: list[Cube] = []
    prefix: list[tuple[int, bool]] = []
    stack: list[tuple[int, int, Optional[tuple[int, bool]]]] = [(root, 0, None)]
    while stack:
        cover, depth, literal = stack.pop()
        del prefix[depth:]
        if literal is not None:
            prefix.append(literal)
        if cover == _NO_CUBE:
            continue
        if cover == _ONE_CUBE:
            cubes.append(Cube(tuple(prefix)))
            continue
        _, var, cover0, cover1, cover_rest = records[cover]
        depth = len(prefix)
        stack.append((cover_rest, depth, None))
        stack.append((cover1, depth, (var, True)))
        stack.append((cover0, depth, (var, False)))
    return cubes


def isop_function(manager: BDDManager, f: int) -> Cover:
    """ISOP of a completely specified function.  Raises ``ValueError``
    when the cover's BDD is not ``f``."""
    cover, g = isop(manager, f, f)
    if g != f:
        raise ValueError(f"the ISOP of node {f} built node {g}, not {f}")
    return cover
