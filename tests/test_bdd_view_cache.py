"""Each program's packed views, kept per layout.

On native managers a program keeps the buffer of its last run for
vectors of each set of lengths: its register file and its packed views,
the cube ids among them.  A run reuses that block when the manager's
interned-cube table is the one the block was packed against and the
vectors read as cubes are the same, and then writes only its input
registers and its other vectors.  Reuse must leave the cube table as
interning would — the same keys, ids and deepest levels — and must raise
for an undeclared variable before any node is made, as packing does.
The blocks stay bounded: at most one per program and layout size.
Pure-Python managers intern as they always did."""

import gc

import pytest

from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.manager import BDDManager
from repro.bdd.program import Program
from repro.benchgen import industrial_analog
from repro.bidec import symbolic as _symbolic
from repro.synth import SynthesisOptions, algorithm1

from test_bdd_growth_in_place import SOURCE, VARIABLES, _pairs, _space
from test_cone_step import E4_OPTIONS

native_only = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)

LAYOUT = _symbolic._layout(len(VARIABLES), False)


def _table(m):
    """The interned cubes: key, id and deepest level, in id order."""
    return [(key, cube.cube_id, cube.max_level) for key, cube in m._cube_table.items()]


def _chain(m):
    """A space's life on ``m``: the OR body, ``nontrivial`` and the size
    pairs; returns the cube table after each of the three runs."""
    space = _space(m)
    tables = [_table(m)]
    restricted = space.nontrivial()
    tables.append(_table(m))
    _pairs(restricted)
    tables.append(_table(m))
    return tables


@pytest.fixture
def no_blocks(monkeypatch):
    """The space programs with no block kept yet."""
    for program in [_symbolic._OR_BODY] + [
        _symbolic._analysis(len(VARIABLES), handed, kind, False)
        for handed in ((False, False), (True, True))
        for kind in ("nontrivial", "pairs")
    ]:
        monkeypatch.setattr(program, "_blocks", {})


def _packs(monkeypatch):
    """The list that each call of ``program.pack`` appends to."""
    calls = []
    real = _program.pack
    monkeypatch.setattr(_program, "pack", lambda *args: (calls.append(1), real(*args))[1])
    return calls


@native_only
def test_hit_leaves_the_table_a_miss_leaves(monkeypatch, no_blocks):
    packs = _packs(monkeypatch)
    missed = _chain(BDDManager(native=True))
    assert len(packs) == 3
    assert missed[0] and len(missed[2]) > len(missed[1])  # the body and pairs intern
    assert _chain(BDDManager(native=True)) == missed
    spare = BDDManager(native=True)
    _chain(spare)
    assert _chain(spare.reset()) == missed
    assert len(packs) == 3  # every later run reused its block


@native_only
def test_other_table_packs_again(monkeypatch, no_blocks):
    """A table that holds a cube interned outside a block packs a buffer
    of its own, whose ids follow that table, twice over, and the program
    keeps the block it had."""
    packs = _packs(monkeypatch)
    want = _chain(BDDManager(native=True))[0]
    blocks = dict(_symbolic._OR_BODY._blocks)
    m = BDDManager(native=True)
    m.declare_vars(LAYOUT.names)
    m.intern_cube([0])
    for count in (4, 5):
        _symbolic._or_body(SOURCE, VARIABLES, m, LAYOUT, None)
        assert len(packs) == count
    assert _table(m) == [(frozenset([0]), 0, 0)] + [
        (key, cube_id + 1, level) for key, cube_id, level in want
    ]
    assert _symbolic._OR_BODY._blocks == blocks


@native_only
def test_undeclared_variable_raises_on_a_hit(no_blocks):
    """A block packed on a manager that declares the whole layout fits
    the empty table of a manager that declares only part of it: the run
    raises as packing does, before any node is made, and leaves the
    cubes packing leaves."""
    _chain(BDDManager(native=True))
    assert _symbolic._OR_BODY._blocks
    tables = []
    for blocks in (_symbolic._OR_BODY._blocks, {}):
        _symbolic._OR_BODY._blocks = blocks
        m = BDDManager(native=True)
        m.declare_vars(LAYOUT.names[:-1])  # the last x is missing
        before = m.num_nodes, m.stats_snapshot()
        with pytest.raises(ValueError, match="not declared"):
            _symbolic._or_body(SOURCE, VARIABLES, m, LAYOUT, None)
        assert (m.num_nodes, m.stats_snapshot()) == before
        tables.append(_table(m))
    assert tables[0] == tables[1] and tables[0]


def test_pure_python_interns_as_the_kernel(no_blocks):
    """``REPRO_NATIVE=0`` interns each run's cubes in the order the
    kernel's packing does: the OR body's one-variable ``x`` cubes first."""
    want = _chain(BDDManager(native=False))
    x0 = LAYOUT.x_vars[0]
    assert want[0][0] == (frozenset([x0]), 0, x0)
    if _native.kernel() is not None:
        assert _chain(BDDManager(native=True)) == want  # packed
        assert _chain(BDDManager(native=True)) == want  # reused


@native_only
def test_blocks_stay_bounded(monkeypatch):
    """After a whole ``algorithm1`` run on seq5, the space bodies hold at
    most one block per layout size, and a second run keeps the same
    blocks' shapes on every program."""
    sizes = set()
    real = _symbolic._make_scratch

    def recording(num_vars, with_y):
        sizes.add((num_vars, with_y))
        return real(num_vars, with_y)

    monkeypatch.setattr(_symbolic, "_make_scratch", recording)
    monkeypatch.setattr(_symbolic, "_spares", [])
    for body in (_symbolic._OR_BODY, _symbolic._XOR_BODY):
        monkeypatch.setattr(body, "_blocks", {})

    def shapes():
        programs = [obj for obj in gc.get_objects() if isinstance(obj, Program)]
        return {id(p): set(p._blocks) for p in programs if p._blocks}

    options = SynthesisOptions(**E4_OPTIONS)
    algorithm1(industrial_analog("seq5", 0.35), options)
    first = shapes()
    for body, with_y in ((_symbolic._OR_BODY, False), (_symbolic._XOR_BODY, True)):
        layouts = {n for n, y in sizes if y == with_y}
        assert body._blocks and {shape[0] for shape in body._blocks} <= layouts
        assert len(body._blocks) <= len(layouts)
    algorithm1(industrial_analog("seq5", 0.35), options)
    second = shapes()
    for key in first.keys() & second.keys():
        assert second[key] == first[key]
