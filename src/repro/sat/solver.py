"""A CDCL SAT solver.

Backs the Lee-Jiang-Hung-style SAT-based bi-decomposition baseline [14]
that the paper positions its BDD-based formulation against.  Features:
two-watched-literal propagation, first-UIP conflict analysis with clause
learning, VSIDS-style activity decay, phase saving, and Luby restarts.

Literals are non-zero ints in DIMACS convention: ``v`` / ``-v`` for
variable ``v >= 1``.

:class:`Solver` runs one of two cores that perform the same search.  The
C core (``_solver.c``, built into the native kernel by
:mod:`repro.bdd.native`) runs whenever that kernel loads; the
pure-Python core below is the ``REPRO_NATIVE=0`` fallback and the
reference the C core is tested against.  Both make the same decisions,
learn the same clauses and return the same models, so no output depends
on which one ran.

Clauses may be added after any :meth:`Solver.solve` call, satisfiable
or not: :meth:`Solver.add_clause` first returns the solver to decision
level 0 (MiniSat's precondition for adding a clause), so the clause is
simplified against the root assignment and a resulting unit is asserted
there.  Read a model after a satisfiable solve and before the next
``add_clause``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class Solver:
    """Incremental CDCL solver with assumption support.

    ``native``: ``True``/``False`` forces the C core on or off for this
    solver; ``None`` (the default) uses it when
    :func:`repro.bdd.native.kernel` loads.  Both cores give identical
    answers, models and clause databases.
    """

    def __init__(self, native: Optional[bool] = None) -> None:
        self._py: Optional[_PythonCore] = None
        self._s = None
        if native is not False:
            from repro.bdd import native as _native

            handle = _native.kernel()
            if handle is not None:
                self._ffi, self._lib = handle
                solver = self._lib.sat_new()
                if solver == self._ffi.NULL:
                    raise MemoryError("native SAT core allocation failed")
                self._s = self._ffi.gc(solver, self._lib.sat_free)
            elif native is True:
                raise RuntimeError(
                    "native=True but the native kernel is unavailable"
                )
        if self._s is None:
            self._py = _PythonCore()

    @property
    def native(self) -> bool:
        """True when this solver runs on the C core."""
        return self._s is not None

    @property
    def num_vars(self) -> int:
        """Variables ``1..num_vars`` are decided and reported by
        :meth:`model`; settable, and raised by :meth:`add_clause`."""
        if self._py is not None:
            return self._py.num_vars
        return self._lib.sat_num_vars(self._s)

    @num_vars.setter
    def num_vars(self, value: int) -> None:
        if self._py is not None:
            self._py.num_vars = value
        else:
            self._check(self._lib.sat_set_num_vars(self._s, value))

    @property
    def clauses(self) -> list[list[int]]:
        """A copy of the clause database: the added clauses (simplified,
        in their current literal order), then the learnt ones."""
        if self._py is not None:
            return [list(clause) for clause in self._py.clauses]
        ffi, lib = self._ffi, self._lib
        size = ffi.new("int32_t *")
        result = []
        for index in range(lib.sat_num_clauses(self._s)):
            literals = lib.sat_clause(self._s, index, size)
            result.append(ffi.unpack(literals, size[0]))
        return result

    def new_var(self) -> int:
        if self._py is not None:
            return self._py.new_var()
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially
        unsatisfiable."""
        if self._py is not None:
            return self._py.add_clause(literals)
        if not isinstance(literals, (list, tuple)):
            literals = list(literals)
        return self._check(
            self._lib.sat_add_clause(self._s, literals, len(literals))
        )

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add each clause in order, as :meth:`add_clause` does (the C
        core takes them all in one call); returns False if any
        ``add_clause`` would have."""
        if self._py is not None:
            ok = True
            for clause in clauses:
                ok = self._py.add_clause(clause) and ok
            return ok
        clauses = list(clauses)
        literals = [literal for clause in clauses for literal in clause]
        sizes = [len(clause) for clause in clauses]
        return self._check(
            self._lib.sat_add_clauses(self._s, literals, sizes, len(sizes))
        )

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals."""
        if self._py is not None:
            return self._py.solve(assumptions)
        if not isinstance(assumptions, (list, tuple)):
            assumptions = list(assumptions)
        return self._check(
            self._lib.sat_solve(self._s, assumptions, len(assumptions))
        )

    def model(self) -> dict[int, bool]:
        """Assignment after a satisfiable :meth:`solve` call (unassigned
        variables default to False)."""
        if self._py is not None:
            return self._py.model()
        count = self._lib.sat_num_vars(self._s)
        values = self._ffi.new("_Bool[]", count)
        self._lib.sat_model(self._s, values)
        return dict(zip(range(1, count + 1), self._ffi.unpack(values, count)))

    @staticmethod
    def _check(result: int) -> bool:
        if result < 0:
            raise MemoryError("native SAT core allocation failed")
        return result == 1


class _PythonCore:
    """The pure-Python CDCL core: the fallback when the native kernel
    does not load, and the reference the C core mirrors step by step."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, Optional[int]] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: dict[int, float] = {}
        self._phase: dict[int, bool] = {}
        self._var_inc = 1.0
        self._ok = True

    # -- problem construction -------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially
        unsatisfiable."""
        clause = sorted(set(literals), key=abs)
        if any(-lit in clause for lit in clause):
            return True  # tautology
        for lit in clause:
            self.num_vars = max(self.num_vars, abs(lit))
        if not self._ok:
            return False
        # Simplify against level 0, so undo whatever a satisfiable
        # solve() left on the trail first.
        self._cancel_until(0)
        simplified = []
        for lit in clause:
            value = self._root_value(lit)
            if value is True:
                return True
            if value is None:
                simplified.append(lit)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        index = len(self.clauses)
        self.clauses.append(simplified)
        self._watch(simplified[0], index)
        self._watch(simplified[1], index)
        return True

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(-lit, []).append(clause_index)

    # -- values -----------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        assigned = self._assign.get(abs(lit))
        if assigned is None:
            return None
        return assigned if lit > 0 else not assigned

    def _root_value(self, lit: int) -> Optional[bool]:
        var = abs(lit)
        if var in self._assign and self._level.get(var, 0) == 0:
            return self._value(lit)
        return None

    # -- propagation ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        index = getattr(self, "_qhead", 0)
        while index < len(self._trail):
            lit = self._trail[index]
            index += 1
            watching = self._watches.get(lit, [])
            keep: list[int] = []
            position = 0
            while position < len(watching):
                clause_index = watching[position]
                position += 1
                clause = self.clauses[clause_index]
                # Ensure the false literal is at slot 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) is True:
                    keep.append(clause_index)
                    continue
                moved = False
                for slot in range(2, len(clause)):
                    if self._value(clause[slot]) is not False:
                        clause[1], clause[slot] = clause[slot], clause[1]
                        self._watch(clause[1], clause_index)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(clause_index)
                if not self._enqueue(clause[0], clause_index):
                    keep.extend(watching[position:])
                    self._watches[lit] = keep
                    self._qhead = len(self._trail)
                    return clause_index
            self._watches[lit] = keep
        self._qhead = index
        return None

    # -- conflict analysis ------------------------------------------------

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = 0
        clause = self.clauses[conflict]
        trail_index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        while True:
            for reason_lit in clause:
                # Skip the literal asserted by this clause (any polarity).
                if lit != 0 and abs(reason_lit) == abs(lit):
                    continue
                var = abs(reason_lit)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(reason_lit)
            while abs(self._trail[trail_index]) not in seen:
                trail_index -= 1
            lit = -self._trail[trail_index]
            var = abs(lit)
            seen.discard(var)
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            reason = self._reason[var]
            assert reason is not None
            clause = self.clauses[reason]
        learnt.insert(0, lit)
        if len(learnt) == 1:
            return learnt, 0
        backtrack = max(self._level[abs(l)] for l in learnt[1:])
        return learnt, backtrack

    def _bump(self, var: int) -> None:
        self._activity[var] = self._activity.get(var, 0.0) + self._var_inc
        if self._activity[var] > 1e100:
            for key in self._activity:
                self._activity[key] *= 1e-100
            self._var_inc *= 1e-100

    def _cancel_until(self, level: int) -> None:
        while len(self._trail_lim) > level:
            limit = self._trail_lim.pop()
            while len(self._trail) > limit:
                lit = self._trail.pop()
                var = abs(lit)
                self._phase[var] = lit > 0
                del self._assign[var]
                del self._level[var]
                del self._reason[var]
        self._qhead = min(getattr(self, "_qhead", 0), len(self._trail))

    # -- search --------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if var not in self._assign:
                activity = self._activity.get(var, 0.0)
                if activity > best_activity:
                    best_activity = activity
                    best_var = var
        if best_var is None:
            return None
        return best_var if self._phase.get(best_var, False) else -best_var

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals."""
        if not self._ok:
            return False
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        restarts = 0
        conflicts_left = _luby(restarts) * 64
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if len(self._trail_lim) == 0:
                    self._cancel_until(0)
                    self._ok = False
                    return False
                learnt, backtrack = self._analyze(conflict)
                self._cancel_until(backtrack)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        return False
                else:
                    index = len(self.clauses)
                    self.clauses.append(learnt)
                    self._watch(learnt[0], index)
                    self._watch(learnt[1], index)
                    self._enqueue(learnt[0], index)
                self._var_inc /= 0.95
                conflicts_left -= 1
                if conflicts_left <= 0 and len(self._trail_lim) > len(assumptions):
                    restarts += 1
                    conflicts_left = _luby(restarts) * 64
                    self._cancel_until(len(assumptions))
                continue
            # Apply pending assumptions as pseudo-decisions.
            depth = len(self._trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                value = self._value(lit)
                if value is False:
                    self._cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if value is None:
                    self._enqueue(lit, None)
                continue
            decision = self._decide()
            if decision is None:
                return True
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def model(self) -> dict[int, bool]:
        """Assignment after a satisfiable :meth:`solve` call (unassigned
        variables default to False)."""
        return {
            var: self._assign.get(var, False)
            for var in range(1, self.num_vars + 1)
        }


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (MiniSat's recurrence)."""
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return 1 << sequence
