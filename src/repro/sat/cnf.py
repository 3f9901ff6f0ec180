"""CNF construction: Tseitin encodings of network cones and BDDs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.sat.solver import Solver

if TYPE_CHECKING:  # break the repro.network <-> repro.sat import cycle
    from repro.network.netlist import Network


class CnfBuilder:
    """Collects clauses and variable bookkeeping before handing them to a
    :class:`Solver` (or for DIMACS export)."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *literals: int) -> None:
        self.clauses.append(list(literals))

    def add_and(self, output: int, inputs: Sequence[int]) -> None:
        """``output <-> AND(inputs)``."""
        for literal in inputs:
            self.add(-output, literal)
        self.add(output, *[-literal for literal in inputs])

    def add_or(self, output: int, inputs: Sequence[int]) -> None:
        """``output <-> OR(inputs)``."""
        for literal in inputs:
            self.add(output, -literal)
        self.add(-output, *list(inputs))

    def add_xor2(self, output: int, a: int, b: int) -> None:
        """``output <-> a XOR b``."""
        self.add(-output, a, b)
        self.add(-output, -a, -b)
        self.add(output, -a, b)
        self.add(output, a, -b)

    def add_mux(self, output: int, select: int, hi: int, lo: int) -> None:
        """``output <-> (select ? hi : lo)``."""
        self.add(-select, -hi, output)
        self.add(-select, hi, -output)
        self.add(select, -lo, output)
        self.add(select, lo, -output)

    def to_solver(self) -> Solver:
        solver = Solver()
        solver.num_vars = self.num_vars
        solver.add_clauses(self.clauses)
        return solver

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(
            " ".join(str(lit) for lit in clause) + " 0" for clause in self.clauses
        )
        return "\n".join(lines) + "\n"


def encode_cone(
    network: Network,
    sink: str,
    source_literals: Mapping[str, int],
    builder: CnfBuilder,
) -> int:
    """Tseitin-encode the combinational cone of ``sink``; returns the
    literal of the sink signal.  ``source_literals`` maps every source in
    the cone to an existing CNF literal (reuse the map across calls to
    share source variables between function copies)."""
    cone = network.transitive_fanin([sink])
    literal_of: dict[str, int] = dict(source_literals)
    constants: dict[str, Optional[bool]] = {}
    for name in network.topological_order():
        if name not in cone or name in literal_of:
            continue
        node = network.nodes[name]
        inputs = [literal_of[f] for f in node.fanins]
        if node.op == "buf":
            literal_of[name] = inputs[0]
            continue
        output = builder.new_var()
        if node.op == "and":
            builder.add_and(output, inputs)
        elif node.op == "or":
            builder.add_or(output, inputs)
        elif node.op == "not":
            literal_of[name] = -inputs[0]
            continue
        elif node.op == "xor":
            current = inputs[0]
            for literal in inputs[1:]:
                mid = builder.new_var()
                builder.add_xor2(mid, current, literal)
                current = mid
            literal_of[name] = current
            continue
        elif node.op == "const0":
            builder.add(-output)
        elif node.op == "const1":
            builder.add(output)
        elif node.op == "cover":
            assert node.cover is not None
            cube_literals = []
            for cube in node.cover:
                terms = [
                    inputs[pos] if pol else -inputs[pos]
                    for pos, pol in cube.literals
                ]
                if len(terms) == 1:
                    cube_literals.append(terms[0])
                else:
                    cube_out = builder.new_var()
                    builder.add_and(cube_out, terms)
                    cube_literals.append(cube_out)
            builder.add_or(output, cube_literals)
        else:
            raise ValueError(f"cannot encode node op {node.op!r}")
        literal_of[name] = output
    return literal_of[sink]


def encode_bdd(
    manager: BDDManager,
    root: int,
    variable_literals: Mapping[int, int],
    builder: CnfBuilder,
) -> int:
    """Tseitin-encode a BDD as a multiplexer network; returns the root
    literal.  ``variable_literals`` maps BDD variables to CNF literals."""
    true_literal = builder.new_var()
    builder.add(true_literal)
    literal_of: dict[int, int] = {TRUE: true_literal, FALSE: -true_literal}

    def walk(node: int) -> int:
        cached = literal_of.get(node)
        if cached is not None:
            return cached
        select = variable_literals[manager.top_var(node)]
        hi = walk(manager.hi(node))
        lo = walk(manager.lo(node))
        output = builder.new_var()
        builder.add_mux(output, select, hi, lo)
        literal_of[node] = output
        return output

    try:
        return walk(root)
    finally:
        del walk  # it holds itself (and the manager) through its closure
