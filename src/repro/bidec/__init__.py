"""Symbolic bi-decomposition — the paper's core contribution
(Sections 3.3-3.4) plus the greedy and SAT baselines it is evaluated
against."""

from repro.bidec.api import (
    BiDecomposition,
    decompose_cone,
    decompose_interval,
    or_bidecompose,
    and_bidecompose,
    xor_bidecompose,
)
from repro.bidec.checks import (
    or_decomposable,
    and_decomposable,
    xor_decomposable,
    xor_decomposable_cs,
    xor_decomposable_quantified,
)
from repro.bidec.symbolic import (
    PartitionSpace,
    or_partition_space,
    and_partition_space,
    xor_partition_space,
    partition_space,
    prune_dominated_pairs,
)
from repro.bidec.extract import (
    ExtractedPair,
    extract,
    extract_or,
    extract_and,
    extract_xor,
    extract_xor_cs,
)
from repro.bidec.parameterize import (
    parameterized_forall,
    parameterized_exists,
    parameterized_replace,
    parameterized_replace_pair,
)
from repro.bidec.greedy import (
    greedy_or_partition,
    greedy_and_partition,
    greedy_xor_partition_fast,
    greedy_decompose,
    GreedyXorProfiler,
)
from repro.bidec.recursive import DecTree, decompose_recursive
from repro.bidec.backends import (
    available_backends,
    backend_for_interval,
    make_backend,
    register_backend,
)

__all__ = [
    "available_backends",
    "backend_for_interval",
    "make_backend",
    "register_backend",
    "BiDecomposition",
    "decompose_cone",
    "decompose_interval",
    "or_bidecompose",
    "and_bidecompose",
    "xor_bidecompose",
    "or_decomposable",
    "and_decomposable",
    "xor_decomposable",
    "xor_decomposable_cs",
    "xor_decomposable_quantified",
    "PartitionSpace",
    "or_partition_space",
    "and_partition_space",
    "xor_partition_space",
    "partition_space",
    "prune_dominated_pairs",
    "ExtractedPair",
    "extract",
    "extract_or",
    "extract_and",
    "extract_xor",
    "extract_xor_cs",
    "parameterized_forall",
    "parameterized_exists",
    "parameterized_replace",
    "parameterized_replace_pair",
    "greedy_or_partition",
    "greedy_and_partition",
    "greedy_xor_partition_fast",
    "greedy_decompose",
    "GreedyXorProfiler",
    "DecTree",
    "decompose_recursive",
]
