"""Pass-pipeline synthesis engine.

The engine re-expresses Algorithm 1 as an explicit pipeline of passes
over a shared :class:`SynthesisContext`:

* :class:`ResourceGovernor` — global wall-clock and BDD-node budgets,
  checked at pass boundaries (and per signal inside the decompose
  pass); exhaustion degrades gracefully to structural copy, never
  raises.
* :func:`decompose_sink` — Algorithm 1's per-sink step (collapse,
  widen, bi-decompose, accept, instantiate), shared by the serial pass
  and the parallel worker.
* :class:`Pass` / :class:`Pipeline` — the stage protocol, a registry of
  standard passes (``cleanup``, ``dontcares``, ``decompose``,
  ``finalize``, ``sweep``, ``strash``), and a builder with declarative
  dict/JSON config for the CLI's ``--pipeline-config``.
* checkpoint/resume — pass-boundary serialization of pipeline position
  + network state, so long runs can be killed and resumed
  (:func:`save_checkpoint` / :func:`resume_pipeline`).
* :class:`ParallelConeScheduler` / ``decompose_parallel`` — per-cone
  process-pool sharding of the decompose loop with deterministic merge
  order (bit-identical across worker counts) and per-worker failure
  degradation.

``repro.synth.algorithm1`` and ``repro.synth.resynthesis`` are thin
wrappers that assemble standard pipelines on top of this package.
"""

from repro.engine.checkpoint import (
    load_checkpoint,
    network_from_dict,
    network_to_dict,
    restore_context,
    resume_pipeline,
    save_checkpoint,
)
from repro.engine.context import (
    SignalRecord,
    SynthesisContext,
    SynthesisOptions,
    SynthesisReport,
)
from repro.engine.governor import ResourceGovernor
from repro.engine.passes import (
    DecomposePass,
    DontCarePass,
    FinalizePass,
    LatchCleanupPass,
    Pass,
    StrashPass,
    SweepPass,
    available_passes,
    decompose_sink,
    make_pass,
    register_pass,
)
from repro.engine.pipeline import Pipeline, standard_pipeline

# Imported last: parallel pulls in repro.synth.conetask, whose package
# init reaches back into repro.engine — by this point every name it
# needs is bound.  The import also registers the "decompose_parallel"
# pass as a side effect.
from repro.engine.parallel import (  # noqa: E402
    ConeShardAborted,
    DecomposeParallelPass,
    ParallelConeScheduler,
)

__all__ = [
    "ConeShardAborted",
    "DecomposeParallelPass",
    "DecomposePass",
    "ParallelConeScheduler",
    "DontCarePass",
    "FinalizePass",
    "LatchCleanupPass",
    "Pass",
    "Pipeline",
    "ResourceGovernor",
    "SignalRecord",
    "StrashPass",
    "SweepPass",
    "SynthesisContext",
    "SynthesisOptions",
    "SynthesisReport",
    "available_passes",
    "decompose_sink",
    "load_checkpoint",
    "make_pass",
    "network_from_dict",
    "network_to_dict",
    "register_pass",
    "restore_context",
    "resume_pipeline",
    "save_checkpoint",
    "standard_pipeline",
]
