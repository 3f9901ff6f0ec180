"""Pins the command-line surface: every subcommand's option strings,
the defaults and choices of the knob flags, and the exact
``SynthesisOptions`` the optimize/resynth flags hand to the engine."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from test_cli import DEMO

OBS = {"--profile", "--stats-json"}
LIVE = {
    "--trace", "--status-file", "--monitor-interval", "--crash-dump",
    "--metrics-file", "--metrics-port", "--log-json", "--ledger",
}
SYNTHESIS = {
    "--no-states", "--dc-source", "--partition-size", "--max-support",
    "--cone-inputs", "--objective", "--acceptance-ratio", "--no-sharing",
    "--time-budget", "--node-budget", "--workers", "--worker-timeout",
    "--auto-reorder", "--reorder-threshold", "--backend",
    "--cegar-iterations",
}

OPTION_STRINGS = {
    "stats": {"--bdd", "--max-cone-inputs"},
    "optimize": {"-o", "--output", "--pipeline-config", "--checkpoint",
                 "--resume"} | SYNTHESIS | OBS | LIVE,
    "resynth": {"-o", "--output", "--rounds"} | SYNTHESIS | OBS | LIVE,
    "map": {"--library", "--mode", "--optimize"} | OBS,
    "reach": {"--partition-size", "--time-budget"} | OBS,
    "decompose": {"--partition-size"} | OBS,
    "profile": {"--workload", "--time-budget", "--stats-json"} | LIVE,
    "trace": {"--convert", "--top"},
    "history list": {"--ledger", "--command", "--input", "--limit"},
    "history show": {"--ledger", "--top"},
    "history compare": {"--ledger", "--command", "--input",
                        "--wall-threshold"},
    "history regressions": {"--ledger", "--wall-threshold"},
    "history export": {"--ledger", "-o", "--output"},
    "top": {"--status-file", "--metrics-file", "--interval", "--iterations",
            "--once", "--no-clear"},
    "check": {"--sat", "--sequential"},
    "simulate": {"-o", "--output", "--cycles", "--seed"},
    "convert": {"-o", "--output"},
    "generate": {"-o", "--output", "--scale"},
}

#: Every optimize/resynth synthesis flag set away from its default.
NON_DEFAULT_FLAGS = [
    "--no-states", "--dc-source", "induction", "--partition-size", "7",
    "--max-support", "9", "--cone-inputs", "11", "--objective", "min_total",
    "--acceptance-ratio", "1.5", "--no-sharing", "--time-budget", "30",
    "--node-budget", "100000", "--workers", "2", "--worker-timeout", "5",
    "--auto-reorder", "--reorder-threshold", "1234", "--backend",
    "sat-cegar", "--cegar-iterations", "64",
]

DEFAULT_OPTIONS = {
    "use_unreachable_states": True,
    "dc_source": "reachability",
    "max_partition_size": 16,
    "reach_time_budget": 20.0,
    "max_support": 12,
    "max_cone_inputs": 20,
    "gates": ["or", "and", "xor"],
    "objective": "balanced",
    "enable_sharing": True,
    "sharing_choice": False,
    "acceptance_ratio": 1.25,
    "preprocess_latches": True,
    "time_budget": None,
    "node_budget": None,
    "parallel_workers": 0,
    "worker_timeout": None,
    "auto_reorder": False,
    "reorder_threshold": 50000,
    "backend": "bdd",
    "cegar_iterations": 512,
}

NON_DEFAULT_OPTIONS = {
    **DEFAULT_OPTIONS,
    "use_unreachable_states": False,
    "dc_source": "induction",
    "max_partition_size": 7,
    "max_support": 9,
    "max_cone_inputs": 11,
    "objective": "min_total",
    "acceptance_ratio": 1.5,
    "enable_sharing": False,
    "time_budget": 30.0,
    "node_budget": 100000,
    "parallel_workers": 2,
    "worker_timeout": 5.0,
    "auto_reorder": True,
    "reorder_threshold": 1234,
    "backend": "sat-cegar",
    "cegar_iterations": 64,
}


def _commands(parser, prefix=""):
    """``{"history show": subparser, ...}`` for every leaf command."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                full = f"{prefix} {name}".strip()
                found.update(_commands(sub, full) or {full: sub})
    return found


def _flags(command):
    """``{option_string: action}`` of one leaf command."""
    return {
        string: action
        for action in _commands(build_parser())[command]._actions
        for string in action.option_strings
        if string not in ("-h", "--help")
    }


class _Captured(Exception):
    pass


def _canonical(options):
    """The options as sorted JSON, so an int where a float was (or the
    reverse) shows up as a difference."""
    return json.dumps(options.to_dict(), sort_keys=True)


@pytest.fixture
def capture(monkeypatch):
    """Replace the synthesis entry points with ones that record the
    options they receive and stop the command there."""
    import repro.synth

    seen = []

    def record(network, options, *args, **kwargs):
        seen.append(options)
        raise _Captured

    monkeypatch.setattr(repro.synth, "algorithm1", record)
    monkeypatch.setattr(repro.synth, "resynthesis_loop", record)
    return seen


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.blif"
    path.write_text(DEMO)
    return str(path)


class TestOptionStrings:
    def test_every_command_is_pinned(self):
        assert set(_commands(build_parser())) == set(OPTION_STRINGS)

    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_option_strings(self, command):
        assert set(_flags(command)) == OPTION_STRINGS[command]


class TestKnobDefaults:
    @pytest.mark.parametrize("command", ["optimize", "resynth"])
    def test_synthesis_flag_defaults_and_choices(self, command):
        flags = _flags(command)
        defaults = {
            flag: flags[flag].default
            for flag in SYNTHESIS
            if flags[flag].nargs != 0
        }
        assert defaults == {
            "--dc-source": "reachability", "--partition-size": 16,
            "--max-support": 12, "--cone-inputs": 20,
            "--objective": "balanced", "--acceptance-ratio": 1.25,
            "--time-budget": None, "--node-budget": None, "--workers": 0,
            "--worker-timeout": None, "--reorder-threshold": 50000,
            "--backend": "bdd", "--cegar-iterations": 512,
        }
        choices = {
            flag: tuple(action.choices)
            for flag, action in flags.items()
            if action.choices is not None
        }
        assert choices == {
            "--dc-source": ("reachability", "induction"),
            "--objective": ("balanced", "min_total"),
            "--backend": ("bdd", "sat-cegar"),
        }

    @pytest.mark.parametrize(
        "command, flag, default",
        [
            ("reach", "--partition-size", 16),
            ("reach", "--time-budget", 20.0),
            ("decompose", "--partition-size", 16),
            ("stats", "--max-cone-inputs", 20),
            ("profile", "--time-budget", None),
        ],
    )
    def test_repeated_knob_defaults(self, command, flag, default):
        action = _flags(command)[flag]
        assert action.default == default
        assert type(action.default) is type(default)

    @pytest.mark.parametrize(
        "command, flag, value, expected",
        [
            ("reach", "--partition-size", "5", 5),
            ("reach", "--time-budget", "2.5", 2.5),
            ("decompose", "--partition-size", "5", 5),
            ("stats", "--max-cone-inputs", "5", 5),
            ("profile", "--time-budget", "3", 3.0),
        ],
    )
    def test_repeated_knob_types(self, command, flag, value, expected):
        action = _flags(command)[flag]
        converted = action.type(value)
        assert converted == expected
        assert type(converted) is type(expected)


class TestOptionsReachEngine:
    @pytest.mark.parametrize("command", ["optimize", "resynth"])
    def test_defaults(self, command, capture, demo_path, tmp_path):
        argv = [command, demo_path, "-o", str(tmp_path / "out.blif")]
        with pytest.raises(_Captured):
            main(argv)
        (options,) = capture
        assert _canonical(options) == json.dumps(
            DEFAULT_OPTIONS, sort_keys=True
        )

    @pytest.mark.parametrize("command", ["optimize", "resynth"])
    def test_every_flag_lands(self, command, capture, demo_path, tmp_path):
        argv = [command, demo_path, "-o", str(tmp_path / "out.blif")]
        with pytest.raises(_Captured):
            main(argv + NON_DEFAULT_FLAGS)
        (options,) = capture
        assert _canonical(options) == json.dumps(
            NON_DEFAULT_OPTIONS, sort_keys=True
        )

    def test_pipeline_config_options_override_flags(
        self, capture, demo_path, tmp_path
    ):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "options": {"max_support": 10, "reach_time_budget": 4.0},
            "passes": ["cleanup", "decompose", "finalize"],
        }))
        argv = [
            "optimize", demo_path, "-o", str(tmp_path / "out.blif"),
            "--pipeline-config", str(config),
        ]
        with pytest.raises(_Captured):
            main(argv + NON_DEFAULT_FLAGS)
        (options,) = capture
        assert _canonical(options) == json.dumps(
            {**NON_DEFAULT_OPTIONS, "max_support": 10,
             "reach_time_budget": 4.0},
            sort_keys=True,
        )
