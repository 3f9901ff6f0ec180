"""Every route that builds synthesis options checks their values before
any pass runs: the constructor, pipeline pass params, checkpoint
restore and ``--pipeline-config``."""

import json

import pytest

from repro.cli import main
from repro.engine import Pipeline, SynthesisOptions
from repro.engine.checkpoint import restore_context
from repro.network import parse_blif
from repro.synth import algorithm1
from test_cli import DEMO


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.blif"
    path.write_text(DEMO)
    return str(path)


class TestConstructor:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_unknown_backend(self, workers):
        """Both the serial and the parallel path used to start the run:
        one raised inside the decompose pass, the other copied every
        cone and called the run degraded."""
        with pytest.raises(ValueError, match="backend='sat'.*'sat-cegar'"):
            SynthesisOptions(backend="sat", parallel_workers=workers)

    @pytest.mark.parametrize(
        "field, value, allowed",
        [
            ("objective", "fast", "'balanced', 'min_total'"),
            ("dc_source", "tea-leaves", "'reachability', 'induction'"),
            ("gates", ("or", "nand"), "'or', 'and', 'xor'"),
            ("gates", (), "'or', 'and', 'xor'"),
            ("max_support", "10", "expected int"),
            ("max_support", True, "expected int"),
            ("acceptance_ratio", "1.5", "expected float"),
            ("time_budget", "30", "expected float or None"),
            ("enable_sharing", 1, "expected bool"),
        ],
    )
    def test_bad_value_names_field_and_allowed(self, field, value, allowed):
        with pytest.raises(ValueError) as excinfo:
            SynthesisOptions(**{field: value})
        assert f"{field}=" in str(excinfo.value)
        assert allowed in str(excinfo.value)

    def test_good_values_pass(self):
        options = SynthesisOptions(
            gates=["or", "xor"], acceptance_ratio=1, time_budget=None,
            backend="sat-cegar", objective="min_total", dc_source="induction",
        )
        assert options.gates == ("or", "xor")

    def test_from_dict_checks_merged_values(self):
        base = SynthesisOptions(parallel_workers=2)
        with pytest.raises(ValueError, match="objective='fast'"):
            SynthesisOptions.from_dict({"objective": "fast"}, base=base)


class TestPipelineEntries:
    def test_pass_param_naming_an_option_is_checked(self):
        with pytest.raises(ValueError, match="objective='fast'"):
            Pipeline.from_config(
                {"passes": [{"pass": "decompose_parallel", "objective": "fast"}]}
            )
        with pytest.raises(ValueError, match="backend='sat'"):
            Pipeline().add("decompose", backend="sat")

    def test_other_params_pass_through(self):
        pipeline = Pipeline([
            {"pass": "decompose_parallel", "fault_spec": {"x": "raise"},
             "_abort_after_merges": 3, "max_support": 9},
        ])
        (pass_,) = pipeline.passes
        assert pass_.params == {
            "fault_spec": {"x": "raise"}, "_abort_after_merges": 3,
            "max_support": 9,
        }

    def test_checkpoint_restore_is_checked(self, tmp_path):
        checkpoint = tmp_path / "run.json"
        algorithm1(parse_blif(DEMO), checkpoint=str(checkpoint))
        data = json.loads(checkpoint.read_text())
        data["options"]["backend"] = "sat"
        with pytest.raises(ValueError, match="backend='sat'"):
            restore_context(data)

    def test_checkpoint_naming_deleted_auto_backend(self, tmp_path):
        """``auto`` is no longer a backend: a checkpoint written with it
        fails on restore like any other unknown value."""
        checkpoint = tmp_path / "run.json"
        algorithm1(parse_blif(DEMO), checkpoint=str(checkpoint))
        data = json.loads(checkpoint.read_text())
        data["options"]["backend"] = "auto"
        with pytest.raises(
            ValueError, match="backend='auto'.*'bdd', 'sat-cegar'$"
        ):
            restore_context(data)


class TestPipelineConfigCli:
    def _optimize(self, demo_path, tmp_path, config, *flags):
        path = tmp_path / "pipe.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "out.blif"
        code = main([
            "optimize", demo_path, "-o", str(out),
            "--pipeline-config", str(path), *flags,
        ])
        return code, out

    @pytest.mark.parametrize(
        "config, names",
        [
            ({"options": {"backend": "sat"},
              "passes": ["cleanup", "dontcares", "decompose_parallel",
                         "finalize"]},
             ["backend", "'bdd', 'sat-cegar'"]),
            ({"options": {"objective": "fast"}},
             ["objective", "'balanced', 'min_total'"]),
            ({"options": {"backend": "auto"}},
             ["backend='auto'", "'bdd', 'sat-cegar'"]),
            ({"passes": [{"pass": "decompose_parallel",
                          "objective": "fast"}]},
             ["objective", "'balanced', 'min_total'"]),
            ({"options": {"bogus": 1}}, ["'bogus'", "max_support"]),
            ('{"options": ', []),
            ("[]", []),
        ],
        ids=["bad-value", "bad-value-no-passes", "deleted-auto-backend",
             "bad-pass-param", "unknown-key", "unparsable", "not-an-object"],
    )
    def test_bad_config_is_one_error_line(
        self, config, names, demo_path, tmp_path, capsys
    ):
        code, out = self._optimize(
            demo_path, tmp_path, config, "--workers", "2"
        )
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error: ") and "pipe.json" in line
        for name in names:
            assert name in line

    def test_options_only_config_runs_standard_pipeline(
        self, demo_path, tmp_path, capsys
    ):
        code, out = self._optimize(
            demo_path, tmp_path, {"options": {"max_support": 10}}
        )
        assert code == 0
        assert "decomposed 0 signals" not in capsys.readouterr().out
        flagged = tmp_path / "flagged.blif"
        assert main([
            "optimize", demo_path, "-o", str(flagged), "--max-support", "10",
        ]) == 0
        assert out.read_text() == flagged.read_text()

    def test_explicit_empty_passes_copies(self, demo_path, tmp_path, capsys):
        code, out = self._optimize(
            demo_path, tmp_path, {"options": {"max_support": 10}, "passes": []}
        )
        assert code == 0
        assert "literals 19 -> 19" in capsys.readouterr().out
