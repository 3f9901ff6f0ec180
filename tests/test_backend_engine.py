"""Engine/CLI/ledger integration for the decomposition backend layer:
``--backend`` round-trips through :class:`SynthesisOptions`,
checkpoint/resume, the run ledger's ``cones.backend`` column (visible
in ``repro history show``), and the ``parallel.dispatch`` artifact."""

import pytest

from repro.benchgen import generate_sequential_circuit
from repro.cli import main
from repro.network import outputs_equal, read_blif
from repro.synth import SynthesisOptions, algorithm1


def small_net(seed: int = 3):
    return generate_sequential_circuit(
        f"bk{seed}", num_inputs=3, num_outputs=3, num_latches=5,
        counter_fraction=0.5, seed=seed,
    )


@pytest.fixture
def net_path(tmp_path):
    from repro.network import save_blif

    path = tmp_path / "bk.blif"
    save_blif(small_net(), str(path))
    return str(path)


class TestOptionsRoundTrip:
    def test_backend_round_trips_through_dict(self):
        options = SynthesisOptions(backend="sat-cegar", cegar_iterations=99)
        data = options.to_dict()
        assert data["backend"] == "sat-cegar"
        assert data["cegar_iterations"] == 99
        restored = SynthesisOptions.from_dict(data)
        assert restored.backend == "sat-cegar"
        assert restored.cegar_iterations == 99

    def test_defaults_stay_bdd(self):
        assert SynthesisOptions().backend == "bdd"
        assert SynthesisOptions().cegar_iterations == 512


class TestEngineRecords:
    def test_serial_records_carry_backend(self):
        net = small_net()
        report = algorithm1(net.copy(), SynthesisOptions(backend="sat-cegar"))
        assert outputs_equal(net, report.network, cycles=24)
        done = [r for r in report.records if r.action == "decomposed"]
        assert done and all(r.backend == "sat-cegar" for r in done)

    def test_parallel_records_and_dispatch_artifact(self):
        net = small_net()
        report = algorithm1(
            net.copy(),
            SynthesisOptions(backend="sat-cegar", parallel_workers=2),
        )
        assert outputs_equal(net, report.network, cycles=24)
        done = [r for r in report.records if r.action == "decomposed"]
        assert done and all(r.backend == "sat-cegar" for r in done)
        dispatch = report.artifacts["parallel.dispatch"]
        assert dispatch["backend_option"] == "sat-cegar"
        assert dispatch["backends"]  # sink -> routed backend
        assert set(dispatch["backends"].values()) == {"sat-cegar"}

    def test_sat_backend_matches_bdd_sequentially(self):
        """The whole-pipeline differential check: both backends produce
        sequentially equivalent (not identical) networks."""
        net = small_net(seed=5)
        r_bdd = algorithm1(net.copy(), SynthesisOptions(backend="bdd"))
        r_sat = algorithm1(net.copy(), SynthesisOptions(backend="sat-cegar"))
        assert outputs_equal(net, r_bdd.network, cycles=24)
        assert outputs_equal(net, r_sat.network, cycles=24)


class TestCliAndLedger:
    def test_backend_flag_checkpoint_resume(self, net_path, tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        out_path = str(tmp_path / "out.blif")
        assert main([
            "optimize", net_path, "-o", out_path,
            "--backend", "sat-cegar", "--checkpoint", checkpoint,
        ]) == 0
        resumed_path = str(tmp_path / "resumed.blif")
        assert main([
            "optimize", net_path, "-o", resumed_path,
            "--backend", "sat-cegar", "--checkpoint", checkpoint,
            "--resume",
        ]) == 0
        assert outputs_equal(
            read_blif(out_path), read_blif(resumed_path), cycles=40
        )

    def test_ledger_backend_column_and_history_show(
        self, net_path, tmp_path, capsys
    ):
        ledger_path = str(tmp_path / "runs.db")
        out_path = str(tmp_path / "out.blif")
        assert main([
            "optimize", net_path, "-o", out_path,
            "--backend", "sat-cegar", "--workers", "2",
            "--ledger", ledger_path,
        ]) == 0
        capsys.readouterr()

        from repro.obs.ledger import RunLedger

        ledger = RunLedger(ledger_path)
        runs = ledger.runs()
        assert runs
        cones = ledger.cones(runs[0]["id"])
        ledger.close()
        decomposed = [c for c in cones if c["action"] == "decomposed"]
        assert decomposed
        assert all(c["backend"] == "sat-cegar" for c in decomposed)

        assert main(
            ["history", "show", runs[0]["id"], "--ledger", ledger_path]
        ) == 0
        out = capsys.readouterr().out
        assert "sat-cegar" in out

    def test_workers_bit_identical_across_counts(self, net_path, tmp_path):
        """--backend sat-cegar output is invariant in the worker count
        (each cone's search depends on the cone, not the schedule)."""
        outs = []
        for workers in (1, 2, 4):
            out_path = str(tmp_path / f"w{workers}.blif")
            assert main([
                "optimize", net_path, "-o", out_path,
                "--backend", "sat-cegar", "--workers", str(workers),
            ]) == 0
            outs.append(open(out_path).read())
        assert outs[0] == outs[1] == outs[2]
