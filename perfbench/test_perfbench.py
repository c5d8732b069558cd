"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, artifact_problems, write_grid  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    t = Tracer()
    root = t.record("cli.main", 0.0, 10.0, -1)
    solve = t.record("solver.solve_poisson", 1.0, 4.0, root)
    t.record("operators.energy", 2.0, 3.0, solve)
    t.record("solver.solve_poisson", 5.0, 6.0, root)
    summary = t.summary()
    assert summary["cli.main"] == (1, pytest.approx(6.0))
    assert summary["solver.solve_poisson"] == (2, pytest.approx(3.0))
    assert summary["operators.energy"] == (1, pytest.approx(1.0))


def test_bindings_are_wrapped_then_restored(tmp_path):
    import resnet.cli
    import resnet.kernels
    import resnet.network
    import resnet.solver

    before, _ = Tracer.bindings()
    solve = resnet.solver.solve_poisson
    assert any(owner is resnet.kernels and attr == "solve_poisson"
               for owner, attr, _ in before)
    tracer = Tracer()
    with tracer.installed():
        assert resnet.kernels.solve_poisson is not solve
        assert resnet.network.Network.boundary_of.__wrapped__ is not None
        code = resnet.cli.main(["transience", "--model", "geom-zplus", "--c", "2",
                                "--radius", "12", "--walks", "50", "--steps", "50",
                                "-o", str(tmp_path / "out.json")])
    assert code == 0
    for owner, attr, fn in before:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"cli.main", "transience.classify", "kernels.monopole",
            "solver.solve_poisson"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["solver.solve_poisson.calls"] > 0
    assert metrics["randomwalk.walks"] == 50
    artifact = (tmp_path / "out.json").read_bytes()
    assert metrics["serialize.bytes"] == len(artifact.rstrip(b"\n"))


def test_grid_depends_only_on_seed(tmp_path):
    write_grid(tmp_path / "a", 7)
    write_grid(tmp_path / "b", 7)
    write_grid(tmp_path / "c", 8)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


GOOD = {
    "report-grid": {"transience": {"verdict": "recurrent"}, "harmonic_dimension": 0},
    "gaussgreen-log": {"verdict": "exhaustion-dependent",
                       "stages": [[3, 4, 1.0, 0.5, 0.5, 1e-14]]},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_expected_output(name):
    assert artifact_problems(WORKLOADS[name], 0, json.dumps(GOOD[name])) == []


@pytest.mark.parametrize("name, payload", [
    ("report-grid", dict(GOOD["report-grid"], harmonic_dimension=1)),
    ("report-grid", dict(GOOD["report-grid"], transience={"verdict": "inconclusive"})),
    ("gaussgreen-log", dict(GOOD["gaussgreen-log"], verdict="identity-holds")),
    ("gaussgreen-log", {"verdict": "exhaustion-dependent",
                        "stages": [[3, 4, 1.0, 0.5, 0.5, 1e-6]]}),
])
def test_check_rejects_wrong_output(name, payload):
    assert artifact_problems(WORKLOADS[name], 0, json.dumps(payload))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_corrupt_artifact_and_failed_exit(name):
    text = json.dumps(GOOD[name])
    assert artifact_problems(WORKLOADS[name], 0, text[: len(text) // 2])
    assert artifact_problems(WORKLOADS[name], 2, text)


def test_differing_artifact_bytes_count_as_failed(tmp_path, monkeypatch):
    texts = iter([json.dumps(GOOD["gaussgreen-log"]),
                  json.dumps(GOOD["gaussgreen-log"]) + " "])

    def fake_invoke(argv, spans, deadline):
        Path(argv[-1]).write_text(next(texts))
        return {"exit": 0}, []

    monkeypatch.setattr(bench, "invoke", fake_invoke)
    run = bench.Run(WORKLOADS["gaussgreen-log"], 1, tmp_path)
    run.invocation(False, 0.0)
    run.invocation(False, 0.0)
    assert (run.attempted, run.failed) == (2, 1)


def test_times_are_reported_at_the_reference_speed(monkeypatch):
    # The processor ran at half the reference speed: times halve, memory stays.
    monkeypatch.setattr(bench, "time_reference", lambda: 2 * bench.REFERENCE_S)

    def fake_invocation(run, traced, deadline):
        run.attempted += 1
        return {"setup_s": 0.5, "wall_s": 2.0, "exit": 0, "peak_rss_mb": 100.0}

    monkeypatch.setattr(bench.Run, "invocation", fake_invocation)
    metrics = bench.measure(WORKLOADS["gaussgreen-log"], 1, 0.0, False)["metrics"]
    assert metrics["setup_s"]["value"] == pytest.approx(0.25)
    assert metrics["wall_s"]["value"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"]["value"] == 100.0
