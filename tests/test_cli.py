import json
import os
import subprocess
import sys
import time
import tokenize
import tracemalloc
import warnings

import pytest

import resnet.cli
from resnet import solver
from resnet.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def test_gen_writes_schema(tmp_path):
    out = tmp_path / "net.json"
    code = main(["gen", "--model", "geom-z", "--c", "2", "--radius", "30",
                 "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == {"model": "geom_z", "params": {"c": 2.0}, "radius": 30}


def test_gen_round_trip_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen", "--model", "star", "--c", "2", "--arms", "3",
                 "--radius", "9", "-o", str(first)]) == 0
    assert main(["gen", "--net", str(first), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_explicit_net_round_trip(tmp_path):
    src = tmp_path / "explicit.json"
    src.write_text(json.dumps({
        "origin": 0,
        "vertices": [0, 1, 2],
        "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 2.0}],
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["gen", "--net", str(src), "-o", str(out1)]) == 0
    assert main(["gen", "--net", str(out1), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gaussgreen_harmonic_boundary_csv(tmp_path):
    net = tmp_path / "net.json"
    assert main(["gen", "--model", "geom-z", "--c", "2", "--radius", "30",
                 "-o", str(net)]) == 0
    out = tmp_path / "gg.csv"
    code = main(["gaussgreen", "--net", str(net), "--u", "harm", "--v", "harm",
                 "--plan", "balls:1..25", "--format", "csv", "-o", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    boundary_idx = header.index("boundary_sum")
    last_boundary = float(lines[-1].split(",")[boundary_idx])
    assert last_boundary == pytest.approx(1.0, abs=1e-6)
    meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert not any("seed" in l for l in meta)  # gaussgreen reads no seed
    assert any("plan: balls:1..25" in l for l in meta)


def test_transience_unit_line(tmp_path):
    out = tmp_path / "verdict.json"
    code = main(["transience", "--model", "unit-line", "--radius", "2000",
                 "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "recurrent"
    assert abs(payload["evidence"]["grounded"]["u_o"]) < 1e-3
    assert payload["config"]["seed"] == 0


def test_transience_transient_model(tmp_path):
    out = tmp_path / "verdict.json"
    code = main(["transience", "--model", "geom-zplus", "--c", "2",
                 "--radius", "40", "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "transient"


def test_kernel_csv(tmp_path):
    out = tmp_path / "v2.csv"
    code = main(["kernel", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--plan", "balls:1..30", "--x", "2", "--format", "csv",
                 "-o", str(out)])
    assert code == 0
    rows = {line.split(",")[0]: float(line.split(",")[1])
            for line in out.read_text().splitlines()
            if not line.startswith("#") and not line.startswith("vertex")}
    assert rows["1"] == pytest.approx(0.5, abs=1e-8)
    assert rows["-3"] == pytest.approx(0.0, abs=1e-8)


def test_monopole_json(tmp_path):
    out = tmp_path / "w.json"
    code = main(["monopole", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--plan", "balls:1..30", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["stage_energies"][-1] == pytest.approx(0.5, abs=1e-6)


def test_resistance_verb(tmp_path):
    out = tmp_path / "r.json"
    code = main(["resistance", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--plan", "balls:1..30", "--x", "0", "--y", "1", "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["resistance"] == pytest.approx(0.5, abs=1e-6)


def test_walk_green_verb(tmp_path):
    out = tmp_path / "g.json"
    code = main(["walk", "--model", "geom-zplus", "--c", "2", "--radius", "40",
                 "--op", "green", "--x", "0", "--walks", "20000",
                 "--steps", "5000", "--seed", "11", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["estimate"] - 2.0) < 4 * payload["stderr"]
    assert payload["seed"] == 11


def test_unknown_model_exits_2(tmp_path):
    assert main(["gen", "--model", "klein-bottle", "-o",
                 str(tmp_path / "x.json")]) == 2


def test_malformed_net_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["gen", "--net", str(bad), "-o", str(tmp_path / "x.json")]) == 2


def test_missing_net_exits_2(tmp_path):
    assert main(["gen", "--net", str(tmp_path / "absent.json"),
                 "-o", str(tmp_path / "x.json")]) == 2


def test_nonconvergent_gaussgreen_exits_3_with_trace(tmp_path):
    net = tmp_path / "net.json"
    assert main(["gen", "--model", "log-increment-line", "--radius", "128",
                 "-o", str(net)]) == 0
    out = tmp_path / "gg.csv"
    code = main(["gaussgreen", "--net", str(net), "--u", "logu", "--v", "logu",
                 "--plan", "radii:2^k", "--format", "csv", "-o", str(out)])
    assert code == 3
    assert out.exists() and "boundary_sum" in out.read_text()


def test_determinism_across_runs(tmp_path):
    args = ["walk", "--model", "geom-zplus", "--c", "2", "--radius", "30",
            "--op", "escape", "--radii", "2,4,8", "--walks", "5000",
            "--steps", "4000", "--seed", "21"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RESNET_SEED", "777")
    out = tmp_path / "v.json"
    assert main(["transience", "--model", "geom-zplus", "--c", "2",
                 "--radius", "40", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 777


def test_bad_seed_env_exits_2_unless_seed_given(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RESNET_SEED", "abc")
    out = tmp_path / "w.json"
    argv = ["walk", "--model", "unit-line", "--radius", "10", "--op", "escape",
            "--radii", "2", "--walks", "10", "--steps", "10", "-o", str(out)]
    assert main(argv + ["--seed", "3"]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 3)])
def test_a_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "w.json"
    argv = ["walk", "--model", "unit-line", "--radius", "10", "--op", "green",
            "--walks", "50", "--steps", "20", "--seed", seed, "-o", str(out)]
    assert main(argv) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_walk_hitting_verb(tmp_path):
    net = tmp_path / "path.json"
    net.write_text(json.dumps({
        "origin": 0,
        "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}],
    }))
    out = tmp_path / "h.json"
    code = main(["walk", "--net", str(net), "--op", "hitting", "--x", "2",
                 "--absorber", "0", "--start", "1", "--walks", "20000",
                 "--steps", "10000", "--seed", "5", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["estimate"] - 0.5) < 4 * payload["stderr"]


def test_gaussgreen_kernel_preset_and_alt_plan(tmp_path):
    out = tmp_path / "gg.json"
    code = main(["gaussgreen", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--u", "w_o", "--v", "v:x=2", "--plan", "balls:1..28",
                 "--alt-plan", "radii:2^k", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "identity-holds"
    assert abs(payload["boundary_limit"]) < 1e-6
    assert payload["meta"]["alt_descriptor"] == "radii:2^k"
    assert abs(payload["meta"]["alt_boundary_limit"]) < 1e-6


def test_gaussgreen_csv_records_alt_plan(tmp_path):
    out = tmp_path / "gg.csv"
    code = main(["gaussgreen", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--u", "w_o", "--v", "v:x=2", "--plan", "balls:1..28",
                 "--alt-plan", "radii:2^k", "--format", "csv", "-o", str(out)])
    assert code == 0
    meta = dict(line[2:].split(": ", 1) for line in out.read_text().splitlines()
                if line.startswith("# "))
    assert meta["plan"] == "balls:1..28"
    assert meta["alt_descriptor"] == "radii:2^k"
    assert abs(float(meta["alt_boundary_limit"])) < 1e-6


def test_gaussgreen_alt_plan_reaching_farther(tmp_path):
    out = tmp_path / "gg.json"
    code = main(["gaussgreen", "--model", "log-increment-line", "--radius", "2187",
                 "--u", "logu", "--v", "logu", "--plan", "radii:2^k",
                 "--alt-plan", "radii:3^k", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "exhaustion-dependent"
    assert payload["meta"]["alt_descriptor"] == "radii:3^k"


def test_function_file_preset(tmp_path):
    fn = tmp_path / "u.csv"
    fn.write_text("vertex,value\n0,0.0\n1,1.0\n2,2.0\n-1,-1.0\n-2,-2.0\n")
    out = tmp_path / "gg.csv"
    code = main(["gaussgreen", "--model", "geom-z", "--c", "2", "--radius", "8",
                 "--u", f"file:{fn}", "--v", f"file:{fn}",
                 "--plan", "balls:1..2", "--format", "csv", "-o", str(out)])
    assert code in (0, 3)  # short plan may be inconclusive; trace still written
    assert "vertex_sum" in out.read_text()


def test_report_with_sweep(tmp_path):
    out = tmp_path / "report.json"
    code = main(["report", "--model", "geom-z", "--c", "2", "--radius", "32",
                 "--plan", "balls:1..30", "--walks", "2000", "--steps", "2000",
                 "--sweep", "1.2:2.0:5", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["transience"]["verdict"] == "transient"
    assert payload["harmonic_dimension"] == 1
    assert "max_energy_c" in payload["grounded_sweep"]


def test_monopole_defaults_to_the_origin_on_star(tmp_path):
    out = tmp_path / "w.json"
    assert main(["monopole", "--model", "star", "--radius", "6",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["base"] == [0, 0]


def test_walk_green_defaults_to_the_origin_on_star(tmp_path):
    args = ["walk", "--model", "star", "--radius", "6", "--op", "green",
            "--walks", "201", "--steps", "300", "--seed", "3"]
    implicit, explicit = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(implicit)]) == 0
    assert main(args + ["--x", "(0,0)", "-o", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("argv, read", [
    (["resistance", "--x", "0", "--y", "3"], lambda payload: payload["resistance"]),
    (["kernel", "--x", "3"], lambda payload: dict(payload["values"])[3]),
], ids=["resistance", "kernel"])
def test_a_covering_default_plan_converges(tmp_path, argv, read):
    # A triangle with a pendant vertex 3: the default plan balls:1,2 ends on
    # the whole network, whose solve is exact even with one usable stage.
    net, out = tmp_path / "tri.json", tmp_path / "out.json"
    net.write_text(json.dumps({"origin": 0, "edges": [
        {"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 2.0},
        {"u": 0, "v": 2, "c": 1.0}, {"u": 2, "v": 3, "c": 1.0}]}))
    assert main([*argv, "--net", str(net), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert read(payload) == pytest.approx(1.6, abs=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["--model", "star", "--op", "hitting", "--x", "(1,1)", "--start", "0",
      "--absorber", "0"], "start vertex 0"),
    (["--model", "unit-line", "--radius", "20", "--op", "hitting",
      "--x", "999", "--start", "999"], "start vertex 999"),
    (["--model", "unit-line", "--radius", "20", "--op", "green",
      "--y", "999"], "target vertex 999"),
    (["--model", "unit-line", "--radius", "20", "--op", "hitting",
      "--x", "3", "--absorber", "999"], "absorber vertex 999"),
])
def test_walk_rejects_vertices_outside_the_network(tmp_path, capsys, argv,
                                                   message):
    out = tmp_path / "h.json"
    assert main(["walk", *argv, "--walks", "10", "--steps", "10",
                 "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--x", "5"], ["--start", "7"],
                                  ["--absorber", "3"], ["--y", "2"]])
def test_walk_escape_rejects_the_vertex_flags(tmp_path, capsys, flag):
    out = tmp_path / "e.json"
    assert main(["walk", "--model", "geom-zplus", "--c", "2", "--radius", "20",
                 "--op", "escape", "--radii", "2,4", "--walks", "101",
                 "--steps", "200", *flag, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "start at the network's origin" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["monopole", "--plan", "radii:x"], "plan 'radii:x': invalid literal for int()"),
    (["monopole", "--plan", "balls:1..y"], "plan 'balls:1..y': invalid literal"),
    (["monopole", "--plan", "radii:"], "plan 'radii:': invalid literal"),
    (["walk", "--op", "escape", "--radii", "2,x", "--walks", "10", "--steps", "10"],
     "--radii '2,x': invalid literal"),
    (["walk", "--op", "escape", "--radii", "0,-3", "--walks", "10", "--steps", "10"],
     "escape radii must be nonnegative, got -3"),
    (["monopole", "--plan", "balls:3"], "expected balls:A..B, got 'balls:3'"),
    (["monopole", "--plan", "grid:1"], "unknown plan descriptor 'grid:1'"),
])
def test_malformed_radii_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "--model", "unit-line", "--radius", "10", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["monopole", "--model", "unit-line", "--radius", "1", "--plan", "radii:2^k"],
     "window too small for plan 'radii:2^k'"),
    (["monopole", "--plan", "balls:1..2"], "specify either --net FILE or --model NAME"),
    (["gaussgreen", "--model", "unit-line", "--radius", "8", "--u", "harm", "--v", "harm"],
     "'harm' preset needs a geom-z model network"),
    (["gaussgreen", "--model", "geom-z", "--radius", "8", "--u", "logu", "--v", "logu"],
     "'logu' preset needs the log-increment-line model"),
    (["gaussgreen", "--model", "unit-line", "--radius", "8", "--u", "bogus", "--v", "bogus"],
     "unknown function preset 'bogus'"),
    (["kernel", "--model", "unit-line", "--radius", "8", "--x", "1.5"],
     "vertex ids are ints or int tuples, got '1.5'"),
    (["kernel", "--model", "unit-line", "--radius", "8", "--x", "(1,"],
     "cannot parse vertex id '(1,'"),
    (["gen", "--model", "geom-z", "--c", "nan", "--radius", "5"],
     "conductance base c must be finite and positive, got nan"),
])
def test_refused_inputs_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb, argv", [
    ("kernel", ["--x", "2"]),
    ("gaussgreen", ["--u", "logu", "--v", "logu"])])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_a_tolerance_not_finite_and_nonnegative_exits_2_before_loading(
        tmp_path, capsys, monkeypatch, verb, argv, tol):
    monkeypatch.setattr(resnet.cli, "_load_net", lambda args: pytest.fail("network loaded"))
    out = tmp_path / "out.json"
    assert main([verb, "--model", "log-increment-line", "--radius", "9", *argv,
                 "--tol", tol, "-o", str(out)]) == 2
    assert f"--tol must be finite and nonnegative, got {float(tol)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["unit-line", "binary-tree"])
def test_radius_below_one_is_refused(tmp_path, capsys, model):
    out = tmp_path / "net.json"
    for radius in ("0", "-3"):
        assert main(["gen", "--model", model, "--radius", radius, "-o", str(out)]) == 2
        assert f"--radius must be at least 1, got {radius}" in capsys.readouterr().err
        assert not out.exists()
    assert main(["gen", "--model", model, "--radius", "1", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["radius"] == 1


def test_geometric_window_beyond_float_range_exits_2(capsys):
    for argv in (["gen", "--model", "geom-zplus", "--radius", "1100"],
                 ["kernel", "--model", "geom-z", "--radius", "1100", "--x", "2",
                  "--plan", "balls:1..3"]):
        assert main(argv) == 2
        assert "the largest radius that base allows is 1022" in capsys.readouterr().err


def test_a_star_whose_edge_total_conductance_overflows_exits_2_before_any_solve(
        capsys, monkeypatch):
    # At radius 645 an edge vertex of the base-3 star has c(x) = 3^645 + 3^646,
    # which overflows though each conductance is finite.
    monkeypatch.setattr(solver, "_system", None)  # any solve fails loudly
    assert main(["monopole", "--model", "star", "--c", "3", "--radius", "645"]) == 2
    assert "the largest radius that base allows is 644" in capsys.readouterr().err


def test_the_largest_geometric_window_solves_without_overflow(tmp_path):
    # The edge vertex of geom-zplus at radius 1022 has c(x) = 2^1022 + 2^1023,
    # whose product with a solution's scale 1 + max|u| overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["monopole", "--model", "geom-zplus", "--c", "2", "--radius", "1022",
                     "-o", str(tmp_path / "monopole.json")]) == 0


def test_gen_refuses_a_huge_window_before_building_it(tmp_path, capsys):
    # The default radius 30 of the binary tree is 2^31 - 1 vertices.
    out = tmp_path / "tree.json"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["gen", "--model", "binary-tree", "-o", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert elapsed < 1.0
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert "2^31 - 1 vertices" in err and "largest radius that fits is 19" in err
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ("1:2:1", "COUNT must be at least 2, got 1"),
    ("1:2", "must be LO:HI:COUNT with an integer COUNT, got '1:2'"),
    ("1.5:3:2.5", "must be LO:HI:COUNT with an integer COUNT, got '1.5:3:2.5'"),
    ("1:inf:3", "finite and positive; got inf"),
    ("0:2:3", "finite and positive; got 0.0"),
])
def test_report_sweep_is_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                                 sweep, message):
    import resnet.cli as cli

    def no_network(args):
        raise AssertionError("the network was loaded before --sweep was checked")
    monkeypatch.setattr(cli, "_load_net", no_network)
    out = tmp_path / "report.json"
    assert main(["report", "--model", "geom-z", "--radius", "8",
                 "--sweep", sweep, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_radius_with_explicit_edges_is_refused(tmp_path, capsys):
    net = tmp_path / "grid.json"
    net.write_text(json.dumps({"origin": [0, 0], "edges": [
        {"u": [0, 0], "v": [0, 1], "c": 1.0}, {"u": [0, 1], "v": [1, 1], "c": 2.0}]}))
    out = tmp_path / "r.json"
    argv = ["resistance", "--net", str(net), "--x", "(0,0)", "--y", "(1,1)",
            "--plan", "balls:1..4"]
    assert main(argv + ["--radius", "2", "-o", str(out)]) == 2
    assert "applies only to a model network" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["-o", str(out)]) == 0


@pytest.mark.parametrize("text, message", [
    ("{ not json", "malformed network JSON in"),
    (json.dumps({"origin": 0, "edges": [{"u": 0, "v": 1, "c": 1.0},
                                        {"u": 2, "v": 3, "c": 1.0}]}),
     "network is not connected"),
    ('{"origin": 0, "edges": [{"u": 0, "v": 1, "c": Infinity}, {"u": 1, "v": 2, "c": 1}]}',
     "non-finite conductance on edge (0, 1)"),
    ('{"origin": 0, "edges": [{"u": 0, "v": 1, "c": NaN}, {"u": 1, "v": 2, "c": 1}]}',
     "non-finite conductance on edge (0, 1)"),
    ('{"model": "geom_z", "params": {"c": true}, "radius": 3}',
     "conductance base c must be finite and positive, got True"),
    ('{"model": "geom_z", "params": {"c": "2"}, "radius": 3}',
     "conductance base c must be finite and positive, got '2'"),
])
def test_net_file_errors_keep_their_message(tmp_path, capsys, text, message):
    net = tmp_path / "net.json"
    net.write_text(text)
    assert main(["gen", "--net", str(net), "-o", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert message in err
    # Only a file that does not parse is called malformed.
    assert ("malformed" in err) == message.startswith("malformed")


VERBS_ON_0123 = [["resistance", "--x", "0", "--y", "3"], ["kernel", "--x", "3"]]


@pytest.mark.parametrize("argv", VERBS_ON_0123)
def test_an_overflowing_total_conductance_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, argv):
    # c(1) = 1e308 + 1e308 is inf: SuperLU once called the system singular.
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"origin": 0, "edges": [
        {"u": 0, "v": 1, "c": 1e308}, {"u": 1, "v": 2, "c": 1e308},
        {"u": 2, "v": 3, "c": 1.0}]}))
    monkeypatch.setattr(solver, "_system", None)  # any solve fails loudly
    assert main(argv + ["--net", str(net)]) == 2
    assert "total conductance of vertex 1 overflows float64" in capsys.readouterr().err


@pytest.mark.parametrize("argv", VERBS_ON_0123)
def test_an_exactly_singular_factor_exits_3(tmp_path, capsys, argv):
    # c(1) = 1 + 1e20 + 1 is 1e20 in float64, so the scaled free system
    # pinned at 0 holds the block [[1, -1], [-1, 1]] on vertices 1 and 2.
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"origin": 0, "edges": [
        {"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1e20},
        {"u": 1, "v": 3, "c": 1.0}]}))
    assert main(argv + ["--net", str(net)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: factorization failed: Factor is exactly singular" in err


@pytest.mark.parametrize("content, where", [
    ("vertex,value\n0,abc\n", ", line 2: could not convert string to float: 'abc'"),
    (None, ": [Errno 21] Is a directory"),
    ("vertex,value\n" + "".join(f"{x},{x}\n" for x in range(-3, 4)) + "1,7\n",
     ", line 9: vertex 1 is given twice"),
    ("vertex,value\n0,0\n1,nan\n-1,1\n", ", line 3: value nan at vertex 1 is not finite"),
    ("vertex,value\n0,0\n1,1\n-1,-inf\n", ", line 4: value -inf at vertex -1 is not finite"),
    ("vertex,value\n0,0\n99,1\n1,1\n-1,1\n",
     ", line 3: vertex 99 is not in the network's window"),
])
def test_function_file_preset_errors_exit_2(tmp_path, capsys, content, where):
    path = tmp_path / "u.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    out = tmp_path / "gg.json"
    assert main(["gaussgreen", "--model", "geom-z", "--c", "2", "--radius", "8",
                 "--u", f"file:{path}", "--v", f"file:{path}",
                 "--plan", "balls:1..2", "-o", str(out)]) == 2
    assert f"{path}{where}" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_csv_rows_are_the_element_csv(tmp_path):
    from resnet.kernels import energy_kernel
    from resnet.models import ModelSpec, build
    from resnet.network import make_exhaustion
    from resnet.serialize import csv_text, vertex_label

    out = tmp_path / "v.csv"
    code = main(["kernel", "--model", "star", "--radius", "6", "--plan", "balls:1..5",
                 "--x", "(1,2)", "--format", "csv", "-o", str(out)])
    assert code in (0, 3)
    net = build(ModelSpec("star"), radius=6)
    element = energy_kernel(net, (1, 2), make_exhaustion(net, range(1, 6)))
    want = csv_text(("vertex", "value"),
                    [(vertex_label(y), u) for y, u in element.approximant.items()], {})
    lines = out.read_text().splitlines(keepends=True)
    assert "".join(l for l in lines if not l.startswith("#")) == want
    assert want.startswith("vertex,value\n") and "\n1;2," in want
    assert len(want.splitlines()) == len(element.approximant) + 1


# The arguments each verb requires, on --model unit-line.
REQUIRED = {"gen": [], "kernel": ["--x", "1"], "monopole": [],
            "gaussgreen": ["--u", "logu", "--v", "logu"], "transience": [],
            "walk": ["--op", "escape"], "resistance": ["--x", "0", "--y", "1"],
            "report": []}


# The shared options each verb reads; each verb refuses the others.
SHARED = {"--plan": "balls:1..2", "--tol": "0.5", "--format": "csv", "--seed": "3"}
TAKES = {"gen": (), "kernel": ("--plan", "--tol", "--format"), "monopole": ("--plan",),
         "gaussgreen": ("--plan", "--tol", "--format"), "transience": ("--plan", "--seed"),
         "walk": ("--seed",), "resistance": ("--plan",), "report": ("--plan", "--seed")}
UNREAD = [(verb, [flag, SHARED[flag]]) for verb in REQUIRED
          for flag in SHARED if flag not in TAKES[verb]]


@pytest.mark.parametrize("verb, option",
                         [(verb, ["--bogus"]) for verb in REQUIRED] + UNREAD,
                         ids=list(REQUIRED) + [f"{verb}{flag}" for verb, (flag, _) in UNREAD])
def test_an_unknown_option_exits_2(capsys, verb, option):
    with pytest.raises(SystemExit) as done:
        main([verb, "--model", "unit-line", *REQUIRED[verb], *option])
    assert done.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_each_verb_takes_the_shared_options_it_reads(capsys):
    for verb, flags in TAKES.items():
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        page = capsys.readouterr().out
        assert [flag for flag in SHARED if f"  {flag} " in page] == list(flags)


# Each verb's arguments on a small network, and the keys of its config block.
CONFIG = {
    "kernel": (["--model", "unit-line", "--radius", "8", "--x", "1"],
               {"tol", "plan"}),
    "monopole": (["--model", "unit-line", "--radius", "8"], {"plan"}),
    "gaussgreen": (["--model", "log-increment-line", "--radius", "16", "--u", "logu",
                    "--v", "logu", "--plan", "radii:2^k"], {"tol", "plan", "u", "v"}),
    "transience": (["--model", "unit-line", "--radius", "8", "--walks", "20",
                    "--steps", "20"], {"seed", "walks", "steps", "plan"}),
    "walk": (["--model", "unit-line", "--radius", "20", "--op", "escape", "--walks", "20",
              "--steps", "20"], {"seed", "walks", "steps", "op"}),
    "resistance": (["--model", "unit-line", "--radius", "8", "--x", "0", "--y", "1"],
                   {"plan"}),
    "report": (["--model", "unit-line", "--radius", "8", "--walks", "20", "--steps", "20"],
               {"seed", "walks", "steps", "plan"}),
}


@pytest.mark.parametrize("verb", CONFIG)
def test_the_config_block_records_what_the_verb_read(tmp_path, verb):
    argv, keys = CONFIG[verb]
    out = tmp_path / "out.json"
    assert main([verb, *argv, "-o", str(out)]) in (0, 3)
    config = json.loads(out.read_text())["config"]
    assert set(config) == {"version", "model", "resolved_model"} | keys


NETWORK_OPTIONS = "--net and --model exclude each other, and --c and --arms set a --model"


@pytest.mark.parametrize("argv, message", [
    (["--net", "g.json", "--model", "star", "--c", "9", "--arms", "4"], NETWORK_OPTIONS),
    (["--net", "g.json", "--model", "geom-z"], NETWORK_OPTIONS),
    (["--net", "g.json", "--c", "2"], NETWORK_OPTIONS),
    (["--arms", "3"], NETWORK_OPTIONS),
    (["--model", "unit-line", "--c", "0", "--arms", "9"],
     "model unit_line does not read 'arms', 'c'"),
])
def test_the_network_options_read_one_network(tmp_path, capsys, monkeypatch, argv,
                                              message):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--model", "geom-z", "--radius", "5", "-o", "g.json"]) == 0
    assert main(["gen", *argv, "-o", "out.json"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, given", [
    (["--op", "green", "--radii", "9,10", "--start", "3", "--absorber", "4"],
     "walk --op green does not take --start, --absorber, --radii"),
    (["--op", "hitting", "--y", "7"], "walk --op hitting does not take --y"),
    (["--op", "hitting", "--x", "3", "--radii", "2"], "walk --op hitting does not take --radii"),
])
def test_walk_refuses_the_options_its_op_does_not_read(tmp_path, capsys, argv, given):
    out = tmp_path / "w.json"
    assert main(["walk", "--model", "unit-line", "--radius", "20", *argv,
                 "--walks", "10", "--steps", "10", "-o", str(out)]) == 2
    assert given in capsys.readouterr().err
    assert not out.exists()


def test_walk_escape_radii_default(tmp_path):
    args = ["walk", "--model", "unit-line", "--radius", "30", "--op", "escape",
            "--walks", "50", "--steps", "50"]
    implicit, explicit = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(implicit)]) == 0
    assert main(args + ["--radii", "2,4,8,16", "-o", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()
    points = json.loads(implicit.read_text())["points"]
    assert [r for r, _, _ in points] == [2, 4, 8, 16]


def test_the_command_line_module_stays_below_4096_parser_tokens():
    # A process without a bytecode cache compiles cli.py from source, and past
    # 4096 tokens the parser's token array doubles: about 0.25 MB more peak
    # RSS for every such process.
    with open(resnet.cli.__file__, "rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    assert len(tokens) < 4096


def test_the_module_runs_as_a_program():
    src = os.path.dirname(os.path.dirname(resnet.cli.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-m", "resnet.cli", "--version"],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, resnet.__version__)
