"""The CLI's bytes, pinned: the SHA-256 of stdout and the exit code of small
fixed commands, one or more per verb.  Each command runs in one fixed
working directory and names its input by a relative path, so the
``config.net`` field of an artifact is the same from run to run.

A change that means to move an artifact updates its digest here and says
which fields moved and why.
"""

import hashlib
import json

import pytest

from resnet.cli import main

from conftest import lognormal_grid_edges

GRID = "grid.json"
# The report-grid benchmark's grid: 25x25, so the default plan balls:1..24
# has 24 stages and its last ball covers the network.
GRID25 = "grid25.json"
# Two functions on the star of radius 4, for the file: preset of --u and --v.
STAR_U, STAR_V = "star_u.csv", "star_v.csv"

# (id, argv, exit code, SHA-256 of stdout)
GOLDEN = [
    ("gen-grid", ["gen", "--net", GRID], 0,
     "5c1dad0720162dd2ffa589636e3c9eda095b69ee58038860231e0116345ed31c"),
    ("report-grid", ["report", "--net", GRID, "--walks", "200", "--steps", "200"], 0,
     "3af6f781965b15842c264267394ecdac89c8f783f27c66075739766bbecae523"),
    ("report-grid25", ["report", "--net", GRID25, "--walks", "200", "--steps", "200"], 0,
     "49978562bfae93321eb8764a3c0e5dfdc6450488aeeec712cb20a73c3e61dc4f"),
    ("gaussgreen-log-2k-3k", ["gaussgreen", "--model", "log-increment-line",
                              "--radius", "243", "--u", "logu", "--v", "logu",
                              "--plan", "radii:2^k", "--alt-plan", "radii:3^k"], 0,
     "ca6b8db8cc52b413343256b3f1d7eff4646a4de48528ec86f2363eaae6772eaf"),
    ("gaussgreen-log-3k-2k", ["gaussgreen", "--model", "log-increment-line",
                              "--radius", "243", "--u", "logu", "--v", "logu",
                              "--plan", "radii:3^k", "--alt-plan", "radii:2^k"], 0,
     "fe44aec9f3c18083b4ad06b3d46245716a95f9789b0127578736982de98e161f"),
    ("gaussgreen-log-59049-3k-2k", ["gaussgreen", "--model", "log-increment-line",
                                    "--radius", "59049", "--u", "logu", "--v", "logu",
                                    "--plan", "radii:3^k", "--alt-plan", "radii:2^k"], 0,
     "a62327d7dbe438c4124a17ed5b18dbea7fa2ea0e9acd2f2439fd60f81dd767e1"),
    ("gaussgreen-log-59049-2k-3k", ["gaussgreen", "--model", "log-increment-line",
                                    "--radius", "59049", "--u", "logu", "--v", "logu",
                                    "--plan", "radii:2^k", "--alt-plan", "radii:3^k"], 0,
     "c7a441b63217fd4c494b9b68053bb7c2e80194001fdbf4a55e9411ccf1a44322"),
    ("gaussgreen-log-59049-3k-2k-csv", ["gaussgreen", "--model", "log-increment-line",
                                        "--radius", "59049", "--u", "logu", "--v", "logu",
                                        "--plan", "radii:3^k", "--alt-plan", "radii:2^k",
                                        "--format", "csv"], 0,
     "5f3b8f7bf4afce9882c6bc1f109a86219826320c9561ec2215a4630d7c751e5b"),
    ("gaussgreen-log-59049-2k-3k-csv", ["gaussgreen", "--model", "log-increment-line",
                                        "--radius", "59049", "--u", "logu", "--v", "logu",
                                        "--plan", "radii:2^k", "--alt-plan", "radii:3^k",
                                        "--format", "csv"], 0,
     "27ffce782460b7e5d0dc34e00acfaeee663478596df980c8338028b702899b53"),
    ("kernel-harm-csv", ["kernel", "--model", "geom-z", "--c", "2", "--radius", "40",
                         "--plan", "balls:1..38", "--x", "1", "--kind", "harm",
                         "--format", "csv"], 0,
     "1e3dc4aa01df84d2b12d188824ae6167ad1f1c9d9a4145a0d92094bbd75b8697"),
    ("monopole-star", ["monopole", "--model", "star", "--radius", "12",
                       "--plan", "balls:1..10"], 0,
     "3c09d4464ec7f548e04fb7d60f6e8e75fedb8c556d05eabdc07af993920bede7"),
    ("resistance-wired", ["resistance", "--model", "geom-z", "--c", "2",
                          "--radius", "40", "--plan", "balls:1..38", "--x", "0",
                          "--y", "3", "--variant", "wired"], 0,
     "37e1a012b54160262973e598c4ece8d85871e55eb67b34b0af700d65817e7854"),
    ("transience-tree", ["transience", "--model", "binary-tree", "--radius", "8",
                         "--walks", "500", "--steps", "500"], 0,
     "21fa9e84bdd28628fc920f5bebf566d3dd045b2ea96345a2157f28ba7ce6327c"),
    ("walk-escape", ["walk", "--model", "unit-line", "--radius", "30", "--op", "escape",
                     "--radii", "2,4,8", "--walks", "2000", "--steps", "2000",
                     "--seed", "5"], 0,
     "54d96eeb9c0dd1c2d6daa49dbc872e5fd69bc70a4de44cbea77d9581e21500b5"),
    ("walk-green-star", ["walk", "--model", "star", "--radius", "10", "--op", "green",
                         "--walks", "500", "--steps", "500", "--seed", "2"], 0,
     "9ce47d7a8de79a7fd9a703a128c5554ea03972ba4e66142316ed74aa516fc7d3"),
    ("gaussgreen-star-file", ["gaussgreen", "--model", "star", "--radius", "4",
                              "--plan", "balls:1..3", "--u", f"file:{STAR_U}",
                              "--v", f"file:{STAR_V}"], 3,
     "1ed4c0cde0557de814c25486c0ecdf9115ca9e4222aab684c1ad8a0aaf1a13c8"),
]


# SHA-256 of the help text, at 80 columns, of the top level and of each verb.
HELP = [
    ([], "8b2ba0128e848ffd17756c8d4a51977c070d2c92ecd11cac590f275e4cf1b9b8"),
    (["gen"], "2fe714407082c4a585bfa36e4b1a4b4fa908541c4cffe84dbd36f88b840c3bc6"),
    (["kernel"], "aefa27c74049827c3e4381beebfa1ac447f1e4aa7e57e7784b693baaac93c426"),
    (["monopole"], "2c7a1f653b775c098852a5cec48bf31b5a44b2e974d7dee65c9593da03f1ed9d"),
    (["gaussgreen"], "94dcddf055bc4d7bc39e0cd309351d9566ab3534003a7f48419dbb53025190c9"),
    (["transience"], "d9599ea73bfbfc2676c0ef5d6754a55480c7bc5c09ede314d067ea216fadc29e"),
    (["walk"], "2da13a8bd6f784e503422299b093abcad602b3de9cd304c7e353c58b2a8024d8"),
    (["resistance"], "327a43e2f8f81bc787686ac91291464780c749a9641ebb8699aa6636a666fd38"),
    (["report"], "7c27cc59f2957764429a4b179716b6f7ec29bf3e9d2dbb549b190fd40652b095"),
]

def write_grid(path, side=9, seed=3):
    """The seeded lognormal grid as explicit network JSON."""
    edges = [{"u": list(u), "v": list(v), "c": c}
             for u, v, c in lognormal_grid_edges(side, seed)]
    path.write_text(json.dumps({"origin": [0, 0], "edges": edges}))


def write_star_functions(path):
    """u(b, d) = 1/(1 + d) + b/4 and v(b, d) = d² − b on the star's vertices
    (three arms, radius 4), one CSV each, rows in reverse canonical order."""
    ids = [(0, 0)] + [(b, d) for b in range(3) for d in range(1, 5)]
    for name, f in ((STAR_U, lambda b, d: 1.0 / (1 + d) + b / 4),
                    (STAR_V, lambda b, d: float(d * d - b))):
        rows = [f"{b};{d},{f(b, d)!r}" for b, d in reversed(ids)]
        (path / name).write_text("vertex,value\n# star, radius 4\n" + "\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_grid(path / GRID)
    write_grid(path / GRID25, side=25, seed=1)
    write_star_functions(path)
    return path


@pytest.mark.parametrize("argv, code, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_cli_bytes_are_pinned(workdir, monkeypatch, capsys, argv, code, digest):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("RESNET_SEED", raising=False)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_cli_bytes_hold_without_the_builtin_float_sum(workdir, monkeypatch, capsys,
                                                      strict_sum, argv, code, digest):
    strict_sum()
    test_cli_bytes_are_pinned(workdir, monkeypatch, capsys, argv, code, digest)


@pytest.mark.parametrize("argv, digest", HELP, ids=["resnet"] + [h[0][0] for h in HELP[1:]])
def test_help_bytes_are_pinned(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(argv + ["--help"])
    assert done.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
