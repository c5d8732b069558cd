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
     "f884fc5a2d0b3414fff56fea8d8cd8ddb2fb614b80b9db3eb903981ee940e346"),
    ("resistance-wired", ["resistance", "--model", "geom-z", "--c", "2",
                          "--radius", "40", "--plan", "balls:1..38", "--x", "0",
                          "--y", "3", "--variant", "wired"], 0,
     "37e1a012b54160262973e598c4ece8d85871e55eb67b34b0af700d65817e7854"),
    ("transience-tree", ["transience", "--model", "binary-tree", "--radius", "8",
                         "--walks", "500", "--steps", "500"], 0,
     "1739157839f09057dba97e7e287e30d26e8f63fbb6090d40e68e39c75f6758a6"),
    ("walk-escape", ["walk", "--model", "unit-line", "--radius", "30", "--op", "escape",
                     "--radii", "2,4,8", "--walks", "2000", "--steps", "2000",
                     "--seed", "5"], 0,
     "54d96eeb9c0dd1c2d6daa49dbc872e5fd69bc70a4de44cbea77d9581e21500b5"),
    ("walk-green-star", ["walk", "--model", "star", "--radius", "10", "--op", "green",
                         "--walks", "500", "--steps", "500", "--seed", "2"], 0,
     "9ce47d7a8de79a7fd9a703a128c5554ea03972ba4e66142316ed74aa516fc7d3"),
]


def write_grid(path, side=9, seed=3):
    """The seeded lognormal grid as explicit network JSON."""
    edges = [{"u": list(u), "v": list(v), "c": c}
             for u, v, c in lognormal_grid_edges(side, seed)]
    path.write_text(json.dumps({"origin": [0, 0], "edges": edges}))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_grid(path / GRID)
    write_grid(path / GRID25, side=25, seed=1)
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
