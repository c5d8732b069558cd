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
     "80905b5fd8a0a7e453a6aa0995d91c0299cf5badb997f1c5dff27d9fe6239fc1"),
    ("report-grid25", ["report", "--net", GRID25, "--walks", "200", "--steps", "200"], 0,
     "4a09d9ab27e3a8de421bb0bac53bdc158b49631d11c522a62f00cdd2050feb20"),
    ("gaussgreen-log-2k-3k", ["gaussgreen", "--model", "log-increment-line",
                              "--radius", "243", "--u", "logu", "--v", "logu",
                              "--plan", "radii:2^k", "--alt-plan", "radii:3^k"], 0,
     "1e8bb4288bdd664bfc3cd16f28b1e67ae2f8ae0f7aa4b03a115d364ef9e52616"),
    ("gaussgreen-log-3k-2k", ["gaussgreen", "--model", "log-increment-line",
                              "--radius", "243", "--u", "logu", "--v", "logu",
                              "--plan", "radii:3^k", "--alt-plan", "radii:2^k"], 0,
     "bba5f9b9f87f88cf9a9e10f319ee513215f33a009bb0f9a72b6bee5594db82e5"),
    ("gaussgreen-log-59049-3k-2k", ["gaussgreen", "--model", "log-increment-line",
                                    "--radius", "59049", "--u", "logu", "--v", "logu",
                                    "--plan", "radii:3^k", "--alt-plan", "radii:2^k"], 0,
     "d3d7197b78e31043067d3e1e0ba9bbee323a04a8c4ff4868352570ca3a7ea4ad"),
    ("gaussgreen-log-59049-2k-3k", ["gaussgreen", "--model", "log-increment-line",
                                    "--radius", "59049", "--u", "logu", "--v", "logu",
                                    "--plan", "radii:2^k", "--alt-plan", "radii:3^k"], 0,
     "93aa018e4aad4f6f5c4a4c8f2c91835c05f70a2d68f7a606d105c5fd50cbc75e"),
    ("gaussgreen-log-59049-3k-2k-csv", ["gaussgreen", "--model", "log-increment-line",
                                        "--radius", "59049", "--u", "logu", "--v", "logu",
                                        "--plan", "radii:3^k", "--alt-plan", "radii:2^k",
                                        "--format", "csv"], 0,
     "a4966ebd422c17bacd886ab7c0bc6e424eb6f761dc8664957db4b7e3057ab0c4"),
    ("gaussgreen-log-59049-2k-3k-csv", ["gaussgreen", "--model", "log-increment-line",
                                        "--radius", "59049", "--u", "logu", "--v", "logu",
                                        "--plan", "radii:2^k", "--alt-plan", "radii:3^k",
                                        "--format", "csv"], 0,
     "a993d8a49e4ea5b21470289749cfd983c205e6b9a71d1ff7d838fff57df0e744"),
    ("kernel-harm-csv", ["kernel", "--model", "geom-z", "--c", "2", "--radius", "40",
                         "--plan", "balls:1..38", "--x", "1", "--kind", "harm",
                         "--format", "csv"], 0,
     "89f02222c71f0d04c7e1430e9fd2e7860da70b1abcddfc47105752b438c3041b"),
    ("monopole-star", ["monopole", "--model", "star", "--radius", "12",
                       "--plan", "balls:1..10"], 0,
     "d530db8034aa17c80cff3ef46abf89b5482d1808c3eeeeccde60b1ddb0109fb1"),
    ("resistance-wired", ["resistance", "--model", "geom-z", "--c", "2",
                          "--radius", "40", "--plan", "balls:1..38", "--x", "0",
                          "--y", "3", "--variant", "wired"], 0,
     "2cf01a01d65baf7b71a986e799165dd75891be2a7c21bcc912870256f2135ae8"),
    ("transience-tree", ["transience", "--model", "binary-tree", "--radius", "8",
                         "--walks", "500", "--steps", "500"], 0,
     "4f099103e8c5bf6c6b72107e79d8f12c3c17d40a873d1637873f487031b5874d"),
    ("walk-escape", ["walk", "--model", "unit-line", "--radius", "30", "--op", "escape",
                     "--radii", "2,4,8", "--walks", "2000", "--steps", "2000",
                     "--seed", "5"], 0,
     "e1ce09e68090485c3234876ecd081d3d827307de3fdaec41e18a91259f1abbaa"),
    ("walk-green-star", ["walk", "--model", "star", "--radius", "10", "--op", "green",
                         "--walks", "500", "--steps", "500", "--seed", "2"], 0,
     "ee2108962e036c6a4f9e18425d4353a2d937708dca5d5f8ffdf63803ac325687"),
    ("gaussgreen-star-file", ["gaussgreen", "--model", "star", "--radius", "4",
                              "--plan", "balls:1..3", "--u", f"file:{STAR_U}",
                              "--v", f"file:{STAR_V}"], 3,
     "a21ee2868524361dcfd9eda5cc8d075e971db1c0a0d9e0f3200b11f4da25eb15"),
]


# SHA-256 of the help text, at 80 columns, of the top level and of each verb.
HELP = [
    ([], "8b2ba0128e848ffd17756c8d4a51977c070d2c92ecd11cac590f275e4cf1b9b8"),
    (["gen"], "b3cba7e6024f645e6e1f5101b00478358d627a80ba93014691d9bbd168c2f6c3"),
    (["kernel"], "33974e86e97eb50307e570a7a1c817f093e61af9146ba7394d33094658b94431"),
    (["monopole"], "41c0754692e8bf8a0d637ad9a2ea728ce80bd39ad0d1265cac2aa59a50f8fc98"),
    (["gaussgreen"], "20499a4c855f404c11ed61ff86eafe5c17330f4c0de95ecc6852010540471921"),
    (["transience"], "12f6cec88664893a9e5c952e0725032239ea5f0130d8bb39eb8a323fa8618c43"),
    (["walk"], "f7b00d73974960d70e1360e9c211c2aa2a8820ddbc4c7e8adf6f46734b381037"),
    (["resistance"], "aaa5d14a6b88529354872708a1607a287fc3610c2f19108a0b73fdd1cec88555"),
    (["report"], "10734503d5657a554d6787262951dd6f8659c48bdf8d045e99b4a0fef5ed4723"),
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
