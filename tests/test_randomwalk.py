import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resnet as rn
from resnet import randomwalk
from resnet.errors import DomainError, NumericalError
from resnet.models import ModelSpec, build
from resnet.randomwalk import (WalkConfig, escape_probability, green_estimate,
                               hitting_probability)
from conftest import lognormal_grid_edges, make_random_net
from reference_pointwise import (expected_visits, harmonic_measure, step,
                                 transition_probabilities, wired_green)
from reference_windows import explore_edges, has_vertex, total_conductance


def test_transition_probabilities_sum_to_one(geom2, zplus2):
    for net in (geom2, zplus2):
        for x in list(net.vertices)[:12]:
            total = sum(p for _, p in transition_probabilities(net, x))
            assert abs(total - 1.0) < 1e-12


def test_step_frequencies_match_conductances():
    net = rn.Network.from_edges(0, [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0)])
    rng = np.random.default_rng(11)
    draws = 100000
    hits = sum(1 for _ in range(draws) if step(net, 0, rng) == 2)
    p_hat = hits / draws
    sigma = (0.75 * 0.25 / draws) ** 0.5
    assert abs(p_hat - 0.75) < 3 * sigma


def test_step_from_degree_one_vertex(zplus2):
    rng = np.random.default_rng(0)
    assert all(step(zplus2, 0, rng) == 1 for _ in range(20))


def test_step_up_probability_on_integers(geom2):
    # edge weights 2 and 4 at vertex 1: upward probability 2/3
    rng = np.random.default_rng(5)
    draws = 100000
    ups = sum(1 for _ in range(draws) if step(geom2, 1, rng) == 2)
    sigma = (2.0 / 3.0 * 1.0 / 3.0 / draws) ** 0.5
    assert abs(ups / draws - 2.0 / 3.0) < 3 * sigma


def test_determinism_bit_identical(unit_path):
    cfg = WalkConfig(n_walks=2000, max_steps=1000, seed=42)
    a = hitting_probability(unit_path, 2, 0, 1, cfg)
    b = hitting_probability(unit_path, 2, 0, 1, cfg)
    assert a == b
    other = hitting_probability(unit_path, 2, 0, 1,
                                WalkConfig(n_walks=2000, max_steps=1000, seed=43))
    assert other.value != a.value


def test_hitting_probability_on_path(unit_path):
    cfg = WalkConfig(n_walks=100000, max_steps=100000, seed=2)
    est = hitting_probability(unit_path, 2, 0, 1, cfg)
    assert not est.flags
    assert abs(est.value - 0.5) < 3 * est.stderr


def test_hitting_probability_degenerate_starts(unit_path):
    cfg = WalkConfig(n_walks=10, max_steps=10, seed=0)
    assert hitting_probability(unit_path, 2, 0, 2, cfg).value == 1.0
    assert hitting_probability(unit_path, 2, 0, 0, cfg).value == 0.0
    # From 0 every walk steps onto 1: a certain outcome has no standard error.
    est = hitting_probability(unit_path, 1, 2, 0, cfg)
    assert (est.value, est.stderr) == (1.0, 0.0)
    with pytest.raises(DomainError):
        hitting_probability(unit_path, 1, 1, 0, cfg)


def test_hitting_flags_bias_under_tiny_cap():
    net = rn.Network.from_edges(0, [(k, k + 1, 1.0) for k in range(30)])
    cfg = WalkConfig(n_walks=500, max_steps=5, seed=1)
    est = hitting_probability(net, 30, 0, 15, cfg)
    assert "biased" in est.flags


def test_kernel_reconstruction_from_hitting(rng):
    # v_x(y) = R(x, o) * P[hit x before o | start y] on finite networks
    cfg = WalkConfig(n_walks=100000, max_steps=100000, seed=9)
    for trial in range(5):
        net = make_random_net(rng, max_vertices=12)
        verts = [v for v in net.vertices if v != 0]
        x = verts[int(rng.integers(0, len(verts)))]
        y = verts[int(rng.integers(0, len(verts)))]
        plan = rn.make_exhaustion(
            net, range(1, net.max_radius + 1))
        vx = rn.energy_kernel(net, x, plan).approximant
        resistance = rn.effective_resistance(net, x, 0, plan).value
        est = hitting_probability(net, x, 0, y, cfg)
        predicted = resistance * est.value
        sigma = resistance * max(est.stderr, 1e-12)
        assert abs(predicted - vx.value(y)) < max(3 * sigma, 1e-9)


def test_green_estimate_half_line(zplus2):
    cfg = WalkConfig(n_walks=100000, max_steps=10000, seed=3)
    est = green_estimate(zplus2, 0, 0, cfg)
    assert "diverging" not in est.flags
    assert abs(est.value - 2.0) < 3 * est.stderr


def test_green_estimate_detects_recurrence():
    net = build(ModelSpec("unit_line"), radius=4000)
    cfg = WalkConfig(n_walks=2000, max_steps=4000, seed=3)
    est = green_estimate(net, 0, 0, cfg)
    assert "diverging" in est.flags


@pytest.mark.parametrize("seed", [1, 7])
def test_green_estimate_meets_the_finite_horizon_identity(seed):
    # E[visits to o at times 0..N] = Σ_{k<=N} P^k(o, o), on the report-grid
    # benchmark's grid and walk settings, against the exact sum from the edge
    # list (measured z = -0.36 and 1.13).  The diverging flag agrees with the
    # exact growth from N = 2000 to 4000 (ratios 1.53 and 1.55).
    edges = lognormal_grid_edges(25, seed)
    est = green_estimate(rn.Network.from_edges((0, 0), edges), (0, 0), (0, 0),
                         WalkConfig(1000, 4000, seed))
    exact = expected_visits(edges, (0, 0), (2000, 4000))
    assert abs(est.value - exact[4000]) <= 3 * est.stderr
    assert ("diverging" in est.flags) == (exact[4000] / exact[2000] > 1.15)


def test_green_estimate_unreachable_target(zplus2):
    cfg = WalkConfig(n_walks=200, max_steps=3, seed=1)
    est = green_estimate(zplus2, 0, 20, cfg)
    assert est.value == 0.0


def test_escape_probability_geometric(geom2):
    cfg = WalkConfig(n_walks=20000, max_steps=20000, seed=8)
    trace = escape_probability(geom2, (2, 4, 8, 16), cfg)
    # limit cross-check: 1 / (c(o) * minimal monopole energy) = 1/(4 * 0.5)
    r, p, stderr = trace.points[-1]
    assert abs(p - 0.5) < max(3 * stderr, 0.01)
    probs = [p for _, p, _ in trace.points]
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_escape_probability_unit_line_decays():
    net = build(ModelSpec("unit_line"), radius=600)
    cfg = WalkConfig(n_walks=4000, max_steps=200000, seed=4)
    trace = escape_probability(net, (4, 16, 64, 256), cfg)
    probs = [p for _, p, _ in trace.points]
    assert probs[-1] < 0.25 * probs[0]
    assert probs[-1] < 0.02
    # The escape identity P_o[leave B_r before returning] = 1/(c(o) R_r): on
    # the unit line c(o) = 2 and R_r = (r + 1)/2, two unit paths in parallel.
    for r, p, _ in trace.points:
        e = 1.0 / (r + 1)
        assert abs(p - e) <= 3 * np.sqrt(e * (1 - e) / cfg.n_walks), (r, p)


@pytest.mark.parametrize("seed", [1, 7])
def test_escape_probability_meets_the_escape_identity_on_a_grid(seed):
    # P_o[leave B_r before returning to o] = 1/(c(o) R_r), R_r = g(o) for the
    # wired Δg = δ_o on B_r, on the report-grid benchmark's grid, a non-tree
    # (measured z = -0.19, -0.02, 0.01, 0.40 and 0.97, 0.91, 0.86, 0.65).
    # |z| <= 3.5 over the 8 comparisons fails an exact engine about 0.4% of
    # the time; the seeds are fixed.
    edges = lognormal_grid_edges(25, seed)
    dist, _ = explore_edges((0, 0), edges)
    c_o = sum(c for u, v, c in edges if (0, 0) in (u, v))
    trace = escape_probability(rn.Network.from_edges((0, 0), edges), (1, 2, 4, 8),
                               WalkConfig(5000, 4000, seed))
    for r, p, stderr in trace.points:
        ball = [x for x, d in dist.items() if d <= r]
        exact = 1.0 / (c_o * wired_green(edges, ball, (0, 0))[(0, 0)])
        assert abs(p - exact) <= 3.5 * stderr, (r, p, exact, stderr)


def test_green_estimate_meets_the_visits_before_exit_identity():
    # The expected visits to y, time 0 included, of the walk from x before it
    # leaves the window B_R are c(y) g(x), g the wired solution of Δg = δ_y on
    # B_R: on the unit line of radius 20, whose edges to ±21 leave the window
    # (measured 20.933 ± 0.326 vs 21.000 and 16.156 ± 0.315 vs 16.286).  No
    # walk reaches the horizon, so the counts are complete; the seed is fixed.
    net = build(ModelSpec("unit_line"), radius=20)
    edges = [(i, i + 1, 1.0) for i in range(-21, 21)]
    for x, y in ((0, 0), (3, -2)):
        est = green_estimate(net, x, y, WalkConfig(4000, 20000, 1))
        assert est.meta["capped"] == 0
        exact = 2.0 * wired_green(edges, range(-20, 21), y)[x]
        assert abs(est.value - exact) <= 3 * est.stderr, (x, y, est.value, exact)


@pytest.mark.parametrize("seed", [1, 7])
def test_hitting_probability_meets_the_harmonic_measure_on_a_grid(seed):
    # P_s[hit t before a] = h(s), h harmonic off {t, a} with h(t) = 1 and
    # h(a) = 0, on the report-grid benchmark's grid, a non-tree (measured
    # z = +0.50, +2.22 on seed 1 and -0.45, -1.11 on seed 7).  |z| <= 3.5 over
    # the 4 comparisons fails an exact engine about 0.2% of the time; the
    # seeds are fixed.
    edges = lognormal_grid_edges(25, seed)
    net = rn.Network.from_edges((0, 0), edges)
    for start, target, absorber in (((0, 0), (3, 0), (-3, 0)), ((1, 1), (0, 4), (4, 0))):
        est = hitting_probability(net, target, absorber, start, WalkConfig(4000, 20000, seed))
        assert est.meta["lost"] == 0
        exact = harmonic_measure(edges, start, target, absorber)
        assert abs(est.value - exact) <= 3.5 * est.stderr, (start, est.value, exact)


def test_escape_probability_complete_graph():
    k4 = rn.Network.from_edges(0, [(i, j, 1.0) for i in range(4)
                                   for j in range(i + 1, 4)])
    cfg = WalkConfig(n_walks=3000, max_steps=500, seed=6)
    trace = escape_probability(k4, (1,), cfg)
    assert trace.points[0][1] == 0.0


def test_escape_radii_must_fit_window(geom2):
    cfg = WalkConfig(n_walks=10, max_steps=10, seed=0)
    with pytest.raises(DomainError):
        escape_probability(geom2, (40,), cfg)


def test_escape_radii_must_be_nonnegative(geom2):
    cfg = WalkConfig(n_walks=50, max_steps=50, seed=0)
    with pytest.raises(DomainError, match="nonnegative, got -3"):
        escape_probability(geom2, (0, -3), cfg)
    with pytest.raises(DomainError, match="need at least one radius"):
        escape_probability(geom2, (), cfg)
    # A radius that is not an integer is refused, not truncated.
    for radii in ((1.9, 2.2), (True,), (2, "3")):
        with pytest.raises(DomainError, match="escape radii must be ints"):
            escape_probability(geom2, radii, cfg)
    # B_0 = {o}: every walk leaves the origin at its first step, so P = 1
    # with no standard error.
    assert escape_probability(geom2, (0, 2), cfg).points[0] == (0, 1.0, 0.0)


def test_walk_config_validation():
    with pytest.raises(DomainError):
        WalkConfig(n_walks=0)
    with pytest.raises(DomainError):
        WalkConfig(max_steps=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 3])
def test_a_seed_outside_64_bits_is_refused(seed):
    # The stream is keyed by the seed modulo 2**64: these used to walk as
    # 2**64 - 1, 0 and 3 while recording another seed.
    with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\*\*64\)"):
        WalkConfig(n_walks=50, max_steps=20, seed=seed)


def test_seeds_at_the_ends_of_the_range_walk():
    net = build(ModelSpec("unit_line"), radius=10)
    values = {green_estimate(net, 0, 0, WalkConfig(n_walks=50, max_steps=20,
                                                   seed=seed)).value
              for seed in (0, 3, 2 ** 64 - 1)}
    assert len(values) == 3


@pytest.mark.parametrize("field", ["n_walks", "max_steps", "seed"])
@pytest.mark.parametrize("value", [2.5, True, 3.0, "3"])
def test_walk_counts_and_seed_must_be_ints(field, value):
    # Refused before any walk space is built, not by numpy inside the walk.
    with pytest.raises(DomainError, match=f"{field} must be an int"):
        WalkConfig(**{field: value})
    assert getattr(WalkConfig(**{field: np.int64(3)}), field) == 3


def test_walks_reject_vertices_outside_the_network(unit_path):
    cfg = WalkConfig(n_walks=10, max_steps=10, seed=0)
    # start == target would short-cut to 1.0 if the vertices went unchecked
    with pytest.raises(DomainError, match="not materialized"):
        hitting_probability(unit_path, 99, 0, 99, cfg)
    with pytest.raises(DomainError, match="absorber vertex 99"):
        hitting_probability(unit_path, 2, 99, 1, cfg)
    with pytest.raises(DomainError, match="target vertex 99"):
        green_estimate(unit_path, 0, 99, cfg)


# -- integer thresholds ---------------------------------------------------------

_TOP = (1 << 64) - 1

# Cumulative probabilities at the edges of the threshold map: multiples of
# 2^-53, the doubles next to 1, the last slot's 1 + 1e-12 and the padding.
_EDGE_CUMS = (2.0 ** -53, 3 * 2.0 ** -53, 1e-20, 0.5, 0.5 + 2.0 ** -53,
              0.1, 1.0 / 3.0, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0,
              1.0 + 1e-12, 2.0)


def _passes(raw, cum):
    """The double comparison the walk used to make: u >= cum."""
    return (raw >> 11) * 2.0 ** -53 >= cum


def _threshold(cum):
    return int(randomwalk._thresholds(np.array([cum]))[0])


def test_thresholds_at_their_edges():
    for cum in _EDGE_CUMS:
        thr = _threshold(cum)
        for raw in (0, thr - 1, thr, thr + 1, _TOP):
            if 0 <= raw <= _TOP:
                assert _passes(raw, cum) == (raw > thr), (cum, raw)
    assert _threshold(1.0 - 2.0 ** -53) == _TOP - 2 ** 11
    for cum in (1.0, 1.0 + 1e-12, 2.0):
        assert _threshold(cum) == _TOP


def test_a_probability_that_underflows_is_refused():
    net = rn.Network.from_edges(0, [(0, 1, 1e-300), (0, 2, 1e100), (1, 2, 1.0)])
    with pytest.raises(NumericalError, match="underflows"):
        green_estimate(net, 0, 0, WalkConfig(n_walks=4, max_steps=4))


@settings(max_examples=400)
@given(cum=st.one_of(st.sampled_from(_EDGE_CUMS),
                     st.integers(1, 2 ** 53).map(lambda k: k * 2.0 ** -53),
                     st.floats(1e-30, 2.0)),
       raw=st.integers(0, _TOP), near=st.sampled_from((None, -1, 0, 1)))
def test_thresholds_match_the_double_comparison(cum, raw, near):
    thr = _threshold(cum)
    if near is not None:
        raw = min(max(thr + near, 0), _TOP)
    assert _passes(raw, cum) == (raw > thr)


# -- the engine against a scalar reference ------------------------------------

_MASK64 = (1 << 64) - 1


def _reference_row(seed, t, n):
    """The uniforms of step t: one fresh Philox stream keyed by (seed, t)."""
    key = ((t & _MASK64) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def _reference_step(net, x, u):
    """The neighbour of x that u picks, adding c_xy / c(x) in incident order."""
    pairs = net.incident(x)
    acc, c_x = 0.0, total_conductance(net, x)
    for y, c in pairs[:-1]:
        acc += c / c_x
        if u < acc:
            return y
    return pairs[-1][0]


def _reference_simulate(net, start, cfg, *, stop=(), fold=None):
    """One walk at a time, with the outputs of ``randomwalk._simulate``; it
    takes window positions and walks on vertex ids."""
    ids, n_verts, n = net.vertices, len(net.vertices), cfg.n_walks
    pos, last = [ids[start]] * n, np.full(n, -1, dtype=np.int64)
    score = half = None
    if fold is not None:
        weight, ufunc = fold
        score = np.full(n, weight[start], dtype=np.int64)
        half = score.copy()
    for t in range(cfg.max_steps):
        row = _reference_row(cfg.seed, t, n)
        for w in range(n):
            if last[w] >= 0:
                continue
            y = _reference_step(net, pos[w], row[w])
            p = ids.index(y) if has_vertex(net, y) else n_verts
            if score is not None:
                score[w] = ufunc(score[w], weight[p])
                if t < cfg.max_steps // 2:
                    half[w] = score[w]
            pos[w] = y
            if p == n_verts or p in stop:
                last[w] = p
    return last, score, half


def _tuple_grid(k):
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append(((i, j), (i + 1, j), 1.0 + (3 * i + j) % 4))
            if j + 1 < k:
                edges.append(((i, j), (i, j + 1), 0.5 + (i + 2 * j) % 3))
    return rn.Network.from_edges((0, 0), edges)


def _complete(k):
    return rn.Network.from_edges(0, [(i, j, 1.0 + (i * j) % 5)
                                     for i in range(k) for j in range(i + 1, k)])


# (network, hitting target, absorber and start, escape radii, step cap, walks)
_REFERENCE_CASES = {
    "star-exits": (lambda: build(ModelSpec("star", {"c": 2.0, "arms": 3}),
                                 radius=4),
                   ((1, 2), (0, 0), (2, 1)), (1, 2, 3), 80, 13),
    "unit-line-caps": (lambda: build(ModelSpec("unit_line"), radius=12),
                       (4, -3, 1), (2, 8), 40, 13),
    "tuple-grid-absorbs": (lambda: _tuple_grid(5),
                           ((4, 4), (0, 0), (2, 1)), (2, 5), 60, 13),
    "complete-12": (lambda: _complete(12), (5, 0, 11), (1,), 30, 13),
    # Finite, rows padded to width 4 and a long horizon: the Green walk can
    # never stop, so the engine skips its halt test.
    "tuple-grid-green": (lambda: _tuple_grid(4), ((3, 3), (0, 0), (3, 0)),
                         (1, 3), 200, 13),
    # Rows of width 1: every step is a table lookup with no probe.
    "one-edge": (lambda: rn.Network.from_edges(0, [(0, 1, 2.5)]),
                 (1, 0, 0), (0, 1), 30, 13),
    # Enough walks that, as they end, the survivors draw in several spans.
    "unit-line-spans": (lambda: build(ModelSpec("unit_line"), radius=8),
                        (3, -3, 1), (2, 6), 120, 400),
}
# The cases whose walks must draw in more than one span at some step.
_SPLIT_CASES = {"unit-line-spans"}


@pytest.mark.parametrize("seed", [3, 2 ** 63 + 5])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_engine_equals_scalar_reference(case, seed, monkeypatch):
    make, (target, absorber, start), radii, steps, walks = _REFERENCE_CASES[case]
    net = make()
    cfg = WalkConfig(n_walks=walks, max_steps=steps, seed=seed)
    o, s = net._require(net.origin), net._require(start)
    weight = np.zeros(len(net.vertices) + 1, dtype=np.int64)
    weight[s] = 1  # the fold starts at 1: visits count time 0
    runs = [
        ((s, cfg), dict(fold=(weight, np.add)),
         lambda: green_estimate(net, start, start, cfg)),
        ((o, cfg), dict(stop=[o], fold=(np.append(net.arrays.dist, 0), np.maximum)),
         lambda: escape_probability(net, radii, cfg)),
        ((s, cfg), dict(stop=(net._require(target), net._require(absorber))),
         lambda: hitting_probability(net, target, absorber, start, cfg)),
    ]
    spans, draw_spans = [], randomwalk._draw_spans

    def counted(walks):
        out = draw_spans(walks)
        spans.append(len(out[0]))
        return out

    monkeypatch.setattr(randomwalk, "_draw_spans", counted)
    engine = [(randomwalk._simulate(net, *args, **kw), estimate())
              for args, kw, estimate in runs]
    assert (max(spans, default=1) > 1) == (case in _SPLIT_CASES)
    monkeypatch.setattr(randomwalk, "_simulate", _reference_simulate)
    for (args, kw, estimate), (out, result) in zip(runs, engine):
        expected = _reference_simulate(net, *args, **kw)
        for name, got, want in zip(("last", "score", "half"), out, expected):
            if want is None:
                assert got is None, name
            else:
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
        assert result == estimate()


def _span_draws(active, gap):
    """Draws in one step for the ascending active walks, when a span starts
    at the Philox block of its first walk and a new one where consecutive
    walks are more than ``gap`` apart."""
    cut = np.flatnonzero(np.diff(active) > gap) + 1
    first, last = active[np.r_[0, cut]], active[np.r_[cut - 1, len(active) - 1]]
    return int((last + 1 - (first & ~3)).sum())


def test_draws_stay_within_the_spans_of_active_walks(monkeypatch):
    drawn = []

    class Philox(np.random.Philox):  # the state setter checks this name
        def random_raw(self, size=None, output=True):
            drawn.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", Philox)
    net = build(ModelSpec("unit_line"), radius=100)
    o = net._require(net.origin)
    ones = np.ones(len(net.vertices) + 1, dtype=np.int64)
    cfg = WalkConfig(n_walks=2000, max_steps=10000, seed=4)
    # Escape walks thin out as they return home; the fold counts each
    # walk's steps, plus one for time 0.
    steps = randomwalk._simulate(net, o, cfg, stop=(o,), fold=(ones, np.add))[1] - 1
    # A walk of T steps draws at steps 0..T-1, so between consecutive step
    # counts the active walks stay the same.
    allowed = full = 0
    ends = np.unique(steps)
    for begin, end in zip(np.r_[0, ends[:-1]], ends):
        active = np.flatnonzero(steps >= end)
        allowed += int(end - begin) * _span_draws(active, randomwalk._SPAN_GAP)
        full += int(end - begin) * _span_draws(active, cfg.n_walks)
    assert int(steps.sum()) <= sum(drawn) <= allowed
    assert allowed < full / 2  # one span from the first to the last walk
