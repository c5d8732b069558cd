"""The closed-form windows of ``models.build`` against one breadth-first
search over the reference generators: the same arrays, search order, ring,
balls and incident pairs, bit for bit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnet.models import ModelSpec, _largest_exponent, build

from reference_windows import reference_window


def assert_same_window(net, ref, radii):
    for field in dataclasses.fields(ref.arrays):
        got, want = getattr(net.arrays, field.name), getattr(ref.arrays, field.name)
        assert got.dtype == want.dtype, field.name
        assert np.array_equal(got, want), field.name
    assert net.vertices == ref.vertices
    assert list(net._pos.items()) == list(ref._pos.items())
    assert net._ring == ref._ring
    assert net._cuts == ref._cuts
    assert net.origin == ref.origin and net.window_radius == ref.window_radius
    for x in ref.vertices:
        assert net.incident(x) == ref.incident(x)
    for r in radii:
        assert list(net.ball(r)) == list(ref.ball(r))


CASES = [
    (ModelSpec("geom_z", {"c": 2.0}), 40),
    (ModelSpec("geom_z", {"c": 0.5}), 40),
    (ModelSpec("geom_zplus", {"c": 2.0}), 40),
    (ModelSpec("geom_zplus", {"c": 3.0}), 40),
    (ModelSpec("geom_zplus", {"c": 2.0}), _largest_exponent(2.0) - 1),
    (ModelSpec("geom_zplus", {"c": 3.0}), _largest_exponent(3.0) - 1),
    (ModelSpec("star", {"c": 2.0, "arms": 1}), 30),
    (ModelSpec("star", {"c": 2.0, "arms": 5}), 30),
    (ModelSpec("unit_line"), 50),
    *((ModelSpec("binary_tree"), depth) for depth in range(1, 13)),
]


@pytest.mark.parametrize("spec, radius", CASES,
                         ids=[f"{s.family}-{s.params}-{r}" for s, r in CASES])
def test_build_matches_the_reference_search(spec, radius):
    assert_same_window(build(spec, radius), reference_window(spec, radius),
                       range(radius + 1))


def test_build_matches_the_reference_search_on_the_log_increment_line():
    # Every ball would be quadratic in the radius here; the balls checked are
    # those of the radii:2^k and radii:3^k plans, and the whole window.
    radius = 3 ** 10
    radii = sorted({0, radius} | {2 ** k for k in range(16)} | {3 ** k for k in range(11)})
    spec = ModelSpec("log_increment_line")
    assert_same_window(build(spec, radius), reference_window(spec, radius), radii)


@given(family=st.sampled_from(["geom_z", "geom_zplus", "star", "unit_line",
                               "binary_tree", "log_increment_line"]),
       c=st.floats(min_value=0.25, max_value=4.0),
       arms=st.integers(min_value=1, max_value=6),
       radius=st.integers(min_value=0, max_value=9))
def test_build_matches_the_reference_search_on_small_windows(family, c, arms, radius):
    spec = ModelSpec(family, {"c": c, "arms": arms})
    assert_same_window(build(spec, radius), reference_window(spec, radius),
                       range(radius + 1))


def test_log_increment_window_memory_peak():
    tracemalloc.start()
    try:
        build(ModelSpec("log_increment_line"), 3 ** 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2 ** 20
