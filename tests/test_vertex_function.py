"""A function built on a canonical vertex tuple from arrays agrees with the
same function built from a dict of vertex values, on every read and every
derived function, for int and tuple ids and windows that skip positions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnet.errors import WindowError
from resnet.network import GAUGES, VertexFunction, vsorted

PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4))
IDS = st.one_of(*(st.lists(ids, min_size=1, max_size=24, unique=True) for ids in (
    st.integers(-30, 30), PAIRS, st.one_of(st.integers(-5, 5), PAIRS))))
VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def function_pair(draw, vertices=None):
    """(array-built, dict-built, the vertex tuple, an id outside the window)."""
    if vertices is None:
        vertices = tuple(vsorted(draw(IDS)))
    on = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    pos = np.flatnonzero(on)
    values = draw(st.lists(VALUES, min_size=len(pos), max_size=len(pos)))
    gauge = draw(st.sampled_from(GAUGES))
    array = VertexFunction.at_positions(vertices, pos, np.array(values, float), gauge)
    mapping = VertexFunction(dict(zip(map(vertices.__getitem__, pos.tolist()), values)),
                             gauge)
    off = [vertices[p] for p in np.flatnonzero(~np.array(on)).tolist()]
    return array, mapping, vertices, off[0] if off else (99, 99, 99)


def assert_same(a, b):
    assert a.items() == b.items()
    assert a.window == b.window and len(a) == len(b) and a.gauge == b.gauge


@given(function_pair())
def test_reads_agree(pair):
    array, mapping, vertices, outside = pair
    assert_same(array, mapping)
    for x in (*vertices, outside, 1000, (7, 7, 7)):
        assert (x in array) == (x in mapping)
        if x in mapping:
            assert array.value(x) == mapping.value(x) == mapping(x)
        else:
            for f in (array, mapping):
                with pytest.raises(WindowError, match="outside the function window"):
                    f.value(x)


@given(function_pair(), st.data())
def test_derived_functions_agree(pair, data):
    array, mapping, _, outside = pair
    window = [x for x, _ in mapping.items()]
    sub = data.draw(st.lists(st.sampled_from(window), unique=True)) if window else []
    assert_same(array.restricted(sub), mapping.restricted(sub))
    for f in (array, mapping):
        with pytest.raises(WindowError, match="window extends beyond the function"):
            f.restricted([*sub, outside])
    k, a = data.draw(VALUES), data.draw(VALUES)
    assert_same(array.shifted(k), mapping.shifted(k))
    assert_same(array.scaled(a), mapping.scaled(a))
    assert_same(a * array, a * mapping)
    if window:
        x = data.draw(st.sampled_from(window))
        pinned = array.pinned_at(x)
        assert_same(pinned, mapping.pinned_at(x))
        assert pinned.value(x) == 0.0
    for f in (array, mapping):
        with pytest.raises(WindowError):
            f.pinned_at(outside)


@given(st.data())
def test_sums_and_differences_agree(data):
    array, mapping, vertices, _ = data.draw(function_pair())
    other_array, other_mapping, _, _ = data.draw(function_pair(vertices))
    for op in (lambda f, g: f + g, lambda f, g: f - g):
        want = op(mapping, other_mapping)
        assert want.gauge == "raw"
        # Same vertex tuple, two dict-built tuples, and one of each.
        for f, g in ((array, other_array), (array, other_mapping),
                     (mapping, other_array)):
            assert_same(op(f, g), want)
