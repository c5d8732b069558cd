"""A function on a network's vertex tuple agrees with the dict of its vertex
values on every read and every derived function, for int, tuple and mixed
ids and windows that skip positions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnet.errors import DomainError, WindowError
from resnet.network import GAUGES, Network, VertexFunction
from resnet.operators import energy

PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4))
IDS = st.one_of(*(st.lists(ids, min_size=2, max_size=24, unique=True) for ids in (
    st.integers(-30, 30), PAIRS, st.one_of(st.integers(-5, 5), PAIRS))))
VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def path_network(ids):
    """The path through ``ids`` in the given order, from its first id."""
    return Network.from_edges(ids[0], [(a, b, 1.0) for a, b in zip(ids, ids[1:])])


@st.composite
def function_on_a_network(draw, net=None):
    """(network, a function on its vertex tuple, the dict of its values, an
    id outside the function's window)."""
    if net is None:
        net = path_network(draw(IDS))
    vertices = net.vertices
    on = draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    pos = np.flatnonzero(on)
    values = draw(st.lists(VALUES, min_size=len(pos), max_size=len(pos)))
    f = VertexFunction(vertices, pos, values, draw(st.sampled_from(GAUGES)))
    mapping = dict(zip(map(vertices.__getitem__, pos.tolist()), values))
    off = [x for x in vertices if x not in mapping]
    return net, f, mapping, off[0] if off else (99, 99, 99)


def canonical(net, mapping):
    """The (vertex, value) pairs of ``mapping`` in the order of ``net.vertices``."""
    return [(x, mapping[x]) for x in net.vertices if x in mapping]


@given(function_on_a_network())
def test_reads_agree(case):
    net, f, mapping, outside = case
    assert f.items() == canonical(net, mapping)
    assert f.window == frozenset(mapping) and len(f) == len(mapping)
    for x in (*net.vertices, outside, 1000, (7, 7, 7), "x"):
        assert (x in f) == (x in mapping)
        if x in mapping:
            assert f.value(x) == f(x) == mapping[x]
        else:
            with pytest.raises(WindowError, match="outside the function window"):
                f.value(x)


@given(function_on_a_network(), st.data())
def test_derived_functions_agree(case, data):
    net, f, mapping, outside = case
    k, a = data.draw(VALUES), data.draw(VALUES)
    shifted = f.shifted(k)
    assert shifted.items() == canonical(net, {x: v + k for x, v in mapping.items()})
    assert shifted.gauge == "raw"
    for scaled in (f.scaled(a), a * f, f * a):
        assert scaled.items() == canonical(net, {x: a * v for x, v in mapping.items()})
        assert scaled.gauge == f.gauge
    if mapping:
        x = data.draw(st.sampled_from(sorted(mapping, key=net.vertices.index)))
        pinned = f.pinned_at(x)
        want = {y: v - mapping[x] for y, v in mapping.items()}
        want[x] = 0.0
        assert pinned.items() == canonical(net, want) and pinned.gauge == "origin-zero"
    with pytest.raises(WindowError, match="outside the function window"):
        f.pinned_at(outside)


@given(st.data())
def test_sums_and_differences_agree(data):
    net, f, mapping, _ = data.draw(function_on_a_network())
    _, g, other, _ = data.draw(function_on_a_network(net))
    both = [x for x in mapping if x in other]
    for op in (lambda p, q: p + q, lambda p, q: p - q):
        h = op(f, g)
        assert h.items() == canonical(net, {x: op(mapping[x], other[x]) for x in both})
        assert h.gauge == "raw"
    # A function on another network's vertex tuple is refused, even an equal one.
    twin = path_network(list(net.vertices))
    for stranger in (VertexFunction(twin.vertices, g._pos, g._values),
                     VertexFunction(path_network([*net.vertices, (9, 9, 9)]).vertices,
                                    [0], [1.0])):
        for h in (lambda: f + stranger, lambda: f - stranger,
                  lambda: energy(net, stranger)):
            with pytest.raises(DomainError, match="not on the network's vertices"):
                h()


def test_repr_names_the_window_size_and_gauge():
    f = VertexFunction(path_network([0, 1, 2, 3]).vertices, [0, 2, 3], [0.5, -1.0, 2.0])
    assert repr(f) == "VertexFunction(|window|=3, gauge='raw')"


def test_the_constructor_copies_the_values_it_is_given():
    # The package's builders hand their own arrays over uncopied; a caller's
    # array stays the caller's: writable, and not read by the function.
    net = path_network([0, 1, 2, 3])
    arr = np.array([0.5, -1.0, 2.0])
    f = VertexFunction(net.vertices, [0, 2, 3], arr)
    assert arr.flags.writeable
    assert not np.shares_memory(arr, f._values)
    arr[:] = 7.0
    assert [f.value(x) for x in (0, 2, 3)] == [0.5, -1.0, 2.0]
