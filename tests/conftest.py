import builtins
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import resnet as rn
from resnet.models import ModelSpec, build

from reference_pointwise import function_on

settings.register_profile(
    "suite", derandomize=True, max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def unit_path():
    return rn.Network.from_edges(0, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture(scope="session")
def unit_path_plan(unit_path):
    return rn.make_exhaustion(unit_path, [1, 2])


@pytest.fixture(scope="session")
def triangle():
    return rn.Network.from_edges(0, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture(scope="session")
def geom2_spec():
    return ModelSpec("geom_z", {"c": 2.0})


@pytest.fixture(scope="session")
def geom2(geom2_spec):
    return build(geom2_spec, radius=32)


@pytest.fixture(scope="session")
def geom2_plan(geom2):
    return rn.make_exhaustion(geom2, range(1, 31))


@pytest.fixture(scope="session")
def zplus2_spec():
    return ModelSpec("geom_zplus", {"c": 2.0})


@pytest.fixture(scope="session")
def zplus2(zplus2_spec):
    return build(zplus2_spec, radius=32)


@pytest.fixture(scope="session")
def zplus2_plan(zplus2):
    return rn.make_exhaustion(zplus2, range(1, 29))


def random_edges(rng, max_vertices=40):
    """The edges of a random connected weighted graph on 0, 1, ...: a random
    spanning tree plus a few extra edges, conductances in [0.5, 5]."""
    n = int(rng.integers(3, max_vertices + 1))
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v, float(rng.uniform(0.5, 5.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.append((int(a), int(b), float(rng.uniform(0.5, 5.0))))
    return edges


def make_random_net(rng, max_vertices=40):
    """Random connected weighted graph with origin 0 (see random_edges)."""
    return rn.Network.from_edges(0, random_edges(rng, max_vertices))


def lognormal_grid_edges(side, seed):
    """A side x side grid with lognormal(0, 1) conductances drawn from
    ``random.Random(seed)`` and tuple ids, centred on (0, 0): the grid of the
    report-grid benchmark workload at side 25."""
    rng = random.Random(seed)
    h = side // 2
    edges = []
    for i in range(-h, h + 1):
        for j in range(-h, h + 1):
            if i < h:
                edges.append(((i, j), (i + 1, j), rng.lognormvariate(0.0, 1.0)))
            if j < h:
                edges.append(((i, j), (i, j + 1), rng.lognormvariate(0.0, 1.0)))
    return edges


def random_function(rng, net, scale=2.0):
    """Uniform values in [-scale, scale] on every vertex of ``net``, drawn in
    the iteration order of the vertex set."""
    return function_on(net, {x: float(rng.uniform(-scale, scale))
                             for x in frozenset(net.vertices)})


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def strict_sum(monkeypatch):
    """A call that makes ``builtins.sum`` refuse float terms for the rest of
    the test.  From Python 3.12 on, the builtin compensates float sums, so a
    float sum that reaches it would move bytes there; this emulates that
    interpreter's difference as an error on any interpreter."""
    real = builtins.sum

    def refusing(iterable, /, start=0):
        terms = list(iterable)
        if any(isinstance(t, float) for t in (start, *terms)):
            raise AssertionError(f"builtin sum over floats: {terms[:3]}")
        return real(terms, start)

    return lambda: monkeypatch.setattr(builtins, "sum", refusing)
