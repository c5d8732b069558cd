"""Reference windows: the built-in families as neighbour generators, one
pure function of the vertex id each, for ``Network.from_generator``.  The
closed-form windows of ``models.build`` are pinned against these."""

from resnet.errors import UnsupportedModelError
from resnet.network import Network


def geom_edge(c, a, b):
    """Conductance of the integer edge {a, b} = c^max(|a|, |b|)."""
    return c ** max(abs(a), abs(b))


def reference_generator(spec):
    """(origin, neighbour function) of a built-in family."""
    c = spec.c
    # The half-lines (geom_zplus, log_increment_line) stop at 0.
    half = spec.family in ("geom_zplus", "log_increment_line")
    if spec.family in ("unit_line", "log_increment_line"):
        def nbrs(n):
            return ((n + 1, 1.0),) if half and n <= 0 else ((n - 1, 1.0), (n + 1, 1.0))
        return 0, nbrs
    if spec.family in ("geom_z", "geom_zplus"):
        def nbrs(n):
            up = (n + 1, geom_edge(c, n, n + 1))
            return (up,) if half and n <= 0 else ((n - 1, geom_edge(c, n - 1, n)), up)
        return 0, nbrs
    if spec.family == "star":
        m = spec.arms

        def nbrs(v):
            b, d = v
            if d == 0:
                return [((arm, 1), c) for arm in range(m)]
            out = [((b, d - 1) if d > 1 else (0, 0), c ** d)]
            out.append(((b, d + 1), c ** (d + 1)))
            return out
        return (0, 0), nbrs
    if spec.family == "binary_tree":
        # Vertex (k, d) is the k-th node at depth d; children (2k, d+1), (2k+1, d+1).
        def nbrs(v):
            k, d = v
            out = [((2 * k, d + 1), 1.0), ((2 * k + 1, d + 1), 1.0)]
            if d > 0:
                out.append(((k // 2, d - 1), 1.0))
            return out
        return (0, 0), nbrs
    raise UnsupportedModelError(spec.family)


def reference_window(spec, radius):
    """The window of ``spec`` at ``radius``, from one breadth-first search."""
    origin, nbrs = reference_generator(spec)
    return Network.from_generator(origin, nbrs, radius)
