"""Command-line front end.

Verbs: gen, kernel, monopole, gaussgreen, transience, walk, resistance,
report.  The parser is built per verb from ``_VERBS``: it names every verb
with its help and gives only the invoked one its arguments, which are the
options that verb reads.  Verbs compute their artifacts, JSON (verdicts,
reports) or CSV (per-stage traces); ``_write`` records and writes them with
a config block: the version, each of the seed, tolerance (at the verb's
default when omitted), walks and steps that the verb takes, the plan, the
network options and resolved model, and the verb's own extras (gaussgreen's
--u/--v, walk's --op).

Exit codes: 0 success, 2 precondition or domain errors (bad input, unknown
model, malformed JSON), 3 a result that did not converge (still written) or
a solve that failed its residual check (``NumericalError``; nothing written).
"""

from __future__ import annotations

import argparse
import ast
import math
import os
import sys
from dataclasses import asdict, astuple

from . import __version__
from .errors import ConfigurationError, NumericalError, ResnetError
from .gaussgreen import LIMIT_TOL, VERDICT_INCONCLUSIVE, gauss_green
from .kernels import (KIND_DIPOLE, KIND_FIN, KIND_HARM, POINTWISE_TOL,
                      effective_resistance, energy_kernel, fin_part, harm_part,
                      monopole, wired_monopole)
from .models import (ModelSpec, build, harmonic_energy, load_network,
                     log_increment_function, network_to_jsonable,
                     oracle_h_function, oracle_w_o_function, spec_of)
from .network import VertexFunction, make_exhaustion
from .randomwalk import (WalkConfig, escape_probability, green_estimate,
                         hitting_probability)
from .serialize import canonical_json, csv_text, fmt_float, vertex_label
from .transience import classify, grounded_parameter_sweep, harm_dimension_probe

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


def _parse_vertex(text):
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise ConfigurationError(f"cannot parse vertex id {text!r}") from None
    if isinstance(value, int):
        return value
    if isinstance(value, tuple) and all(isinstance(t, int) for t in value):
        return value
    raise ConfigurationError(f"vertex ids are ints or int tuples, got {text!r}")


def _vertex_or_origin(net, text):
    """The vertex ``text`` names, or the network's origin when it is None."""
    return net.origin if text is None else _parse_vertex(text)


def _parse_sweep(text):
    """The conductance bases of ``--sweep LO:HI:COUNT``: COUNT values evenly
    spaced from LO to HI, for finite positive floats LO and HI and an
    integer COUNT >= 2."""
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigurationError(
            f"--sweep must be LO:HI:COUNT with an integer COUNT, got {text!r}") from None
    for value in (lo, hi):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(
                f"--sweep bounds are conductance bases, finite and positive; got {value!r}")
    if count < 2:
        raise ConfigurationError(f"--sweep COUNT must be at least 2, got {count}")
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _radii(texts, what):
    """The integer radii spelled by ``texts``; ConfigurationError naming
    ``what`` if one is not an integer."""
    try:
        return [int(t) for t in texts]
    except ValueError as exc:
        raise ConfigurationError(f"{what}: {exc}") from None


def _parse_plan(net, text):
    """Plan descriptors: balls:A..B | radii:2^k | radii:3^k | radii:1,2,4.

    Without a descriptor, balls of radii 1, 2, ... up to the window radius
    (the largest distance on a finite network)."""
    if text is None:
        return make_exhaustion(net, range(1, max(net.max_radius, 1) + 1))
    kind, _, rest = text.partition(":")
    if kind == "balls":
        a, sep, b = rest.partition("..")
        if not sep:
            raise ConfigurationError(f"expected balls:A..B, got {text!r}")
        a, b = _radii((a, b), f"plan {text!r}")
        return make_exhaustion(net, range(a, b + 1), descriptor=text)
    if kind == "radii":
        if rest in ("2^k", "3^k"):
            base = int(rest[0])
            radii, r = [], base
            while r <= net.max_radius:
                radii.append(r)
                r *= base
            if not radii:
                raise ConfigurationError(f"window too small for plan {text!r}")
            return make_exhaustion(net, radii, descriptor=text)
        return make_exhaustion(net, _radii(rest.split(","), f"plan {text!r}"),
                               descriptor=text)
    raise ConfigurationError(f"unknown plan descriptor {text!r}")


def _load_net(args):
    radius = args.radius
    if radius is not None and radius < 1:
        raise ConfigurationError(f"--radius must be at least 1, got {radius}")
    params = {k: getattr(args, k) for k in ("c", "arms") if getattr(args, k) is not None}
    if args.net and args.model or params and not args.model:
        raise ConfigurationError("--net and --model exclude each other, and --c and "
                                 "--arms set a --model family's parameters")
    if args.net:
        try:
            with open(args.net, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read network file: {exc}") from exc
        try:
            return load_network(text, radius=radius)
        except ResnetError:  # a well-formed file the network refuses
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed network JSON in {args.net}: {exc}") from exc
    if args.model:
        family = args.model.replace("-", "_")
        return build(ModelSpec(family, params), radius=radius)
    raise ConfigurationError("specify either --net FILE or --model NAME")


def _covering_plan(net, plan, alt_plan):
    """The plan that --u/--v presets are resolved over.

    ``plan`` itself unless ``alt_plan`` reaches farther; then the balls of
    both radius schedules, so one function covers every stage of both plans.
    """
    if alt_plan is None or alt_plan.final_radius <= plan.final_radius:
        return plan
    return make_exhaustion(net, sorted(set(plan.radii) | set(alt_plan.radii)))


def _resolve_function(net, plan, text):
    """Named presets binding oracles and computed kernels to --u/--v.

    ``plan`` must reach every stage the function is evaluated on: for
    ``gaussgreen`` that is the window covering both --plan and --alt-plan
    (see :func:`_covering_plan`).
    """
    spec = spec_of(net)
    if text == "harm":
        if spec is None or spec.family != "geom_z":
            raise ConfigurationError("'harm' preset needs a geom-z model network")
        radius = plan.final_radius
        return oracle_h_function(spec, radius, net.vertices, unit_energy=True)
    if text == "w_o":
        if spec is not None and spec.family in ("geom_z", "geom_zplus"):
            return oracle_w_o_function(spec, plan.final_radius, net.vertices)
        return wired_monopole(net, net.origin, plan).approximant
    if text == "logu":
        if spec is None or spec.family != "log_increment_line":
            raise ConfigurationError("'logu' preset needs the log-increment-line model")
        return log_increment_function(plan.final_radius, net.vertices)
    if text.startswith("v:x="):
        x = _parse_vertex(text[4:])
        return energy_kernel(net, x, plan).approximant
    if text.startswith("file:"):
        return _function_file(net, text[5:])
    raise ConfigurationError(f"unknown function preset {text!r}")


def _function_file(net, path):
    """The function of the ``vertex,value`` rows of a CSV file, on the
    network's vertices.  A vertex the network lacks, a vertex given twice and
    a value that is not finite are refused, naming the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read function file {path}: {exc}") from None
    values = {}  # position in net.vertices -> value
    for lineno, line in enumerate(map(str.strip, lines), 1):
        if not line or line.startswith(("#", "vertex")):
            continue
        vid, _, val = line.rpartition(",")
        try:
            x, value = _parse_vertex(vid.replace(";", ",")), float(val)
            try:
                p = net._require(x)
            except ResnetError:
                raise ConfigurationError(f"vertex {x!r} is not in the network's window") from None
            if p in values:
                raise ConfigurationError(f"vertex {x!r} is given twice")
            if not math.isfinite(value):
                raise ConfigurationError(f"value {value!r} at vertex {x!r} is not finite")
        except ValueError as exc:  # ConfigurationError is a ValueError too
            raise ConfigurationError(f"{path}, line {lineno}: {exc}") from None
        values[p] = value
    pos = sorted(values)
    return VertexFunction(net.vertices, pos, [values[p] for p in pos])


def _network(args):
    """The network of the options, and the plan --plan names over it."""
    if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:  # NaN fails too
        raise ConfigurationError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    net = _load_net(args)
    return net, _parse_plan(net, args.plan)


def _walks(args):
    """The walks of --walks, --steps and --seed, checked before any network loads."""
    return WalkConfig(n_walks=args.walks, max_steps=args.steps, seed=args.seed)


def _write(args, net, plan, artifact, ok=True, **extras):
    """Write ``artifact`` with its config block and return the exit code, 3
    unless ``ok``: a payload dict as JSON, the block under ``config``, or
    ``(columns, rows, meta)`` as CSV, the block merged into the header."""
    config = {k: getattr(args, k) for k in ("seed", "tol", "walks", "steps") if hasattr(args, k)}
    config["version"] = __version__
    if plan is not None:
        config["plan"] = plan.descriptor
    if args.model:
        config["model"] = args.model
    if args.net:
        config["net"] = args.net
    if net.model is not None:
        config["resolved_model"] = net.model
    config.update(extras)
    if isinstance(artifact, dict):
        _emit(args, canonical_json(dict(artifact, config=config)) + "\n")
    else:
        columns, rows, meta = artifact
        _emit(args, csv_text(columns, rows, dict(config, **meta)))
    return EXIT_OK if ok else EXIT_NUMERIC


def _emit(args, text):
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verb implementations ----------------------------------------------------


def _cmd_gen(args):
    net = _load_net(args)
    _emit(args, canonical_json(network_to_jsonable(net)) + "\n")
    return EXIT_OK


def _cmd_kernel(args):
    net, plan = _network(args)
    x = _parse_vertex(args.x)
    op = {KIND_DIPOLE: energy_kernel, KIND_FIN: fin_part, KIND_HARM: harm_part}[args.kind]
    element = op(net, x, plan, tol=args.tol)
    artifact = element.to_jsonable() if args.format == "json" else (
        ("vertex", "value"), [(vertex_label(y), u) for y, u in element.approximant.items()],
        dict(kind=element.kind, base=vertex_label(x), converged=element.converged))
    return _write(args, net, plan, artifact, element.converged)


def _cmd_monopole(args):
    net, plan = _network(args)
    element = monopole(net, _vertex_or_origin(net, args.x), plan)
    return _write(args, net, plan, element.to_jsonable(), element.converged or element.diverged)


def _cmd_gaussgreen(args):
    net, plan = _network(args)
    alt_plan = _parse_plan(net, args.alt_plan) if args.alt_plan else None
    preset_plan = _covering_plan(net, plan, alt_plan)
    u = _resolve_function(net, preset_plan, args.u)
    v = u if args.v == args.u else _resolve_function(net, preset_plan, args.v)
    report = gauss_green(net, u, v, plan, alt_plan, limit_tol=args.tol)
    if args.format == "csv":
        meta = {"verdict": report.verdict}
        if report.boundary_limit is not None:
            meta["boundary_limit"] = fmt_float(report.boundary_limit)
        if alt_plan is not None:
            meta["alt_descriptor"] = alt_plan.descriptor
            if report.meta["alt_boundary_limit"] is not None:
                meta["alt_boundary_limit"] = fmt_float(report.meta["alt_boundary_limit"])
        artifact = (("radius", "stage_size", "energy", "vertex_sum", "boundary_sum",
                     "residual"), [astuple(s) for s in report.stages], meta)
    else:
        artifact = report.to_jsonable()
    return _write(args, net, plan, artifact, report.verdict != VERDICT_INCONCLUSIVE,
                  u=args.u, v=args.v)


def _cmd_transience(args):
    cfg = _walks(args)
    net, plan = _network(args)
    verdict = classify(net, plan, cfg)
    return _write(args, net, plan, verdict.to_jsonable(), verdict.verdict != "inconclusive")


# The options each walk --op reads besides the network and the walks, and
# what it reads them for.
_WALK_OPS = {
    "hitting": (("x", "start", "absorber"), "hitting walks from --start until --x or --absorber"),
    "green": (("x", "y"), "green walks from --x and counts the visits to --y"),
    "escape": (("radii",), "escape walks start at the network's origin"),
}


def _cmd_walk(args):
    reads, why = _WALK_OPS[args.op]
    given = [f"--{name}" for name in ("x", "y", "start", "absorber", "radii")
             if name not in reads and getattr(args, name) is not None]
    if given:
        raise ConfigurationError(
            f"walk --op {args.op} does not take {', '.join(given)}: {why}")
    if args.op == "escape":
        text = "2,4,8,16" if args.radii is None else args.radii
        radii = _radii(text.split(","), f"--radii {text!r}")
    cfg = _walks(args)
    net = _load_net(args)
    if args.op == "escape":
        payload = asdict(escape_probability(net, radii, cfg))
    else:
        x = _vertex_or_origin(net, args.x)
        if args.op == "hitting":
            est = hitting_probability(net, x, _vertex_or_origin(net, args.absorber),
                                      _vertex_or_origin(net, args.start), cfg)
        else:
            est = green_estimate(net, x, x if args.y is None else _parse_vertex(args.y), cfg)
        payload = {"estimate": est.value, "stderr": est.stderr, "flags": list(est.flags),
                   "n_walks": est.n_walks, "seed": est.seed}
        if args.op == "green":
            payload["meta"] = est.meta
    return _write(args, net, None, payload, op=args.op)


def _cmd_resistance(args):
    net, plan = _network(args)
    value = effective_resistance(net, _parse_vertex(args.x), _parse_vertex(args.y),
                                 plan, variant=args.variant)
    payload = asdict(value)
    payload["resistance"] = payload.pop("value")
    return _write(args, net, plan, payload, value.converged)


def _cmd_report(args):
    cs = _parse_sweep(args.sweep) if args.sweep else None
    cfg = _walks(args)
    net, plan = _network(args)
    verdict = classify(net, plan, cfg)
    rank, harm_detail = harm_dimension_probe(net, plan)
    payload = {"transience": verdict.to_jsonable(), "harmonic_dimension": rank,
               "harmonic_detail": harm_detail}
    spec = spec_of(net)
    if spec is not None and spec.family == "geom_z":
        payload["harmonic_oracle_energy"] = harmonic_energy(spec)
    if cs is not None:
        payload["grounded_sweep"] = grounded_parameter_sweep(cs)
    return _write(args, net, plan, payload)


# Options that several verbs read, listed in the rows of those that read them:
# each row gives --tol its default, and --seed defaults to RESNET_SEED.
_PLAN = ("--plan", dict(help="exhaustion plan: balls:A..B, radii:2^k, radii:3^k, "
                             "or radii:R1,R2,..."))
_FORMAT = ("--format", dict(choices=("json", "csv"), default="json"))
_SEED = ("--seed", dict(type=int, help="RNG seed (default: RESNET_SEED env or 0)"))
_TOL = dict(type=float, help="convergence tolerance (default %(default)g)")
_WALKS = (("--walks", dict(type=int, default=4000)), ("--steps", dict(type=int, default=4000)))
# The options of every verb, then each verb: its help, its command, and the
# rest of its options as (flag, keywords) pairs.
_NETWORK = (
    ("--net", dict(help="network JSON file (explicit or model form)")),
    ("--model", dict(help="built-in family (geom-z, geom-zplus, star, "
                          "unit-line, binary-tree, log-increment-line)")),
    ("--c", dict(type=float, help="conductance base")),
    ("--arms", dict(type=int, help="star arm count")),
    ("--radius", dict(type=int, help="window radius")))
_VERBS = {
    "gen": ("build a network and write its JSON", _cmd_gen, ()),
    "kernel": ("dipole kernel element and its parts", _cmd_kernel, (
        _PLAN, ("--tol", dict(_TOL, default=POINTWISE_TOL)), _FORMAT,
        ("--x", dict(required=True, help="base vertex")),
        ("--kind", dict(choices=(KIND_DIPOLE, KIND_FIN, KIND_HARM), default=KIND_DIPOLE)))),
    "monopole": ("monopole element via wired solves", _cmd_monopole, (
        _PLAN, ("--x", dict(help="base vertex (default: the network's origin)")))),
    "gaussgreen": ("stagewise Gauss-Green decomposition", _cmd_gaussgreen, (
        _PLAN, ("--tol", dict(_TOL, default=LIMIT_TOL)), _FORMAT,
        ("--u", dict(required=True, help="preset: harm | w_o | logu | v:x=N | file:PATH")),
        ("--v", dict(required=True, help="same presets as --u")),
        ("--alt-plan", dict(help="second plan for exhaustion-dependence detection; "
                                 "--u/--v presets are resolved over a window covering "
                                 "both plans")))),
    "transience": ("classify the network's random walk", _cmd_transience, (
        _PLAN, _SEED, *_WALKS)),
    "walk": ("Monte Carlo estimates", _cmd_walk, (
        _SEED,
        ("--op", dict(choices=("hitting", "green", "escape"), required=True)),
        ("--x", dict(help="green: start vertex; hitting: target vertex "
                          "(default: the network's origin)")),
        ("--y", dict(help="green: vertex whose visits are counted (default: --x)")),
        ("--start", dict(help="hitting: start vertex (default: the network's origin)")),
        ("--absorber", dict(help="hitting: absorbing vertex (default: the network's origin)")),
        ("--radii", dict(help="escape: ball radii R1,R2,... (default: 2,4,8,16)")),
        ("--walks", dict(type=int, default=100000)),
        ("--steps", dict(type=int, default=100000)))),
    "resistance": ("effective resistance between two vertices", _cmd_resistance, (
        _PLAN,
        ("--x", dict(required=True)),
        ("--y", dict(required=True)),
        ("--variant", dict(choices=("free", "wired"), default="free")))),
    "report": ("combined audit report for a network", _cmd_report, (
        _PLAN, _SEED, *_WALKS,
        ("--sweep", dict(help="grounded-parameter sweep, LO:HI:COUNT over c")))),
}


def build_parser(verb=None):
    """The parser that names every verb with its help, and gives ``verb``
    alone its arguments."""
    parser = argparse.ArgumentParser(
        prog="resnet",
        description="Discrete potential theory on weighted graphs: kernels, "
                    "monopoles, Gauss-Green boundary terms and transience.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (text, fn, own) in _VERBS.items():
        p = sub.add_parser(name, help=text, add_help=name == verb)
        if name != verb:
            continue
        for flag, options in _NETWORK + own:
            if flag == "--seed":  # a string default goes through type=int too
                options = dict(options, default=os.environ.get("RESNET_SEED", "0"))
            p.add_argument(flag, **options)
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = next((a for a in argv if not a.startswith("-")), None)  # top-level flags take no value
    args = build_parser(verb).parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"resnet: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ResnetError, FileNotFoundError) as exc:
        print(f"resnet: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
