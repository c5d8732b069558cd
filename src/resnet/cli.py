"""Command-line front end.

Verbs: gen, kernel, monopole, gaussgreen, transience, walk, resistance,
report.  Results are JSON (verdicts, reports) or CSV (per-stage traces);
every artifact embeds the fully resolved configuration, including the seed,
tolerances and exhaustion plan, so runs are auditable and reproducible.

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

from . import __version__
from .errors import ConfigurationError, NumericalError, ResnetError
from .gaussgreen import LIMIT_TOL, VERDICT_INCONCLUSIVE, gauss_green
from .kernels import (ENERGY_CAUCHY_TOL, KIND_DIPOLE, KIND_FIN, KIND_HARM,
                      POINTWISE_TOL, effective_resistance, energy_kernel,
                      fin_part, harm_part, monopole, wired_monopole)
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
    radius = getattr(args, "radius", None)
    if radius is not None and radius < 1:
        raise ConfigurationError(f"--radius must be at least 1, got {radius}")
    if getattr(args, "net", None):
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
    if getattr(args, "model", None):
        family = args.model.replace("-", "_")
        params = {k: getattr(args, k) for k in ("c", "arms") if getattr(args, k) is not None}
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
        return oracle_h_function(spec, radius, unit_energy=True, vertices=net.vertices)
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
        path, values = text[5:], {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read function file {path}: {exc}") from None
        for lineno, line in enumerate(map(str.strip, lines), 1):
            if not line or line.startswith(("#", "vertex")):
                continue
            vid, _, val = line.rpartition(",")
            try:
                values[_parse_vertex(vid.replace(";", ","))] = float(val)
            except ValueError as exc:  # ConfigurationError is a ValueError too
                raise ConfigurationError(f"{path}, line {lineno}: {exc}") from None
        return VertexFunction(values)
    raise ConfigurationError(f"unknown function preset {text!r}")


def _config_header(args, net, plan=None, tol=None):
    header = {"version": __version__, "seed": args.seed,
              "tol": tol if tol is not None else args.tol}
    if plan is not None:
        header["plan"] = plan.descriptor
    if getattr(args, "model", None):
        header["model"] = args.model
    if getattr(args, "net", None):
        header["net"] = args.net
    if net.model is not None:
        header["resolved_model"] = net.model
    return header


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
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    x = _parse_vertex(args.x)
    op = {KIND_DIPOLE: energy_kernel, KIND_FIN: fin_part, KIND_HARM: harm_part}[args.kind]
    tol = args.tol if args.tol is not None else POINTWISE_TOL
    element = op(net, x, plan, tol=tol)
    header = _config_header(args, net, plan, tol=tol)
    if args.format == "csv":
        meta = dict(header, kind=element.kind, base=vertex_label(x),
                    converged=element.converged)
        _emit(args, csv_text(("vertex", "value"), element.csv_rows(), meta))
    else:
        payload = element.to_jsonable()
        payload["config"] = header
        _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK if element.converged else EXIT_NUMERIC


def _cmd_monopole(args):
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    x = _vertex_or_origin(net, args.x)
    tol = args.tol if args.tol is not None else ENERGY_CAUCHY_TOL
    element = monopole(net, x, plan, cauchy_tol=tol)
    payload = element.to_jsonable()
    payload["config"] = _config_header(args, net, plan, tol=tol)
    _emit(args, canonical_json(payload) + "\n")
    if element.converged or element.diverged:
        return EXIT_OK
    return EXIT_NUMERIC


def _cmd_gaussgreen(args):
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    alt_plan = _parse_plan(net, args.alt_plan) if args.alt_plan else None
    preset_plan = _covering_plan(net, plan, alt_plan)
    u = _resolve_function(net, preset_plan, args.u)
    v = u if args.v == args.u else _resolve_function(net, preset_plan, args.v)
    tol = args.tol if args.tol is not None else LIMIT_TOL
    report = gauss_green(net, u, v, plan, alt_plan, limit_tol=tol)
    header = _config_header(args, net, plan, tol=tol)
    header["u"], header["v"] = args.u, args.v
    if args.format == "csv":
        rows = [(s.radius, s.size, s.energy, s.vertex_sum, s.boundary_sum, s.residual)
                for s in report.stages]
        meta = dict(header, verdict=report.verdict)
        if report.boundary_limit is not None:
            meta["boundary_limit"] = fmt_float(report.boundary_limit)
        if alt_plan is not None:
            meta["alt_descriptor"] = alt_plan.descriptor
            if report.meta["alt_boundary_limit"] is not None:
                meta["alt_boundary_limit"] = fmt_float(
                    report.meta["alt_boundary_limit"])
        _emit(args, csv_text(
            ("radius", "stage_size", "energy", "vertex_sum", "boundary_sum",
             "residual"), rows, meta))
    else:
        payload = report.to_jsonable()
        payload["config"] = header
        _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK if report.verdict != VERDICT_INCONCLUSIVE else EXIT_NUMERIC


def _cmd_transience(args):
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    cfg = WalkConfig(n_walks=args.walks, max_steps=args.steps, seed=args.seed)
    verdict = classify(net, plan, cfg)
    payload = verdict.to_jsonable()
    payload["config"] = _config_header(args, net, plan)
    _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK if verdict.verdict != "inconclusive" else EXIT_NUMERIC


def _cmd_walk(args):
    if args.op == "escape":
        given = [f"--{name}" for name in ("x", "y", "start", "absorber")
                 if getattr(args, name) is not None]
        if given:
            raise ConfigurationError(
                f"walk --op escape does not take {', '.join(given)}: escape walks "
                "start at the network's origin")
        radii = _radii(args.radii.split(","), f"--radii {args.radii!r}")
    net = _load_net(args)
    cfg = WalkConfig(n_walks=args.walks, max_steps=args.steps, seed=args.seed)
    header = {"version": __version__, "seed": args.seed, "walks": args.walks,
              "steps": args.steps, "op": args.op}
    if args.op == "hitting":
        est = hitting_probability(net, _vertex_or_origin(net, args.x),
                                  _vertex_or_origin(net, args.absorber),
                                  _vertex_or_origin(net, args.start), cfg)
        payload = {"estimate": est.value, "stderr": est.stderr,
                   "flags": list(est.flags), "n_walks": est.n_walks,
                   "seed": est.seed}
    elif args.op == "green":
        x = _vertex_or_origin(net, args.x)
        y = x if args.y is None else _parse_vertex(args.y)
        est = green_estimate(net, x, y, cfg)
        payload = {"estimate": est.value, "stderr": est.stderr,
                   "flags": list(est.flags), "n_walks": est.n_walks,
                   "seed": est.seed, "meta": est.meta}
    else:
        trace = escape_probability(net, net.origin, radii, cfg)
        payload = {"points": [list(p) for p in trace.points],
                   "capped": trace.capped, "exited": trace.exited,
                   "n_walks": trace.n_walks, "seed": trace.seed}
    payload["config"] = header
    _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK


def _cmd_resistance(args):
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    value = effective_resistance(net, _parse_vertex(args.x), _parse_vertex(args.y),
                                 plan, variant=args.variant)
    payload = {"resistance": value.value, "variant": value.variant,
               "converged": value.converged, "stages": list(value.stages),
               "config": _config_header(args, net, plan)}
    _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK if value.converged else EXIT_NUMERIC


def _cmd_report(args):
    cs = _parse_sweep(args.sweep) if args.sweep else None
    net = _load_net(args)
    plan = _parse_plan(net, args.plan)
    cfg = WalkConfig(n_walks=args.walks, max_steps=args.steps, seed=args.seed)
    verdict = classify(net, plan, cfg)
    rank, harm_detail = harm_dimension_probe(net, plan)
    payload = {
        "transience": verdict.to_jsonable(),
        "harmonic_dimension": rank,
        "harmonic_detail": harm_detail,
        "config": _config_header(args, net, plan),
    }
    spec = spec_of(net)
    if spec is not None and spec.family == "geom_z":
        payload["harmonic_oracle_energy"] = harmonic_energy(spec)
    if cs is not None:
        payload["grounded_sweep"] = grounded_parameter_sweep(cs)
    _emit(args, canonical_json(payload) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resnet",
        description="Discrete potential theory on weighted graphs: kernels, "
                    "monopoles, Gauss-Green boundary terms and transience.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, plan=True):
        p.add_argument("--net", help="network JSON file (explicit or model form)")
        p.add_argument("--model", help="built-in family (geom-z, geom-zplus, star, "
                                       "unit-line, binary-tree, log-increment-line)")
        p.add_argument("--c", type=float, default=None, help="conductance base")
        p.add_argument("--arms", type=int, default=None, help="star arm count")
        p.add_argument("--radius", type=int, default=None, help="window radius")
        p.add_argument("--seed", type=int,
                       default=int(os.environ.get("RESNET_SEED", "0")),
                       help="RNG seed (default: RESNET_SEED env or 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="convergence tolerance (per-verb default when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
        if plan:
            p.add_argument("--plan", default=None,
                           help="exhaustion plan: balls:A..B, radii:2^k, radii:3^k, "
                                "or radii:R1,R2,...")

    p = sub.add_parser("gen", help="build a network and write its JSON")
    add_common(p, plan=False)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("kernel", help="dipole kernel element and its parts")
    add_common(p)
    p.add_argument("--x", required=True, help="base vertex")
    p.add_argument("--kind", choices=(KIND_DIPOLE, KIND_FIN, KIND_HARM),
                   default=KIND_DIPOLE)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("monopole", help="monopole element via regularized solves")
    add_common(p)
    p.add_argument("--x", default=None,
                   help="base vertex (default: the network's origin)")
    p.set_defaults(fn=_cmd_monopole)

    p = sub.add_parser("gaussgreen", help="stagewise Gauss-Green decomposition")
    add_common(p)
    p.add_argument("--u", required=True,
                   help="preset: harm | w_o | logu | v:x=N | file:PATH")
    p.add_argument("--v", required=True, help="same presets as --u")
    p.add_argument("--alt-plan", dest="alt_plan", default=None,
                   help="second plan for exhaustion-dependence detection; "
                        "--u/--v presets are resolved over a window covering "
                        "both plans")
    p.set_defaults(fn=_cmd_gaussgreen)

    p = sub.add_parser("transience", help="classify the network's random walk")
    add_common(p)
    p.add_argument("--walks", type=int, default=4000)
    p.add_argument("--steps", type=int, default=4000)
    p.set_defaults(fn=_cmd_transience)

    p = sub.add_parser("walk", help="Monte Carlo estimates")
    add_common(p, plan=False)
    p.add_argument("--op", choices=("hitting", "green", "escape"), required=True)
    p.add_argument("--x", default=None,
                   help="green: start vertex; hitting: target vertex "
                        "(default: the network's origin)")
    p.add_argument("--y", default=None,
                   help="green: vertex whose visits are counted (default: --x)")
    p.add_argument("--start", default=None,
                   help="hitting: start vertex (default: the network's origin)")
    p.add_argument("--absorber", default=None,
                   help="hitting: absorbing vertex (default: the network's origin)")
    p.add_argument("--radii", default="2,4,8,16")
    p.add_argument("--walks", type=int, default=100000)
    p.add_argument("--steps", type=int, default=100000)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("resistance", help="effective resistance between two vertices")
    add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=("free", "wired"), default="free")
    p.set_defaults(fn=_cmd_resistance)

    p = sub.add_parser("report", help="combined audit report for a network")
    add_common(p)
    p.add_argument("--walks", type=int, default=4000)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--sweep", default=None,
                   help="grounded-parameter sweep, LO:HI:COUNT over c")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"resnet: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResnetError as exc:
        print(f"resnet: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        print(f"resnet: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
