"""Command-line front end: batch computations, machine-readable output.

Every subcommand computes, prints one JSON object or CSV table, and
exits: 0 on success, 1 on a usage problem, 2 on a numerical failure
(quadrature non-convergence, unusable lattice classification, NaN out
of a cost).  Errors go to stderr as a single ``error: ...`` line.
Numbers are serialized with 12 significant digits so reruns diff
cleanly; the Monte Carlo seed defaults to DEFAULT_SEED, overridable by
the DEPBOUND_SEED environment variable and then by ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import collision as collision_mod
from . import tworay as tworay_mod
from .costs import builtin, parse_cost
from .marginals import parse_marginal
from .monge import check_cross_difference, check_mixed_partial
from .sampler import NonFiniteCostError, mc_expectation
from .transport import ClassificationError, QuadratureError, bounds_sweep, classified_bounds

__all__ = ["main", "run", "DEFAULT_SEED"]

DEFAULT_SEED = 1729


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 means "numerical failure" here,
    # so route usage problems through our own error path instead.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag of ours starts with a digit, so anything like -5:20:1
        # or -3 is a value (range spec, seed), never an unknown option.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise _UsageError(message)


def _sig12(x):
    return float(f"{float(x):.12g}")


def _round_tree(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return obj


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(_round_tree(obj)), out_path)


def _emit_csv(header, rows, out_path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else f"{v:.12g}" for v in row))
    _emit("\n".join(lines), out_path)


def _parse_range(text, count_means_grid=False):
    """``start:stop:step`` (or ``start:stop:N`` points when flagged)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"range must be start:stop:{'N' if count_means_grid else 'step'}, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        last = int(parts[2]) if count_means_grid else float(parts[2])
    except ValueError:
        raise _UsageError(f"non-numeric range component in {text!r}") from None
    if count_means_grid:
        if last < 2 or not start < stop:
            raise _UsageError(f"grid range needs start < stop and N >= 2, got {text!r}")
        return start, stop, last
    if last <= 0 or not start <= stop:
        raise _UsageError(f"range needs start <= stop and step > 0, got {text!r}")
    n = int(round((stop - start) / last))
    return [start + k * last for k in range(n + 1) if start + k * last <= stop + 1e-12 * max(1.0, abs(stop))]


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DEPBOUND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"DEPBOUND_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _add_output_flags(p, default_format="json"):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--format", choices=("json", "csv"), default=default_format)
    group.add_argument("--json", action="store_const", const="json", dest="format")
    group.add_argument("--csv", action="store_const", const="csv", dest="format")
    p.add_argument("--out", default=None, metavar="PATH")


def _cmd_bounds(args):
    cost = parse_cost(args.cost)
    fx = parse_marginal(args.fx)
    fy = parse_marginal(args.fy)
    result = classified_bounds(cost, fx, fy, include_independent=args.independent)
    payload = {
        "lower": result.lower,
        "upper": result.upper,
    }
    if result.independent is not None:
        payload["independent"] = result.independent
    payload.update(
        lower_err=result.lower_err,
        upper_err=result.upper_err,
        truncation_bound=result.truncation_bound,
        classification=result.classification_used,
    )
    if args.format == "csv":
        _emit_csv(("lower", "upper", "independent"), [(result.lower, result.upper, result.independent)], args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def _cmd_sweep(args):
    fx = parse_marginal(args.fx)
    fy = parse_marginal(args.fy)
    values = _parse_range(args.range)
    name = args.cost
    key = args.param
    rows = bounds_sweep(
        lambda p: builtin(name, **{key: p}), values, fx, fy, include_independent=True
    )
    if args.format == "csv":
        header = ("snr" if key == "snr_db" else key, "min", "max", "ind")
        table = [(r.param, r.result.lower, r.result.upper, r.result.independent) for r in rows]
        _emit_csv(header, table, args.out)
    else:
        payload = [
            {
                "param": r.param,
                "lower": r.result.lower,
                "upper": r.result.upper,
                "independent": r.result.independent,
                "lower_err": r.result.lower_err,
                "upper_err": r.result.upper_err,
            }
            for r in rows
        ]
        _emit_json(payload, args.out)
    return 0


def _cmd_mc(args):
    cost = parse_cost(args.cost)
    fx = parse_marginal(args.fx)
    fy = parse_marginal(args.fy)
    kind = {"co": "comonotonic", "counter": "countermonotonic", "ind": "independent"}[args.coupling]
    est = mc_expectation(cost, fx, fy, kind, args.n, _resolve_seed(args))
    payload = {"value": est.value, "stderr": est.stderr, "n": est.n, "seed": est.seed}
    if args.format == "csv":
        _emit_csv(("value", "stderr", "n", "seed"), [(est.value, est.stderr, est.n, est.seed)], args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def _cmd_monge(args):
    cost = parse_cost(args.cost)
    try:
        domain = tuple(float(v) for v in args.domain.split(","))
    except ValueError:
        raise _UsageError(f"domain must be x0,x1,y0,y1, got {args.domain!r}") from None
    check = check_cross_difference if args.method == "cross" else check_mixed_partial
    kwargs = {} if args.tol is None else {"tol": args.tol}
    report = check(cost, domain, n=args.grid, **kwargs)
    payload = {
        "classification": report.classification,
        "max_violation": report.max_violation,
        "violation_count": report.violation_count,
    }
    if args.format == "csv":
        _emit(
            "classification,max_violation,violation_count\n"
            f"{report.classification},{report.max_violation:.12g},{report.violation_count}",
            args.out,
        )
    else:
        _emit_json(payload, args.out)
    return 0


def _cmd_collision(args):
    spec = collision_mod.CollisionSpec(args.p1, args.p2)
    result = collision_mod.analyze(spec)
    payload = {
        "u_independent": result.u_independent,
        "p11_range": list(result.p11_range),
        "u_range": list(result.u_range),
        "rho_range": None if result.rho_range is None else list(result.rho_range),
    }
    if args.p11 is not None:
        payload["p11"] = args.p11
        payload["u"] = collision_mod.success_from_p11(spec, args.p11)
        payload["rho"] = None if spec.degenerate() else collision_mod.rho_from_p11(spec, args.p11)
    _emit_json(payload, args.out)
    return 0


def _geometry_from(args):
    return tworay_mod.TwoRayGeometry(
        a1=args.a1, a2=args.a2, f=args.f, h_tx=args.htx, h1=args.h1, dh=args.dh
    )


def _cmd_tworay_trace(args):
    geom = _geometry_from(args)
    lo, hi, n = _parse_range(args.d, count_means_grid=True)
    d, x1, x2 = tworay_mod.envelope_trace(geom, np.linspace(lo, hi, n))
    if args.format == "json":
        _emit_json({"distance": list(d), "x1": list(x1), "x2": list(x2)}, args.out)
    else:
        _emit_csv(("distance", "x1", "x2"), zip(d, x1, x2), args.out)
    return 0


def _cmd_tworay_corr(args):
    geom = _geometry_from(args)
    lo, hi, n = _parse_range(args.d, count_means_grid=True)
    rho = tworay_mod.envelope_correlation(geom, lo, hi, n)
    _emit_json({"rho": rho, "n": n}, args.out)
    return 0


# Parameter presets for the bundled example scenarios.
_TRACE_GEOMETRY = {"a1": 1.0, "a2": 0.5, "f": 2e9, "htx": 10.0, "h1": 1.0}
_TRACE_SPAN = (20.0, 50.0)


def _cmd_reproduce(args):
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.preset == "fig1":
        files = []
        rhos = {}
        for dh in (0.05, 0.1):
            geom = tworay_mod.TwoRayGeometry(
                a1=_TRACE_GEOMETRY["a1"], a2=_TRACE_GEOMETRY["a2"], f=_TRACE_GEOMETRY["f"],
                h_tx=_TRACE_GEOMETRY["htx"], h1=_TRACE_GEOMETRY["h1"], dh=dh,
            )
            d, x1, x2 = tworay_mod.envelope_trace(geom, np.linspace(*_TRACE_SPAN, 1001))
            path = os.path.join(out_dir, f"fig1_dh{dh:g}.csv")
            _emit_csv(("distance", "x1", "x2"), zip(d, x1, x2), path)
            files.append(path)
            rhos[f"dh={dh:g}"] = tworay_mod.envelope_correlation(geom, *_TRACE_SPAN, 100_000)
        _emit_json({"preset": "fig1", "parameters": {**_TRACE_GEOMETRY, "d": list(_TRACE_SPAN)},
                    "rho": rhos, "files": files}, None)
    elif args.preset == "fig2":
        fx = parse_marginal("exp:1")
        fy = parse_marginal("exp:1")
        snrs = list(range(-5, 21))
        rows = bounds_sweep(lambda p: builtin("mac_rate1", snr_db=p), snrs, fx, fy)
        path = os.path.join(out_dir, "fig2.csv")
        _emit_csv(
            ("snr", "min", "max", "ind"),
            [(r.param, r.result.lower, r.result.upper, r.result.independent) for r in rows],
            path,
        )
        _emit_json({"preset": "fig2", "parameters": {"cost": "mac_rate1", "snr_db": [-5, 20],
                    "fx": "exp:1", "fy": "exp:1"}, "files": [path]}, None)
    else:
        fx = parse_marginal("exp:1")
        fy = parse_marginal("exp:2")
        result = classified_bounds(parse_cost("sinr"), fx, fy, include_independent=True)
        payload = {"lower": result.lower, "upper": result.upper, "independent": result.independent}
        path = os.path.join(out_dir, "example1.json")
        _emit_json(payload, path)
        _emit_json({"preset": "example1", "parameters": {"cost": "sinr", "fx": "exp:1", "fy": "exp:2"},
                    **payload, "files": [path]}, None)
    return 0


def build_parser():
    parser = _Parser(prog="depbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="dependence bounds for one cost and marginal pair")
    p.add_argument("--cost", required=True, help="cost spec, e.g. sinr or mac_rate1:s=0.5")
    p.add_argument("--fx", required=True, help="marginal spec, e.g. exp:1")
    p.add_argument("--fy", required=True)
    p.add_argument("--independent", action="store_true", help="also compute the independence baseline")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("sweep", help="bounds swept over a cost parameter")
    p.add_argument("--cost", required=True)
    p.add_argument("--fx", required=True)
    p.add_argument("--fy", required=True)
    p.add_argument("--param", default="snr_db")
    p.add_argument("--range", required=True, metavar="START:STOP:STEP")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("mc", help="Monte Carlo estimate under a coupling")
    p.add_argument("--cost", required=True)
    p.add_argument("--fx", required=True)
    p.add_argument("--fy", required=True)
    p.add_argument("--coupling", required=True, choices=("co", "counter", "ind"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default {DEFAULT_SEED}; DEPBOUND_SEED overrides the default)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("monge", help="lattice classification of a cost on a box")
    p.add_argument("--cost", required=True)
    p.add_argument("--domain", required=True, metavar="X0,X1,Y0,Y1")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--method", choices=("cross", "partial"), default="cross")
    p.add_argument("--tol", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_monge)

    p = sub.add_parser("collision", help="collision-channel dependence ranges")
    p.add_argument("--p1", required=True, type=float)
    p.add_argument("--p2", required=True, type=float)
    p.add_argument("--p11", type=float, default=None)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_collision)

    p = sub.add_parser("tworay", help="two-path envelope model")
    tsub = p.add_subparsers(dest="tworay_command", required=True)
    for name, handler, default_format in (
        ("trace", _cmd_tworay_trace, "csv"),
        ("corr", _cmd_tworay_corr, "json"),
    ):
        q = tsub.add_parser(name)
        q.add_argument("--f", required=True, type=float, help="carrier frequency in Hz")
        q.add_argument("--htx", required=True, type=float)
        q.add_argument("--h1", required=True, type=float)
        q.add_argument("--dh", required=True, type=float)
        q.add_argument("--a1", required=True, type=float)
        q.add_argument("--a2", required=True, type=float)
        q.add_argument("--d", required=True, metavar="LOW:HIGH:N")
        _add_output_flags(q, default_format=default_format)
        q.set_defaults(handler=handler)

    p = sub.add_parser("reproduce", help="write a bundled example scenario's data files")
    p.add_argument("preset", choices=("fig1", "fig2", "example1"))
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def run(argv=None):
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, ClassificationError, NonFiniteCostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    return run(argv)
