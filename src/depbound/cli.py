"""Command-line front end: batch computations, machine-readable output.

Every subcommand handler returns its data; ``run`` writes it once, as
JSON or (where the command has a table) CSV, and exits: 0 on success,
1 on a usage problem, 2 on a numerical failure (quadrature
non-convergence, unusable lattice classification, NaN out of a cost).
Errors go to stderr as a single ``error: ...`` line.  Numbers are
serialized with 12 significant digits so reruns on one OpenBLAS kernel
diff cleanly; the quadrature's panel sums go through BLAS, so ``bounds``'
error fields can move in their last digits on another kernel.  The Monte
Carlo seed is ``--seed``, DEFAULT_SEED when it is not given; nothing in
the environment changes it.  An output file that already holds the bytes
a command would write is left as it is, apart from its modification time.

``main`` is the process entry (``python -m depbound`` and the ``depbound``
script); ``run`` is the same command without its process-level setup, for
callers that stay alive after it returns.

Each handler imports the modules it runs when it runs, so ``tworay``
starts without the quadrature and ``bounds`` without the Monte Carlo
sampler; ``run`` maps every ``NumericalError`` to exit 2 without
importing what raises one.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import stat
import sys

from .errors import NumericalError

__all__ = ["main", "run", "DEFAULT_SEED"]

DEFAULT_SEED = 1729
# Most points a --range or --d grid may hold; the largest shipped grid is 100,000.
_MAX_POINTS = 1_000_000
# The short ``mc --coupling`` flags and the sampler's coupling each names.
_COUPLING_FLAGS = {"co": "comonotonic", "counter": "countermonotonic", "ind": "independent"}
# Bytes compared at a time when checking whether an output file already
# holds what would be written.
_COMPARE_BLOCK = 1 << 20


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


def _cell(v):
    if v is None:
        return ""
    return v if isinstance(v, str) else f"{v:.12g}"


def _write(result, fmt, out_path):
    """Write a handler's ``(payload, table)`` once: CSV when asked for and
    the command has a table, JSON otherwise; to ``out_path`` or stdout."""
    payload, table = result
    if fmt == "csv" and table is not None:
        header, rows = table
        text = "\n".join([",".join(header), *(",".join(map(_cell, row)) for row in rows)])
    else:
        text = json.dumps(_round_tree(payload))
    text += "\n"
    if not out_path:
        sys.stdout.write(text)
    elif not _touch_if_same(out_path, text):
        with open(out_path, "w") as fh:
            fh.write(text)


def _touch_if_same(path, text):
    """If ``path`` is a writable regular file that already holds the bytes
    ``open(path, "w")`` would write for ``text``, bump its modification
    time and return True.  Otherwise, or on an OSError, return False.

    A rerun then never leaves an unchanged output briefly empty, as the
    truncation in ``open(path, "w")`` does."""
    # open(path, "w") writes ASCII text byte for byte where lines end in "\n".
    if not text.isascii() or os.linesep != "\n":
        return False
    try:
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != len(text) or not os.access(path, os.W_OK):
            return False
        with open(path, "rb") as fh:
            for start in range(0, len(text), _COMPARE_BLOCK):
                if fh.read(_COMPARE_BLOCK) != text[start:start + _COMPARE_BLOCK].encode("ascii"):
                    return False
        os.utime(path)
    except OSError:
        return False
    return True


def _one_row(record):
    """A one-row ``(header, rows)`` table from a flat dict."""
    return tuple(record), [tuple(record.values())]


def _parse_range(text, count_means_grid=False):
    """``start:stop:step``, start + k * step to stop within rounding (or ``start:stop:N`` points when flagged)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"range must be start:stop:{'N' if count_means_grid else 'step'}, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        last = int(parts[2]) if count_means_grid else float(parts[2])
    except ValueError:
        raise _UsageError(f"non-numeric range component in {text!r}") from None
    if not all(map(math.isfinite, (start, stop, last))):
        raise _UsageError(f"range components must be finite, got {text!r}")
    if count_means_grid:
        if last < 2 or not start < stop:
            raise _UsageError(f"grid range needs start < stop and N >= 2, got {text!r}")
        count = last
    else:
        if last <= 0 or not start <= stop:
            raise _UsageError(f"range needs start <= stop and step > 0, got {text!r}")
        count = (stop - start) / last + 1
    if count > _MAX_POINTS:
        raise _UsageError(f"range {text!r} has {count:.0f} points; at most {_MAX_POINTS} are allowed")
    if count_means_grid:
        return start, stop, last
    steps = (stop - start) / last + min(1e-12 * (abs(start) + abs(stop)) / last, 0.5)
    return [start + k * last for k in range(int(steps) + 1)]


# The spec parsers the handlers call, module attributes that a caller may
# swap; each imports its module on first use.
def parse_marginal(text):
    from .marginals import parse_marginal as parse
    return parse(text)


def parse_cost(text):
    from .costs import parse_cost as parse
    return parse(text)


def builtin(spec, **params):
    from .costs import builtin as build
    return build(spec, **params)


def _add_output_flags(p, default_format="json"):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_const", const="json", dest="format")
    group.add_argument("--csv", action="store_const", const="csv", dest="format")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(format=default_format)


def _cmd_bounds(args):
    from .transport import classified_bounds
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
    return payload, _one_row({"lower": result.lower, "upper": result.upper, "independent": result.independent})


def _cmd_sweep(args):
    from .transport import bounds_sweep
    fx = parse_marginal(args.fx)
    fy = parse_marginal(args.fy)
    values = _parse_range(args.range)
    spec, key = args.cost, args.param
    rows = bounds_sweep(lambda p: builtin(spec, **{key: p}), values, fx, fy)
    payload = [
        {"param": p, "lower": r.lower, "upper": r.upper, "independent": r.independent,
         "lower_err": r.lower_err, "upper_err": r.upper_err}
        for p, r in zip(values, rows)
    ]
    header = ("snr" if key == "snr_db" else key, "min", "max", "ind")
    return payload, (header, [(r["param"], r["lower"], r["upper"], r["independent"]) for r in payload])


def _cmd_mc(args):
    from .sampler import mc_expectation
    cost = parse_cost(args.cost)
    fx = parse_marginal(args.fx)
    fy = parse_marginal(args.fy)
    est = mc_expectation(cost, fx, fy, _COUPLING_FLAGS[args.coupling], args.n, args.seed)
    payload = {"value": est.value, "stderr": est.stderr, "n": est.n, "seed": est.seed}
    return payload, _one_row(payload)


def _cmd_monge(args):
    from .monge import check_cross_difference, check_mixed_partial
    cost = parse_cost(args.cost)
    try:
        domain = tuple(float(v) for v in args.domain.split(","))
    except ValueError:
        raise _UsageError(f"domain must be x0,x1,y0,y1, got {args.domain!r}") from None
    check = check_cross_difference if args.method == "cross" else check_mixed_partial
    report = check(cost, domain, n=args.grid)
    payload = {
        "classification": report.classification,
        "max_violation": report.max_violation,
        "violation_count": report.violation_count,
    }
    return payload, _one_row(payload)


def _cmd_collision(args):
    """Each user picks resource one with probability p_i; a slot succeeds when they differ.

    X ~ Bernoulli(1 - p1) and Y ~ Bernoulli(1 - p2) mark the picks of resource two; one ``classified_bounds``
    call on ``product`` bounds p11 = P(both on resource two) = E[xy].  Success (q1 - p11) + (q2 - p11) and the
    picks' correlation are affine in p11, so each is read off it, the independent value at p11 = q1 q2."""
    from .marginals import Bernoulli
    from .transport import classified_bounds
    p1, p2 = args.p1, args.p2
    for label, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{label} must be a probability in [0, 1], got {p!r}")
    q1, q2 = 1.0 - p1, 1.0 - p2
    both = classified_bounds(builtin("product"), Bernoulli(q1), Bernoulli(q2))
    lo, hi = both.lower, both.upper
    spread = math.sqrt(p1 * q1 * p2 * q2)

    def rho(p11):
        # Undefined when a marginal is degenerate: its pick has zero variance.  Near a degenerate
        # one, rounding in p11 swamps a tiny spread, so the ratio is held to [-1, 1].
        return None if spread == 0.0 else min(max((p11 - q1 * q2) / spread, -1.0), 1.0)

    payload = {
        "u_independent": p1 * q2 + q1 * p2,
        "p11_range": [lo, hi],
        "u_range": [(q1 - hi) + (q2 - hi), (q1 - lo) + (q2 - lo)],
        "rho_range": None if spread == 0.0 else [rho(lo), rho(hi)],
    }
    if args.p11 is not None:
        p11 = args.p11
        # Four units of 2^-53 beyond the ends' error estimates: a p11 worked out in floats, as q1 + q2 - 1
        # or min(q1, q2), is off the exact end by up to two (1 - p1 and 1 - p2 round by half a unit each,
        # their sum by one), and a computed end, from rounded q's too, by up to one more on the loads of
        # tests/test_collision.py.  The fourth unit is a margin on that measured one.
        slack = 4 * 2.0**-53
        if not lo - both.lower_err - slack <= p11 <= hi + both.upper_err + slack:
            raise ValueError(f"p11={p11!r} outside the feasible range [{lo!r}, {hi!r}]")
        payload.update(p11=p11, u=min(max(2.0 - p1 - p2 - 2.0 * p11, 0.0), 1.0), rho=rho(p11))
    return payload, None


def _geometry_from(args):
    from .tworay import TwoRayGeometry
    return TwoRayGeometry(a1=args.a1, a2=args.a2, f=args.f, h_tx=args.htx, h1=args.h1, dh=args.dh)


def _cmd_tworay_trace(args):
    import numpy as np

    from .tworay import envelope_trace
    geom = _geometry_from(args)
    lo, hi, n = _parse_range(args.d, count_means_grid=True)
    d, x1, x2 = envelope_trace(geom, np.linspace(lo, hi, n))
    return {"distance": list(d), "x1": list(x1), "x2": list(x2)}, (("distance", "x1", "x2"), zip(d, x1, x2))


def _cmd_tworay_corr(args):
    from .tworay import envelope_correlation
    geom = _geometry_from(args)
    lo, hi, n = _parse_range(args.d, count_means_grid=True)
    rho = envelope_correlation(geom, lo, hi, n)
    payload = {"rho": rho, "n": n}
    return payload, _one_row(payload)


# The bundled example scenarios, each run as the subcommand that computes it.
_FIG1_GEOMETRY = ["--f", "2e9", "--htx", "10", "--h1", "1", "--a1", "1", "--a2", "0.5"]


def _cmd_reproduce(args):
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.preset == "fig1":
        files = []
        rhos = {}
        for dh in ("0.05", "0.1"):
            geometry = [*_FIG1_GEOMETRY, "--dh", dh]
            path = os.path.join(out_dir, f"fig1_dh{dh}.csv")
            _, trace = _call(["tworay", "trace", *geometry, "--d", "20:50:1001"])
            _write(trace, "csv", path)
            files.append(path)
            _, (corr, _) = _call(["tworay", "corr", *geometry, "--d", "20:50:100000"])
            rhos[f"dh={dh}"] = corr["rho"]
        payload = {"preset": "fig1", "parameters": {"a1": 1.0, "a2": 0.5, "f": 2e9, "htx": 10.0, "h1": 1.0,
                   "d": [20.0, 50.0]}, "rho": rhos, "files": files}
    elif args.preset == "fig2":
        path = os.path.join(out_dir, "fig2.csv")
        _, sweep = _call(["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "-5:20:1"])
        _write(sweep, "csv", path)
        payload = {"preset": "fig2", "parameters": {"cost": "mac_rate1", "snr_db": [-5, 20],
                   "fx": "exp:1", "fy": "exp:1"}, "files": [path]}
    else:
        path = os.path.join(out_dir, "example1.json")
        _, (bounds, _) = _call(["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--independent"])
        triple = {key: bounds[key] for key in ("lower", "upper", "independent")}
        _write((triple, None), "json", path)
        payload = {"preset": "example1", "parameters": {"cost": "sinr", "fx": "exp:1", "fy": "exp:2"},
                   **triple, "files": [path]}
    return payload, None


def build_parser():
    parser = _Parser(prog="depbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--cost", required=True, help="cost spec, e.g. sinr or mac_rate1:s=0.5")
    pair.add_argument("--fx", required=True, help="marginal spec, e.g. exp:1")
    pair.add_argument("--fy", required=True)

    p = sub.add_parser("bounds", parents=[pair], help="dependence bounds for one cost and marginal pair")
    p.add_argument("--independent", action="store_true", help="also compute the independence baseline")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("sweep", parents=[pair], help="bounds swept over a cost parameter")
    p.add_argument("--param", default="snr_db",
                   help="the cost parameter that --range sweeps, not also set in --cost (default snr_db)")
    p.add_argument("--range", required=True, metavar="START:STOP:STEP")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("mc", parents=[pair], help="Monte Carlo estimate under a coupling")
    p.add_argument("--coupling", required=True, choices=tuple(_COUPLING_FLAGS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("monge", help="lattice classification of a cost on a box")
    p.add_argument("--cost", required=True)
    p.add_argument("--domain", required=True, metavar="X0,X1,Y0,Y1")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--method", choices=("cross", "partial"), default="cross")
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


@functools.cache
def _parser():
    """The one parser ``_call`` uses in this process; ``reproduce`` calls
    ``_call`` up to four more times."""
    return build_parser()


def _call(argv):
    """Parse ``argv`` and run its handler: ``(args, (payload, table))``."""
    args = _parser().parse_args(argv)
    return args, args.handler(args)


def main():
    """Process entry: run ``sys.argv[1:]`` and return the exit code.

    Everything imported lives until the process exits, so it is frozen
    out of the cyclic garbage collector, once before the command and once
    after it, since the handler imports the modules it runs; its
    collections, the one at exit included, then skip those objects."""
    gc.freeze()
    code = run()
    gc.freeze()
    return code


def run(argv=None):
    """Parse, execute and write the result; returns the process exit code."""
    try:
        args, result = _call(argv)
        _write(result, getattr(args, "format", "json"), getattr(args, "out", None))
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
