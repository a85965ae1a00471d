"""Run one depbound benchmark workload and print its metrics.

    python3 bench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports ``depbound`` from
the checkout's ``src`` and starts CLI processes against it.  One client
sends one operation at a time (closed loop) and runs whole blocks of the
seeded batch until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of blocks twice, traced and untraced, and prints the per-layer
metrics: span counts and self times, the tracing overhead, and the layer
probes.  Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the environment and the informational figures.  The whole
record, with every operation's time, is also written under
``bench/results/``.  The exit code is
non-zero when an output is wrong or the checkout has no sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
if not __package__:
    # Run as a script: make the ``bench`` package importable.
    sys.path.insert(0, str(ROOT))

SETUP_SAMPLES = 7
# Blocks per traced pass, sized to keep a traced run under a minute on a
# 2-vCPU VM; a fixed count makes the traced work counts repeat exactly.
TRACE_BLOCKS = {"bounds_light": 3, "bounds_rician": 1, "mc_oracle": 1, "cli_session": 1}
_IMPORT_TIMER = "import time; t = time.perf_counter(); import depbound; print(time.perf_counter() - t)"


def closed_loop(stream, execute, seconds=None, n_blocks=None, before=None, after=None):
    """Run whole blocks one operation at a time; time each operation.

    Stops at the first block boundary after ``seconds`` or after
    ``n_blocks`` blocks.  An operation that raises is recorded with its
    exception as output, and the loop goes on.  ``before``/``after`` run
    outside the timed region around each operation.
    """
    ops, outputs, times = [], [], []
    t0 = perf_counter()
    done = 0
    while (n_blocks is None or done < n_blocks) and (seconds is None or perf_counter() - t0 < seconds):
        for op in next(stream):
            if before:
                before(len(ops))
            t = perf_counter()
            try:
                out = execute(op)
            except Exception as exc:  # recorded as a failed operation
                out = exc
            times.append(perf_counter() - t)
            if after:
                after()
            ops.append(op)
            outputs.append(out)
        done += 1
    return ops, outputs, times, perf_counter() - t0


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if len(ln.split()) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    blas_threads["openblas_get_num_threads"] = _openblas_threads()
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except TypeError:
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


def measure_setup(env):
    """Median of fresh-interpreter ``import depbound`` times (after one warm-up)."""
    cmd = [sys.executable, "-c", _IMPORT_TIMER]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    samples = samples[1:]
    return statistics.median(samples), samples


class Outcome:
    """Operations attempted, the ones that failed and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:1])


def check_library(ops, outputs, tally, outcome, refs):
    """Gate every operation's output; ``refs`` caches Monte Carlo references by scenario."""
    from depbound import costs, marginals, transport
    from bench.checks import check_bounds, check_references

    couplings = {
        "comonotonic": transport.comonotonic_expectation,
        "countermonotonic": transport.countermonotonic_expectation,
        "independent": transport.independent_expectation,
    }
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            outcome.add([f"{op}: raised {type(out).__name__}: {out}"])
            continue
        if "coupling" not in op:
            outcome.add(check_bounds(op, out, tally))
            continue
        key = (op["cost"], op["fx"], op["fy"])
        if key not in refs:
            cost, fx, fy = costs.parse_cost(key[0]), marginals.parse_marginal(key[1]), marginals.parse_marginal(key[2])
            values = {c: fn(cost, fx, fy) for c, fn in couplings.items()}
            refs[key] = (values, check_references(key, values, tally))
        values, ref_failures = refs[key]
        msg = tally.mc_z(out, values[op["coupling"]])
        outcome.add(ref_failures + ([f"{op}: {msg}"] if msg else []))


def run_library(workload, seed, seconds, trace, tally, outcome):
    from bench.probes import run_probes
    from bench.tracer import Tracer, layer_metrics, patched
    from bench.workloads import blocks, execute

    refs = {}
    if not trace:
        ops, outputs, times, wall = closed_loop(blocks(workload, seed), execute, seconds=seconds)
        check_library(ops, outputs, tally, outcome, refs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return ops, times, wall, rss, {}

    tracer = Tracer()
    with patched(tracer):
        ops, outputs, traced, _ = closed_loop(
            blocks(workload, seed), lambda op: execute(op, tracer),
            n_blocks=TRACE_BLOCKS[workload], before=tracer.begin_query, after=tracer.end_query,
        )
    check_library(ops, outputs, tally, outcome, refs)
    # The untraced replay must give the traced results bit for bit: the
    # proxies observe the library, they must not change what it computes.
    _, replayed, untraced, _ = closed_loop(iter([ops]), execute, n_blocks=1)
    for op, out, again in zip(ops, outputs, replayed):
        same = type(out) is type(again) and (isinstance(out, Exception) or out == again)
        outcome.add([] if same else [f"{op}: untraced replay gave {again!r}, traced {out!r}"])
    layers = layer_metrics(tracer)
    layers["trace.overhead_frac"] = (sum(traced) - sum(untraced)) / sum(untraced)
    layers.update(run_probes())
    layers.update({k: 0.0 for k in _cli_layer_names()})
    return ops, traced, None, None, layers


def _cli_layer_names():
    from bench.clisession import SCRIPT

    names = [f"cli.{kind}.{c['name']}" for kind in ("process_s", "run_s") for c in SCRIPT]
    return names + ["cli.cold_start_s", "cli.stdout_diff_cmds"]


def run_cli(seed, seconds, trace, outcome, info):
    from bench.clisession import SCRIPT, check_output, cli_env, digest, load_fingerprints, run_process, run_inprocess
    from bench.probes import run_probes
    from bench.tracer import Tracer, layer_metrics, patched
    from bench.workloads import blocks

    expected = load_fingerprints()
    env = cli_env(SRC)
    workdir = WORK / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def in_process(cmd):
            return run_inprocess(cmd, workdir)

        def as_process(cmd):
            rc, out, err, _ = run_process(cmd, workdir, env)
            return rc, out, err

        ops, outputs, times, wall = closed_loop(blocks("cli_session", seed), as_process, seconds=seconds)
        differing = set()
        for cmd, out in zip(ops, outputs):
            outcome.add([f"{cmd['name']}: raised {out!r}"] if isinstance(out, Exception) else check_output(cmd, *out))
            if not isinstance(out, Exception) and digest(out[1]) != expected.get(cmd["name"]):
                differing.add(cmd["name"])
        info["stdout_diff_cmds"] = sorted(differing)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if not trace:
            return ops, times, wall, rss, {}

        process_s = {c["name"]: statistics.median(t for o, t in zip(ops, times) if o["name"] == c["name"]) for c in SCRIPT}

        def in_process_pass(tracer=None):
            hooks = {"before": tracer.begin_query, "after": tracer.end_query} if tracer else {}
            res = closed_loop(iter([list(SCRIPT)]), in_process, n_blocks=1, **hooks)
            for cmd, out in zip(res[0], res[1]):
                outcome.add([f"{cmd['name']} in process: raised {out!r}"] if isinstance(out, Exception)
                            else check_output(cmd, *out[:3]))
            return res

        in_process_pass()  # warm-up: first calls into scipy and numpy are slower
        untraced = in_process_pass()
        tracer = Tracer()
        with patched(tracer, cli_proxies=True):
            traced = in_process_pass(tracer)
        layers = layer_metrics(tracer)
        run_s = {c["name"]: t for c, t in zip(untraced[0], untraced[2])}
        for name in process_s:
            layers[f"cli.process_s.{name}"] = process_s[name]
            layers[f"cli.run_s.{name}"] = run_s[name]
        layers["cli.cold_start_s"] = statistics.median(process_s[n] - run_s[n] for n in process_s)
        layers["cli.stdout_diff_cmds"] = len(differing)
        layers["trace.overhead_frac"] = sum(traced[2]) / sum(untraced[2]) - 1.0
        layers.update(run_probes())
        return ops, times, wall, rss, layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    # One BLAS thread, here and in the CLI processes started from here: on
    # a machine of few cores, idle BLAS threads spinning beside the
    # interpreter measure the scheduler rather than depbound.  Set before
    # numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (SRC / "depbound" / "__init__.py").is_file():
        print(f"error: no depbound sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import depbound

    if Path(depbound.__file__).resolve().parent != (SRC / "depbound").resolve():
        print(f"error: imported depbound from {depbound.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    from bench.checks import CheckTally
    from bench.clisession import cli_env
    from bench.metrics import END_TO_END, PER_LAYER, end_to_end, with_units
    from bench.workloads import MC_DRAWS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 1

    env = environment()
    setup_s, setup_samples = measure_setup(cli_env(SRC))
    tally, outcome = CheckTally(), Outcome()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.workload == "cli_session":
        ops, times, wall, rss, layers = run_cli(args.seed, args.seconds, args.trace, outcome, info)
    else:
        ops, times, wall, rss, layers = run_library(args.workload, args.seed, args.seconds, args.trace, tally, outcome)

    info.update(
        operations=[{"op": op, "seconds": t} for op, t in zip(ops, times)],
        ops=len(times),
        failed_frac=outcome.failed / max(outcome.attempted, 1),
        max_rel_dev=tally.max_rel_dev,
        err_bar_misses=tally.err_bar_misses,
        closed_form_checks=tally.closed_form_checks,
        mc_max_z=tally.max_mc_z,
        setup_samples_s=setup_samples,
        failures=outcome.messages[:20],
    )
    if args.trace:
        layers.update({
            "check.max_rel_dev": tally.max_rel_dev,
            "check.err_bar_misses": tally.err_bar_misses,
            "check.mc_max_z": tally.max_mc_z,
        })
        metrics = with_units(layers, PER_LAYER)
    else:
        values = end_to_end(times, wall, rss, setup_s)
        info["wall_s"] = wall
        # Informational: on cli_session fewer than 10 commands lie beyond
        # the p90, which then swings with every slow sweep or fig2 command.
        info["query_p90_ms"] = statistics.quantiles(times, n=10, method="inclusive")[-1] * 1e3
        if args.workload == "mc_oracle":
            info["mc_mdraws_per_s"] = values["queries_per_s"] * MC_DRAWS / 1e6
            info["mc_call_p50_ms"] = values["query_p50_ms"]
        if args.workload == "cli_session":
            info["commands_per_s"] = values["queries_per_s"]
            info["command_p50_ms"] = values["query_p50_ms"]
        metrics = with_units(values, END_TO_END)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"env": env, "info": info, "result": result, "operations": info.pop("operations")}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
