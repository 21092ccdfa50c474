"""maxalg benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload exact_spectral --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The library is imported from ``src/`` next
to this directory. One process with one thread runs jobs back to back,
the next starting when the previous one returns, for ``--seconds`` of
wall time; an untraced run goes on while fewer than MIN_JOBS jobs have
finished, up to LONGEST_S. A job's timed section is its run through
maxalg's functions; checks.py re-checks the answer afterwards, outside
that section.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
job twice, untraced and traced in alternating order, reports the
per-layer metrics from the traced copy's spans plus the tracing
overhead, and writes the spans to .perfbench_work/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

MIN_JOBS = 100
LONGEST_S = 120
SETUP_REPEATS = 5
POOL = 48

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "digraph.scc",
    "spectral.max_cycle_gmean",
    "spectral.critical_graph",
    "spectral.principal_eigenvector",
    "commuting.common_eigenvector",
    "asymptotics.transient_and_period",
    "asymptotics.csr_decompose",
    "asymptotics.csr_power",
    "asymptotics.nachtigall_expansion",
    "asymptotics.expansion_power",
    "asymptotics.normalize_to_unit",
    "matrix.kleene_star",
    "balancing.max_balance",
) + tuple(f"cli.{c}" for c in WORKLOADS["cli_reports"].commands) + (
    "cli.format_report",
)

# counters summed over jobs, except max_bits (a maximum) and the
# horizon share (a ratio of two sums)
COUNTERS = {
    "spectral.irrational_means": "count",
    "semiring.max_bits": "bits",
    "asymptotics.nachtigall_horizon": "count",
    "asymptotics.nachtigall_horizon_used": "ratio",
    "balancing.levels": "count",
    "balancing.exact_degraded": "count",
    "cli.negative_answers": "count",
}

TRACE_EXTRA = {
    "trace.overhead": "ratio",
    "trace.jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
    "bench.glue_s": "s",
}


def per_layer_units():
    units = {}
    for name in SPANS:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    units.update(TRACE_EXTRA)
    return units


# ---------------------------------------------------------------------------
# set-up


def import_library():
    """Import maxalg afresh from src/, dropping any earlier import."""
    for name in list(sys.modules):
        if name == "maxalg" or name.startswith("maxalg."):
            del sys.modules[name]
    maxalg = importlib.import_module("maxalg")
    cli = importlib.import_module("maxalg.cli")
    return maxalg, cli


def setup(workload_cls, seed, schema_validator, workroot):
    """Import the library, then build the first POOL instances."""
    maxalg, cli = import_library()
    lib = types.SimpleNamespace(
        **{k: getattr(maxalg, k) for k in maxalg.__all__},
        run_command=cli.run_command,
        format_report=cli.format_report,
        REPORT_SCHEMA=cli.REPORT_SCHEMA,
        Draft7Validator=schema_validator,
    )
    wl = workload_cls(seed, lib,
                      os.path.join(workroot, f"{workload_cls.name}-{seed}"))
    pool = [wl.build(i) for i in range(POOL)]
    return wl, pool


# ---------------------------------------------------------------------------
# calibration
#
# The host's CPU speed drifts by a factor of two or more within seconds
# when other tenants load it. A fixed piece of Fraction arithmetic that
# never touches maxalg is timed between consecutive jobs, and every
# end-to-end time is rescaled to the speed at which that piece takes
# CAL_REF_S: a job is divided by the median of the four calibrations
# around it, set-up by the two around it. A change to maxalg cannot
# move the calibration, so it cannot hide in the rescaling.

CAL_MATRIX = [
    [Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 7 + 1)
     for j in range(10)]
    for i in range(10)
]
CAL_REF_S = 0.002


def calibrate():
    """Seconds one 10x10 max-times Fraction product takes right now."""
    cols = list(zip(*CAL_MATRIX))
    gc.disable()
    try:
        start = time.perf_counter()
        for row in CAL_MATRIX:
            [max(x * y for x, y in zip(row, col)) for col in cols]
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalized(seconds, calibration):
    return seconds * CAL_REF_S / calibration


# ---------------------------------------------------------------------------
# jobs and spans


def direct(_name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory: (id, parent id, name, start, end).

    Each job is a span; each layer call inside it is a child span.
    """

    def __init__(self):
        self.spans = []
        self.job_id = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append((len(self.spans), self.job_id, name, start, end))

    def job(self, wl, inst):
        span = len(self.spans)
        self.spans.append(None)
        self.job_id = span
        start = time.perf_counter()
        try:
            return timed(wl, inst, self.call)
        finally:
            self.spans[span] = (span, None, "job", start, time.perf_counter())
            self.job_id = None

    def layer_metrics(self):
        busy = Counter()
        calls = Counter()
        job_s = child_s = 0.0
        for _sid, parent, name, start, end in self.spans:
            if parent is None:
                job_s += end - start
            else:
                busy[name] += end - start
                calls[name] += 1
                child_s += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.calls"] = calls[name]
        out["bench.glue_s"] = job_s - child_s
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for sid, parent, name, start, end in self.spans
            ]}, fh)


def timed(wl, inst, call):
    """(seconds, output, error) of one job's timed section."""
    start = time.perf_counter()
    try:
        out = wl.run(inst, call)
        err = None
    except Exception as exc:  # a raise outside the contract fails the job
        out, err = None, exc
    return time.perf_counter() - start, out, err


class Tally:
    """Job outcomes and counters of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.kinds = Counter()
        self.counters = Counter()
        self.max_bits = 0

    def record(self, wl, i, inst, out, err):
        self.attempted += 1
        self.kinds[inst["kind"]] += 1
        if err is None:
            try:
                got = wl.check(inst, out)
            except Exception as exc:  # any check error fails the job
                err = exc
        if err is not None:
            self.failures.append(f"job {i} ({inst['kind']}): "
                                 f"{type(err).__name__}: {err}")
            return
        for key, value in got.items():
            if key == "semiring.max_bits":
                self.max_bits = max(self.max_bits, value)
            else:
                self.counters[key] += value

    def counter_metrics(self):
        out = {key: self.counters[key] for key in COUNTERS}
        out["semiring.max_bits"] = self.max_bits
        horizon = self.counters["asymptotics.nachtigall_horizon"]
        used = self.counters["asymptotics.nachtigall_used"]
        out["asymptotics.nachtigall_horizon_used"] = (
            used / horizon if horizon else 0.0)
        return out


def run_loop(wl, pool, seconds, trace):
    """Closed loop over jobs 0, 1, 2, ... until the time is up."""
    tally = Tally()
    plain, traced = [], []
    tracer = Tracer() if trace else None
    gc.collect()
    cals = [] if trace else [calibrate()]
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (trace or i >= MIN_JOBS
                                   or elapsed >= LONGEST_S):
            break
        inst = pool[i] if i < len(pool) else wl.build(i)
        if tracer is None:
            dt, out, err = timed(wl, inst, direct)
            plain.append(dt)
            cals.append(calibrate())
        elif i % 2:
            dt_traced, out, err = tracer.job(wl, inst)
            plain.append(timed(wl, inst, direct)[0])
            traced.append(dt_traced)
        else:
            plain.append(timed(wl, inst, direct)[0])
            dt_traced, out, err = tracer.job(wl, inst)
            traced.append(dt_traced)
        tally.record(wl, i, inst, out, err)
        i += 1
    if not trace:
        plain = [
            normalized(dt, statistics.median(cals[max(0, k - 1):k + 3]))
            for k, dt in enumerate(plain)
        ]
    return tally, plain, traced, tracer


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_times, plain):
    return {
        "setup_s": statistics.median(setup_times),
        "job_p50_s": statistics.median(plain),
        "job_p90_s": quantile(plain, 0.9),
        "jobs_per_s": len(plain) / sum(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(tally, plain, traced, tracer):
    out = tracer.layer_metrics()
    out.update(tally.counter_metrics())
    out["trace.jobs_per_s"] = len(traced) / sum(traced)
    out["trace.untraced_jobs_per_s"] = len(plain) / sum(plain)
    out["trace.overhead"] = sum(traced) / sum(plain) - 1.0
    return out


def print_summary(wl, seed, tally, metrics, units):
    failed = len(tally.failures)
    print(f"workload {wl.name} seed {seed}: {tally.attempted} jobs attempted "
          f"(the timed samples), {failed} failed, "
          f"fail_ratio {failed / tally.attempted:.4f}")
    mix = ", ".join(f"{wl.kinds[k]} {tally.kinds[k]}"
                    for k in wl.kinds if tally.kinds[k])
    print(f"mix: {mix}")
    if wl.name == "exact_spectral":
        print("irrational means: "
              f"{tally.counters['spectral.irrational_means']} of "
              f"{tally.attempted - len(tally.failures)} checked jobs")
    for msg in tally.failures[:5]:
        print(f"FAILED {msg}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def run_all(args):
    """Each workload in its own process, one after another, so that peak
    memory stays per workload; the first non-zero exit code wins."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ], check=False)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maxalg", "__init__.py")):
        print(f"error: no maxalg package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    try:
        from jsonschema import Draft7Validator
    except ImportError:
        print("error: jsonschema is needed to validate CLI reports",
              file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        wl, pool = setup(cls, args.seed, Draft7Validator, WORKDIR)
        elapsed = time.perf_counter() - start
        setup_times.append(normalized(elapsed, (before + calibrate()) / 2))

    tally, plain, traced, tracer = run_loop(
        wl, pool, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(tally, plain, traced, tracer)
        units = per_layer_units()
        os.makedirs(WORKDIR, exist_ok=True)
        tracer.write(os.path.join(
            WORKDIR, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = end_to_end(setup_times, plain)
        units = END_TO_END
    print_summary(wl, args.seed, tally, metrics, units)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
