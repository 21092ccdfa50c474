"""Run perfbench in two checkouts, alternately, and save the runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload exact_powers --seed 8087 --pairs 10 \
        --out BENCH_tag.json [--seconds 25] [--claim jobs_per_s] \
        [--description TEXT]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one process at a time, from that
checkout's root: odd pairs run the parent first, even pairs the change
first. The final JSON line of every run is kept as it was printed. A run
that is not clean (see below) also keeps why: perfbench's ``FAILED``
lines under ``failures`` and the tail of its standard error under
``stderr``, both printed to standard error as well.

The runs go to ``--out`` in the schema of the BENCH_*.json files at the
repository root: ``description``, ``command``, ``host``, ``claim`` and
``runs[workload]``, a list of ``{seed, pair, first, parent, change}``.
An existing file is extended: its runs are kept, new pairs of a workload
are numbered after its last one, and ``--description`` and ``--claim``
replace the stored ones only when given. ``--claim METRIC`` names this
workload and metric as the one the change claims to improve.

After the pairs, one line per end-to-end metric gives both sides'
medians and quartiles over the pairs of this invocation and the pairs
the change won. A run that exits nonzero, prints no JSON line, reports
``correct: false`` or failed jobs is announced on standard error and
its pair is left out of the summary, which names it; the tool exits 1
when any run did.

A verdict line follows, by the end-to-end metrics of BENCHMARK.json,
which the tool only reads. The claimed metric, ``--claim`` or the one
the file names for this workload, is met when the change won at least
9 in 10 of all the pairs run, a pair left out counting as not won, its
median over the clean pairs is better than the parent's by more than
the parent's quartile spread, and no change-side run was left out.
Every other metric is named when the change's median is worse than the
parent's by more than the metric's ``bound``, a fraction of the
parent's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end():
    """BENCHMARK.json's end-to-end metrics: name -> (lower is better,
    bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: (m["better"] == "lower", m["bound"])
                for m in json.load(f)["end_to_end"]}


def host():
    """Core count and processor model of this machine, for the record."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()}-core {model}"


def run_once(root, workload, seed, seconds):
    """perfbench's final JSON line from the checkout at root, or a dict
    with the exit code when there is none; a run that is not clean also
    keeps its FAILED lines and the tail of its standard error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode or "metrics" not in result:
        result["exit"] = proc.returncode
    if trouble(result):
        result["failures"] = [line for line in lines
                              if line.startswith("FAILED ")]
        result["stderr"] = proc.stderr[-2000:]
    return result


def trouble(result):
    """Why a run is not a clean measurement, or None."""
    if "metrics" not in result:
        return f"exit {result.get('exit')} and no JSON line"
    if result.get("exit"):
        return f"exit {result['exit']}"
    if not result.get("correct", False):
        return "correct: false"
    if result.get("failed"):
        return f"{result['failed']} failed jobs"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs, name, lower):
    """Both sides' values of a metric over the runs, and the change's
    wins."""
    parent = [r["parent"]["metrics"][name]["value"] for r in runs]
    change = [r["change"]["metrics"][name]["value"] for r in runs]
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(parent, change))
    return parent, change, wins


def clean(runs):
    """The pairs both of whose runs are clean, and a note naming the
    others, or None."""
    kept, dropped = [], []
    for r in runs:
        why = [f"{side} {t}" for side in ("parent", "change")
               if (t := trouble(r[side]))]
        if why:
            dropped.append(f"pair {r['pair']} ({', '.join(why)})")
        else:
            kept.append(r)
    return kept, "left out: " + "; ".join(dropped) if dropped else None


def summary(runs):
    """One line per metric over the clean pairs: medians, quartiles and
    pairs the change won, then a line naming the pairs left out."""
    kept, note = clean(runs)
    metrics = end_to_end()
    lines = []
    for name in kept[0]["parent"]["metrics"] if kept else ():
        lower = name in metrics and metrics[name][0]
        parent, change, wins = compare(kept, name, lower)
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        lines.append(
            f"{name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change "
            f"{c2:.6g} [{c1:.6g}, {c3:.6g}], change better in "
            f"{wins}/{len(kept)}"
        )
    if note:
        lines.append(note)
    return lines


def verdict(runs, claim):
    """One line over the clean pairs: whether the ``claim`` metric's gain
    is met, and which other end-to-end metrics are worse than their
    bound. The claim's wins are counted over all the pairs run."""
    kept, _note = clean(runs)
    if not kept:
        return "verdict: no clean pair"
    parts, beyond = [], []
    for name, (lower, bound) in end_to_end().items():
        if name not in kept[0]["parent"]["metrics"]:
            continue
        parent, change, wins = compare(kept, name, lower)
        (p1, p2, p3), (_c1, c2, _c3) = quartiles(parent), quartiles(change)
        gain = p2 - c2 if lower else c2 - p2
        if name == claim:
            met = (wins >= 0.9 * len(runs) and gain > p3 - p1
                   and not any(trouble(r["change"]) for r in runs))
            parts.append(
                f"claim {name} {'met' if met else 'not met'} (better in "
                f"{wins}/{len(runs)}, median gain {gain:.6g}, parent "
                f"quartile spread {p3 - p1:.6g})"
            )
        elif -gain > bound * abs(p2):
            beyond.append(f"{name} {-gain / abs(p2):+.1%}" if p2
                          else f"{name} {-gain:+.6g}")
    parts.append("worse than the bound: " + ", ".join(beyond) if beyond
                 else "no other metric worse than its bound")
    return "verdict: " + "; ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim")
    parser.add_argument("--description")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            bench = json.load(f)
    else:
        bench = {"description": "", "runs": {}}
    bench["command"] = (
        "python3 perfbench/run.py --workload W --seed S --seconds "
        f"{args.seconds:g} --trace 0"
    )
    bench["host"] = host()
    if args.description is not None:
        bench["description"] = args.description
    if args.claim is not None:
        bench["claim"] = {"workload": args.workload, "metric": args.claim}
    done = bench["runs"].setdefault(args.workload, [])
    first_pair = max((r["pair"] for r in done), default=0) + 1

    bad = False
    new = []
    for pair in range(first_pair, first_pair + args.pairs):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        record = {"seed": args.seed, "pair": pair, "first": order[0]}
        for side in order:
            root = args.parent if side == "parent" else args.change
            record[side] = run_once(root, args.workload, args.seed,
                                    args.seconds)
            why = trouble(record[side])
            if why:
                bad = True
                print(f"pair {pair} {side}: {why}", file=sys.stderr)
                for line in record[side]["failures"]:
                    print(f"  {line}", file=sys.stderr)
                if record[side]["stderr"]:
                    print(record[side]["stderr"].rstrip("\n"),
                          file=sys.stderr)
        done.append(record)
        new.append(record)
        # written after every pair, so an interrupted series keeps its runs
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(bench, f, indent=1)
            f.write("\n")
    print(f"{args.workload}, seed {args.seed}, {len(new)} pairs:")
    for line in summary(new):
        print("  " + line)
    claim = bench.get("claim") or {}
    print(verdict(new, claim.get("metric")
                  if claim.get("workload") == args.workload else None))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
