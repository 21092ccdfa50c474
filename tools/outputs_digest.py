"""Digest the outputs of perfbench's jobs, to compare two checkouts.

    python3 tools/outputs_digest.py --seed 5 [--root DIR] [--jobs 120] \
        [--save outputs.json] [--workdir DIR]
    python3 tools/outputs_digest.py --compare parent.json change.json

The first form imports maxalg and perfbench from the checkout at
``--root`` (by default the one holding this file), runs the first
``--jobs`` jobs of every workload on ``--seed`` and prints, per workload,
the sha256 of the reprs of their outputs, one per line; a workload
that mixes exact and float jobs (cli_reports) gets a second line,
``NAME:exact``, over the jobs that answer in exact arithmetic alone. A job that raises
contributes the type and message of its exception. The instances
are built in one fixed directory (``--workdir``, by default
maxalg-outputs-digest in the system's temporary directory), so the
MatrixFile paths inside the cli_reports reports are the same for every
checkout. ``--save`` writes
the reprs as JSON.

``--compare`` reads two saved runs and reports, per workload, how many
outputs are identical, how many differ only in float literals (with the
largest absolute and relative difference) and how many differ otherwise.
It exits 1 when any output differs otherwise, or when the saved runs do
not cover the same jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(tempfile.gettempdir(), "maxalg-outputs-digest")

FLOAT = re.compile(
    r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|inf|nan)"
    r"(?![\w.])"
)


def is_exact(inst, result):
    """True when a job answers in exact arithmetic only.

    A cli_reports job is exact when its MatrixFiles are, unless its
    report says that balancing fell back to float mode on an irrational
    level mean.
    """
    if "files" in inst:
        return all(mode == "exact" for _rows, mode in inst["files"]) and (
            '"exact_degraded": true' not in str(result)
        )
    return inst["a"].semiring.exact


def outputs(root, seed, jobs, workdir):
    """{workload: [[exact, repr of the output] per job]} for the checkout
    at root."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import run
    from jsonschema import Draft7Validator
    from workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        wl, pool = run.setup(cls, seed, Draft7Validator, workdir)
        done = []
        for i in range(jobs):
            inst = pool[i] if i < len(pool) else wl.build(i)
            _dt, result, err = run.timed(wl, inst, run.direct)
            done.append([is_exact(inst, result), repr(result) if err is None
                         else f"raise {type(err).__name__}: {err}"])
        out[name] = done
    return out


def digests(runs):
    """(label, sha256) per workload, and per exact part of a mixed one."""
    for name, done in runs.items():
        yield name, digest(r for _exact, r in done)
        flags = {exact for exact, _r in done}
        if len(flags) > 1:
            yield f"{name}:exact", digest(r for exact, r in done if exact)


def digest(reprs):
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def float_gap(a, b):
    """(absolute, relative) largest gap between the float literals of two
    reprs, or None when they differ in anything else."""
    if FLOAT.sub("#", a) != FLOAT.sub("#", b):
        return None
    gap = rel = 0.0
    for x, y in zip(FLOAT.findall(a), FLOAT.findall(b)):
        x, y = float(x), float(y)
        if x == y or (x != x and y != y):
            continue
        d = abs(x - y)
        if not math.isfinite(d):  # an inf or a nan against a number
            return None
        gap = max(gap, d)
        rel = max(rel, d / max(1.0, abs(x), abs(y)))
    return gap, rel


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        runs_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        runs_b = json.load(fh)
    code = 0
    if sorted(runs_a) != sorted(runs_b):
        print("the saved runs cover different workloads")
        return 1
    for name in runs_a:
        a = [r for _exact, r in runs_a[name]]
        b = [r for _exact, r in runs_b[name]]
        if len(a) != len(b):
            print(f"{name}: {len(a)} against {len(b)} jobs")
            code = 1
            continue
        same = floats = other = 0
        gap = rel = 0.0
        for x, y in zip(a, b):
            if x == y:
                same += 1
                continue
            found = float_gap(x, y)
            if found is None:
                other += 1
                continue
            floats += 1
            gap, rel = max(gap, found[0]), max(rel, found[1])
        code = code or int(other > 0)
        print(f"{name}: {same} identical, {floats} differ in floats only "
              f"(largest absolute {gap:.3g}, relative {rel:.3g}), "
              f"{other} differ otherwise")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--jobs", type=int, default=120)
    parser.add_argument("--save", help="write the reprs to this JSON file")
    parser.add_argument("--workdir", default=WORKDIR,
                        help="where the instances' MatrixFiles are written")
    parser.add_argument("--compare", nargs=2, metavar="SAVED",
                        help="compare two files written by --save")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed is None:
        parser.error("--seed is required unless --compare is given")
    runs = outputs(os.path.abspath(args.root), args.seed, args.jobs,
                   args.workdir)
    for label, sha in digests(runs):
        print(f"{label} {sha}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
