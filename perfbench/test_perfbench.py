"""Tests of the benchmark itself: seeded inputs, failure counting, names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from jsonschema import Draft7Validator

import checks
import run
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def build(workload, seed, workroot, count=None):
    wl, pool = run.setup(WORKLOADS[workload], seed, Draft7Validator,
                         str(workroot))
    return wl, pool[:count]


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first, _ = build(workload, 7, tmp_path / "a", 0)
    again, _ = build(workload, 7, tmp_path / "b", 0)
    other, _ = build(workload, 8, tmp_path / "c", 0)
    same = [repr(first.generate(i)) for i in range(30)]
    assert same == [repr(again.generate(i)) for i in range(30)]
    assert same != [repr(other.generate(i)) for i in range(30)]


def test_same_seed_same_matrix_files(tmp_path):
    build("cli_reports", 7, tmp_path / "a")
    build("cli_reports", 7, tmp_path / "b")
    build("cli_reports", 8, tmp_path / "c")
    a = tmp_path / "a" / "cli_reports-7"
    b = tmp_path / "b" / "cli_reports-7"
    names = sorted(os.listdir(a))
    assert len(names) > run.POOL and names == sorted(os.listdir(b))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c" / "cli_reports-8"
    assert any((a / name).read_bytes() != (c / name).read_bytes()
               for name in names)


def first_of_kind(wl, pool, kind):
    return next(inst for inst in pool if inst["kind"] == kind)


def outcome(wl, inst, out):
    tally = run.Tally()
    tally.record(wl, 0, inst, out, None)
    return tally


def test_corrupted_eigenvector_counts_as_failed(tmp_path):
    wl, pool = build("exact_spectral", 3, tmp_path)
    inst = first_of_kind(wl, pool, "P")
    out = wl.run(inst, run.direct)
    assert not outcome(wl, inst, out).failures
    x = list(out["x"].entries)
    x[len(x) // 2] *= 2
    out["x"] = x
    tally = outcome(wl, inst, out)
    assert tally.attempted == 1 and len(tally.failures) == 1
    assert "eigen-equation" in tally.failures[0]


def test_corrupted_period_counts_as_failed(tmp_path):
    wl, pool = build("exact_powers", 3, tmp_path)
    inst = first_of_kind(wl, pool, "U")
    out = wl.run(inst, run.direct)
    assert not outcome(wl, inst, out).failures
    p = out["profile"]
    out["profile"] = dataclasses.replace(p, period=p.period + 1)
    assert len(outcome(wl, inst, out).failures) == 1


def test_wrong_exit_code_and_raise_count_as_failed(tmp_path):
    wl, pool = build("cli_reports", 3, tmp_path)
    inst = first_of_kind(wl, pool, "eigen")
    out = wl.run(inst, run.direct)
    assert not outcome(wl, inst, out).failures
    assert len(outcome(wl, inst, dict(out, code=1)).failures) == 1
    tally = run.Tally()
    tally.record(wl, 0, inst, None, RuntimeError("boom"))
    assert len(tally.failures) == 1


def test_star_check_rejects_a_closure_fixpoint_that_is_not_the_star():
    a = [[0, 1], [1, 0]]
    checks.check_star(a, [[1, 1], [1, 1]], checks.EXACT)
    # I (+) A (x) S == S holds here too, but S is not the least solution
    with pytest.raises(checks.CheckFailed):
        checks.check_star(a, [[2, 2], [2, 2]], checks.EXACT)


def test_metric_names_are_declared():
    bench = declared()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name in list(e2e) + list(layer):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_line_reports_the_declared_metrics(workload, trace, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "POOL", 3)
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (1 if trace else 3)
    bench = declared()
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_spectral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
