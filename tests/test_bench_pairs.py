"""tools/bench_pairs.py on two stub checkouts, with no perfbench run.

Each stub checkout holds a perfbench/run.py that appends its side and
arguments to a shared log and prints one JSON line, as perfbench does.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")

STUB = '''import json, os, sys
side, rate, log = {side!r}, {rate!r}, {log!r}
done = 0
if os.path.exists(log):
    with open(log) as f:
        done = sum(line.split()[0] == side for line in f)
with open(log, "a") as f:
    f.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
metrics = {{
    "setup_s": {{"value": {setup!r}, "unit": "s"}},
    "jobs_per_s": {{"value": rate + done, "unit": "1/s"}},
}}
print("progress")
correct = {correct!r} and done + 1 != {fail_run!r}
if not correct:
    print("FAILED job 3 (max-times): run " + str(done + 1) + " is wrong")
    print("a warning of run " + str(done + 1), file=sys.stderr)
print(json.dumps({{"correct": correct, "attempted": 10, "failed": 0,
                  "metrics": metrics}}))
'''


def checkout(tmp_path, side, rate, correct=True, setup=0.05, fail_run=None):
    """A stub checkout whose k-th run (from 1) reports ``rate`` + k - 1
    jobs per second, and ``correct: false`` when k is ``fail_run``."""
    root = tmp_path / side
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(
        side=side, rate=rate, log=str(tmp_path / "log"), correct=correct,
        setup=setup, fail_run=fail_run,
    ))
    return str(root)


def bench(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True,
                          text=True, check=False)


def test_pairs_alternate_and_extend_the_file(tmp_path):
    parent = checkout(tmp_path, "parent", 200.0)
    change = checkout(tmp_path, "change", 300.0)
    out = tmp_path / "BENCH_stub.json"
    common = ("--parent", parent, "--change", change, "--workload",
              "exact_powers", "--seconds", "1", "--out", str(out))
    proc = bench(*common, "--seed", "7", "--pairs", "3",
                 "--claim", "jobs_per_s", "--description", "stub runs")
    assert proc.returncode == 0, proc.stderr
    assert "jobs_per_s: parent 201 [200.5, 201.5] -> change 301 " \
           "[300.5, 301.5], change better in 3/3" in proc.stdout
    assert "verdict: claim jobs_per_s met (better in 3/3, median gain " \
           "100, parent quartile spread 1); no other metric worse than " \
           "its bound" in proc.stdout
    log = (tmp_path / "log").read_text().splitlines()
    assert [line.split()[0] for line in log] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert log[0].split()[1:] == ["--workload", "exact_powers", "--seed",
                                  "7", "--seconds", "1.0", "--trace", "0"]

    proc = bench(*common, "--seed", "8", "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["description"] == "stub runs"
    assert data["claim"] == {"workload": "exact_powers",
                             "metric": "jobs_per_s"}
    assert data["command"].startswith("python3 perfbench/run.py")
    assert data["host"]
    runs = data["runs"]["exact_powers"]
    assert [(r["seed"], r["pair"], r["first"]) for r in runs] == [
        (7, 1, "parent"), (7, 2, "change"), (7, 3, "parent"),
        (8, 4, "change")]
    assert runs[0]["change"]["metrics"]["jobs_per_s"]["value"] == 300.0
    assert runs[0]["parent"]["correct"] is True


def test_an_incorrect_run_is_reported(tmp_path):
    parent = checkout(tmp_path, "parent", 200.0)
    change = checkout(tmp_path, "change", 300.0, correct=False)
    out = tmp_path / "BENCH_stub.json"
    proc = bench("--parent", parent, "--change", change, "--workload",
                 "exact_powers", "--seed", "7", "--pairs", "1", "--out",
                 str(out))
    assert proc.returncode == 1
    assert "pair 1 change: correct: false" in proc.stderr
    assert json.loads(out.read_text())["runs"]["exact_powers"][0]["change"][
        "correct"] is False


def test_the_verdict_weighs_the_claim_and_the_bounds(tmp_path):
    # the change wins every pair by 2, less than the parent's quartile
    # spread of 2.5 over its 6 runs, and doubles setup_s
    parent = checkout(tmp_path, "parent", 200.0)
    change = checkout(tmp_path, "change", 202.0, setup=0.1)
    out = tmp_path / "BENCH_stub.json"
    proc = bench("--parent", parent, "--change", change, "--workload",
                 "exact_powers", "--seed", "7", "--pairs", "6",
                 "--claim", "jobs_per_s", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "verdict: claim jobs_per_s not met (better in 6/6, median gain " \
           "2, parent quartile spread 2.5); worse than the bound: " \
           "setup_s +100.0%" in proc.stdout


def test_a_failed_run_leaves_its_pair_out_of_the_summary(tmp_path):
    parent = checkout(tmp_path, "parent", 200.0)
    change = checkout(tmp_path, "change", 300.0, fail_run=2)
    out = tmp_path / "BENCH_stub.json"
    proc = bench("--parent", parent, "--change", change, "--workload",
                 "exact_powers", "--seed", "7", "--pairs", "3",
                 "--claim", "jobs_per_s", "--out", str(out))
    assert proc.returncode == 1
    assert "pair 2 change: correct: false" in proc.stderr
    assert "jobs_per_s: parent 201 [200.5, 201.5] -> change 301 " \
           "[300.5, 301.5], change better in 2/2" in proc.stdout
    assert "left out: pair 2 (change correct: false)" in proc.stdout
    assert "verdict: claim jobs_per_s not met (better in 2/3" in proc.stdout
    assert len(json.loads(out.read_text())["runs"]["exact_powers"]) == 3


def test_a_flagged_run_keeps_its_failed_lines_and_stderr(tmp_path):
    parent = checkout(tmp_path, "parent", 200.0)
    change = checkout(tmp_path, "change", 300.0, fail_run=2)
    out = tmp_path / "BENCH_stub.json"
    proc = bench("--parent", parent, "--change", change, "--workload",
                 "exact_powers", "--seed", "7", "--pairs", "2", "--out",
                 str(out))
    assert proc.returncode == 1
    assert "pair 2 change: correct: false\n" \
           "  FAILED job 3 (max-times): run 2 is wrong\n" \
           "a warning of run 2\n" in proc.stderr
    runs = json.loads(out.read_text())["runs"]["exact_powers"]
    flagged = runs[1]["change"]
    assert flagged["failures"] == ["FAILED job 3 (max-times): run 2 is wrong"]
    assert flagged["stderr"] == "a warning of run 2\n"
    # a clean run is kept as it was printed
    assert "failures" not in runs[0]["change"]
    assert "stderr" not in runs[1]["parent"]
