"""Smoke test of tools/outputs_digest.py on three jobs per workload."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "outputs_digest.py")


def digest(*args):
    # a process of its own: the tool imports maxalg afresh from src/
    proc = subprocess.run(
        [sys.executable, TOOL, *args], capture_output=True, text=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_digests_are_stable_and_compared(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    run = ("--seed", "3", "--jobs", "3", "--workdir", str(tmp_path / "work"))
    code, out = digest(*run, "--save", str(first))
    assert code == 0
    lines = out.splitlines()
    labels = [line.split()[0] for line in lines]
    # the first three cli_reports jobs are all exact, so no workload mixes
    # modes and none gets a second, exact-only line
    assert labels == ["exact_spectral", "exact_powers", "float_balance",
                      "cli_reports"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    code, again = digest(*run, "--save", str(second))
    assert (code, again) == (0, out)
    runs = json.loads(first.read_text())
    assert [len(done) for done in runs.values()] == [3, 3, 3, 3]

    code, report = digest("--compare", str(first), str(second))
    assert code == 0
    assert report.count("3 identical, 0 differ in floats only") == 4

    # a float nudged in the last place is a float-only difference; any
    # other change is reported as such and fails the comparison
    exact, text = runs["float_balance"][0]
    number = re.search(r"\d+\.\d+", text).group()
    nudged = text.replace(number, repr(float(number) * (1 + 2**-50)), 1)
    runs["float_balance"][0] = [exact, nudged]
    runs["exact_powers"][0][1] += " "
    second.write_text(json.dumps(runs))
    code, report = digest("--compare", str(first), str(second))
    assert code == 1
    assert "float_balance: 2 identical, 1 differ in floats only" in report
    assert "exact_powers: 2 identical, 0 differ in floats only" in report
    assert "1 differ otherwise" in report
