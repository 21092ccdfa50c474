"""Smoke test of tools/outcomes_digest.py on two inputs per corpus."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "outcomes_digest.py")

CORPORA = ["star_exact", "star_exact_plus", "star_float", "star_tol0",
           "criteria_exact", "criteria_float", "criteria_float_plus",
           "criteria_exact_plus", "perfbench_exact", "perfbench_float",
           "interleaved"]


def digest(*args):
    # a process of its own: the tool imports maxalg afresh from src/
    proc = subprocess.run(
        [sys.executable, TOOL, *args], capture_output=True, text=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_outcomes_are_stable_and_compared(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out = digest("--limit", "2", "--save", str(first))
    assert code == 0
    runs = json.loads(first.read_text())
    assert list(runs) == [f"{call}:{name}" for name in CORPORA
                          for call in ("max_balance", "spectral_analysis")]
    assert all(len(done) == 2 for done in runs.values())
    # the first interleaved input is exact and the second float, so that
    # corpus gets a second, exact-only line per call
    want = []
    for key in runs:
        want.append(key)
        if key.endswith(":interleaved"):
            want.append(f"{key}:exact")
    assert [line.split()[0] for line in out.splitlines()] == want
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line)
               for line in out.splitlines())
    # each call's outcome: the balancing certificate, the analysis and
    # its basis, or a refusal
    exact, text = runs["max_balance:star_exact"][0]
    assert exact and text.startswith("BalancingCertificate(")
    exact, text = runs["spectral_analysis:star_float"][0]
    assert not exact and text.startswith("SpectralAnalysis(")
    assert " basis (MaxVector(" in text

    code, again = digest("--limit", "2", "--save", str(second))
    assert (code, again) == (0, out)
    code, report = digest("--compare", str(first), str(second))
    assert code == 0
    assert report.count("2 identical, 0 differ in floats only") == len(runs)

    # a changed outcome fails the comparison
    runs["spectral_analysis:criteria_exact"][1][1] += " "
    second.write_text(json.dumps(runs))
    code, report = digest("--compare", str(first), str(second))
    assert code == 1
    assert ("spectral_analysis:criteria_exact: 1 identical, "
            "0 differ in floats only") in report
