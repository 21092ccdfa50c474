"""Seeded MatrixFile fuzz through run_command: every input ends in an exit
code of 0-3, with a message on exits 2 and 3, and never in a traceback.

A failure here is a library defect to mend; the generator is not to be
narrowed around it.
"""

import random

from maxalg.cli import run_command

SEED = 1212
CASES = 400

SUBCOMMANDS = [
    ["info"],
    ["star"],
    ["eigen"],
    ["scale", "fp"],
    ["scale", "strong"],
    ["scale", "eig"],
    ["scale", "rowcol"],
    ["scale", "balance"],
    ["sandwich"],
    ["hadamard"],
    ["powers"],
    ["csr"],
    ["nachtigall"],
    ["bound"],
    ["commute"],
    ["threshold"],
]
# commands whose scans take --budget; without a cap csr on the exact
# max-plus diag(1/2, -2/3) alone scans for seconds
BUDGETED = {"powers", "csr", "nachtigall"}

TIMES_TOKENS = [".", ".", "0", "1", "2", "1/2", "3/7", "5"]
PLUS_TOKENS = ["-inf", "-inf", "0", "1", "-1", "2/3", "-5/2", "3"]
EDGE_TOKENS = [
    "1e400", "1e-400", "1e-310", "1e308", "-1e308", "1e-300", "1e200",
    "-2",
]
JUNK_TOKENS = ["nan", "inf", "1/0", "x", ".", "-inf", "-3"]
TOLS = ["0", "1e-9", "0.5", "-1", "nan", "1", "1.5", "inf"]


def _matrix_text(rng):
    domain = "maxtimes" if rng.random() < 0.5 else "maxplus"
    n = rng.randint(1, 4)
    mode = rng.choice(["exact", "float"])
    header = f"{domain} {n} {mode}"
    r = rng.random()
    if r < 0.04:
        header = rng.choice(
            ["", f"{domain} {n}", f"{domain} 0 {mode}", f"minplus {n} {mode}",
             f"{domain} {n} fuzzy"]
        )
    rows = n + (rng.choice([-1, 1]) if rng.random() < 0.03 else 0)
    pool = TIMES_TOKENS if domain == "maxtimes" else PLUS_TOKENS
    p_edge = rng.choice([0.0, 0.0, 0.15, 0.4])
    p_junk = 0.05 if rng.random() < 0.1 else 0.0
    lines = [header]
    for _ in range(rows):
        cols = n + (rng.choice([-1, 1]) if rng.random() < 0.02 else 0)
        toks = []
        for _ in range(max(cols, 1)):
            u = rng.random()
            if u < p_junk:
                toks.append(rng.choice(JUNK_TOKENS))
            elif u < p_junk + p_edge:
                toks.append(rng.choice(EDGE_TOKENS))
            else:
                toks.append(rng.choice(pool))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def _argv(rng, tmp_path, k):
    sub = rng.choice(SUBCOMMANDS)
    files = {"sandwich": 3 * rng.randint(1, 2), "commute": 2}.get(sub[0], 1)
    argv = list(sub)
    for f in range(files):
        path = tmp_path / f"case{k}_{f}.mx"
        path.write_text(_matrix_text(rng))
        argv.append(str(path))
    u = rng.random()
    if u < 0.25:
        argv.append("--exact")
    elif u < 0.5:
        argv.append("--float")
    if rng.random() < 0.2:
        argv += ["--tol", rng.choice(TOLS)]
    if sub[0] in BUDGETED or rng.random() < 0.2:
        argv += ["--budget", str(rng.randint(-2, 50))]
    if rng.random() < 0.3:
        argv += ["--seed", str(rng.randint(0, 99))]
    return sub, argv


def test_matrix_file_fuzz_ends_in_a_typed_exit(tmp_path):
    rng = random.Random(SEED)
    failures = []
    codes = set()
    seen = set()
    for k in range(CASES):
        sub, argv = _argv(rng, tmp_path, k)
        seen.add(" ".join(sub))
        seen.update(t for t in argv if t.startswith("--"))
        try:
            report, code = run_command(argv)
        except Exception as exc:  # a traceback is the defect looked for
            failures.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        codes.add(code)
        if code not in (0, 1, 2, 3):
            failures.append((argv, f"exit {code}"))
        elif code in (2, 3) and not report["results"].get("error"):
            failures.append((argv, f"exit {code} without a message"))
    assert failures == []
    assert codes == {0, 1, 2, 3}
    every = {" ".join(s) for s in SUBCOMMANDS}
    every |= {"--exact", "--float", "--tol", "--budget", "--seed"}
    assert seen >= every
