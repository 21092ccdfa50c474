"""CLI layer: file format round-trips, golden reports, exit codes, schema."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from maxalg import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    Semiring,
    semiring_convert,
)
from maxalg.cli import (
    REPORT_SCHEMA,
    format_report,
    main,
    parse_matrix_text,
    parse_signed_text,
    run_command,
    serialize_matrix,
)
from maxalg import cli
from maxalg.errors import ParseError

from helpers import count_calls, random_matrix

HERE = Path(__file__).parent

# one golden per subcommand/variant, positive and negative answers both,
# all driven from the fixture matrices under data/
GOLDEN_CASES = [
    ("info", ["info", "data/two_cycle.mx", "--json"], 0),
    ("info_irrational", ["info", "data/contract.mx", "--json"], 0),
    ("star", ["star", "data/contract.mx", "--json"], 0),
    ("star_diverges", ["star", "data/diverge.mx", "--json"], 1),
    ("eigen", ["eigen", "data/two_cycle.mx", "--json"], 0),
    ("scale_fp", ["scale", "fp", "data/contract.mx", "--json"], 0),
    (
        "scale_fp_seed",
        ["scale", "fp", "data/contract.mx", "--seed", "7", "--json"],
        0,
    ),
    ("scale_fp_negative", ["scale", "fp", "data/balance4.mx", "--json"], 1),
    ("scale_strong", ["scale", "strong", "data/half_cycle.mx", "--json"], 0),
    (
        "scale_strong_boundary",
        ["scale", "strong", "data/two_cycle.mx", "--json"],
        1,
    ),
    ("scale_eig", ["scale", "eig", "data/two_cycle.mx", "--json"], 0),
    ("scale_rowcol", ["scale", "rowcol", "data/rowcol.mx", "--json"], 0),
    (
        "scale_rowcol_seed",
        ["scale", "rowcol", "data/rowcol.mx", "--seed", "7", "--json"],
        0,
    ),
    ("scale_balance", ["scale", "balance", "data/balance4.mx", "--json"], 0),
    (
        "sandwich",
        [
            "sandwich",
            "data/sw_lo.mx",
            "data/sw_mid.mx",
            "data/sw_up.mx",
            "--json",
        ],
        0,
    ),
    ("hadamard_pass", ["hadamard", "data/h_pass.mx", "--json"], 0),
    ("hadamard_fail", ["hadamard", "data/h_fail.mx", "--json"], 1),
    ("hadamard_signed", ["hadamard", "data/h_signed.mx", "--json"], 0),
    ("powers", ["powers", "data/loop2.mx", "--json"], 0),
    ("csr", ["csr", "data/loop2.mx", "--json"], 0),
    ("nachtigall", ["nachtigall", "data/diag_half.mx", "--json"], 0),
    ("bound", ["bound", "data/diag_half.mx", "--json"], 0),
    (
        "commute",
        ["commute", "data/perm2.mx", "data/ones2.mx", "--json"],
        0,
    ),
    ("threshold", ["threshold", "data/coupled.mx", "--json"], 0),
]


def _run(argv):
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        return run_command(argv)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize(
    "name,argv,want_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_reports(name, argv, want_code):
    report, code = _run(argv)
    assert code == want_code
    jsonschema.validate(report, REPORT_SCHEMA)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = HERE / "golden" / f"{name}.json"
    if os.environ.get("MAXALG_UPDATE_GOLDENS"):
        path.write_text(text)
    assert text == path.read_text()


# one analysis per matrix a command analyses: commute reads two and
# builds a third, the cone matrix of the common eigenvector
ANALYSIS_COUNTS = {
    "info": 1,
    "info_irrational": 1,
    "eigen": 1,
    "scale_eig": 1,
    "powers": 1,
    "csr": 1,
    "commute": 3,
}
ANALYSIS_COUNT_CASES = [c for c in GOLDEN_CASES if c[0] in ANALYSIS_COUNTS]


@pytest.mark.parametrize(
    "name,argv,want_code",
    ANALYSIS_COUNT_CASES,
    ids=[c[0] for c in ANALYSIS_COUNT_CASES],
)
def test_one_spectral_analysis_per_command(monkeypatch, name, argv, want_code):
    calls = count_calls(monkeypatch, "spectral_analysis")
    _report, code = _run(argv)
    assert code == want_code
    assert len(calls) == ANALYSIS_COUNTS[name]


def test_nachtigall_one_spectral_analysis_per_round(monkeypatch):
    calls = count_calls(monkeypatch, "spectral_analysis")
    report, code = _run(["nachtigall", "data/diag_half.mx", "--json"])
    assert code == 0
    assert 1 <= len(calls) <= len(report["results"]["terms"]) + 1


def test_round_trip_fixtures():
    for path in sorted((HERE / "data").glob("*.mx")):
        if path.name.startswith("h_signed"):
            continue
        text = path.read_text()
        a, _w = parse_matrix_text(text, str(path))
        again, _w2 = parse_matrix_text(serialize_matrix(a), str(path))
        assert again == a
        assert again.semiring == a.semiring


def test_round_trip_random():
    rng = random.Random(811)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, density=0.7)
        b, _w = parse_matrix_text(serialize_matrix(a))
        assert b == a
    # float matrices survive via repr shortest-decimal tokens
    for _ in range(20):
        n = rng.randint(1, 5)
        a = semiring_convert(random_matrix(rng, n, density=0.7), FLOAT_TIMES)
        b, _w = parse_matrix_text(serialize_matrix(a))
        assert b.rows == a.rows
    # max-plus: "-inf" tokens for zero, signed entries allowed
    p, _w = parse_matrix_text("maxplus 2 exact\n0 -3/2\n-inf 1\n")
    assert p.semiring == EXACT_PLUS
    assert p.rows[1][0] == p.semiring.zero
    q, _w = parse_matrix_text(serialize_matrix(p))
    assert q == p


def test_signed_parse_for_moduli_test():
    rows, sr, _w = parse_signed_text(
        "maxtimes 2 exact\n2 -1\n1/2 -2\n"
    )
    assert rows[0][1] == Fraction(-1)
    assert sr == EXACT_TIMES
    with pytest.raises(ParseError):
        parse_matrix_text("maxtimes 2 exact\n2 -1\n1/2 -2\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "1:1: empty matrix file"),
        ("maxtimes 2\n. .\n. .\n", "1:1: header needs exactly three"),
        ("tropical 2 exact\n. .\n. .\n", "1:1: unknown domain"),
        ("maxtimes zero exact\n", "1:10: dimension must be a positive"),
        ("maxtimes 2 fast\n. .\n. .\n", "1:12: unknown mode"),
        ("maxtimes 2 exact\n. .\n", "2:1: expected 2 rows, found 1"),
        ("maxtimes 2 exact\n. . .\n. .\n", "2:1: row has 3 entries"),
        ("maxtimes 2 exact\n. 2\nx .\n", "3:1: 'x' is not a number"),
        ("maxtimes 2 exact\n. -2\n1 .\n", "2:3: negative entry"),
        ("maxplus 2 exact\n0 .\n0 0\n", "2:3: token '.' denotes zero"),
        ("maxtimes 2 exact\n1 -inf\n1 1\n", "2:3: token '-inf' denotes"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_matrix_text(text, "f.mx")
    assert f"f.mx:{fragment}" in str(info.value)


def test_help_exits_zero(capsys):
    report, code = run_command(["--help"])
    assert report is None
    assert code == 0
    assert "usage" in capsys.readouterr().out


# -- one parser per process ---------------------------------------------------


def _count_parsers(monkeypatch):
    """Count every ArgumentParser built from now on, subparsers included."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import maxalg.cli\n"
        "print(len(built))\n"
    )
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "0"


def test_run_command_builds_one_parser_tree(monkeypatch):
    built = _count_parsers(monkeypatch)
    cli.build_parser()
    tree = len(built)
    assert tree > 1  # the root parser and one per subcommand
    built.clear()
    cli._shared_parser.cache_clear()
    for k in range(20):
        _run(["info", "data/contract.mx"] + (["--float"] if k % 2 else []))
    assert len(built) == tree


def test_shared_parser_carries_no_state_between_calls(monkeypatch):
    # each report equals the one a freshly built parser gives, so a
    # --seed, --tol or mode never carries over to the next call
    argvs = [
        ["scale", "fp", "data/contract.mx", "--seed", "3"],
        ["scale", "fp", "data/contract.mx"],
        ["nosuch", "data/contract.mx"],
        ["info", "data/contract.mx", "--tol", "-1"],
        ["info", "data/contract.mx", "--float"],
        ["info", "data/contract.mx"],
    ] * 2
    shared = [_run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [_run(argv) for argv in argvs]
    assert shared == fresh
    assert [code for _report, code in shared] == [0, 0, 2, 2, 0, 0] * 2
    results = [report and report["results"] for report, _code in shared]
    assert results[0] != results[1]
    assert results[4] != results[5]


def test_parse_additive_float_matrix():
    p, _w = parse_matrix_text("maxplus 2 float\n0 -inf\n1.5 0\n")
    assert p.semiring == FLOAT_PLUS
    assert p.rows[0][1] == p.semiring.zero
    assert p.rows[1][0] == 1.5


def test_exit_code_contract():
    # 0 success / 1 negative answer / 2 usage / 3 mode trouble
    report, code = _run(["info", "data/two_cycle.mx"])
    assert code == 0 and "error" not in report["results"]
    report, code = _run(["star", "data/diverge.mx"])
    assert code == 1
    assert report["results"]["answer"] == "negative"
    assert report["results"]["witness"]["weight"] == "6"
    report, code = _run(["commute", "data/loop2.mx", "data/rowcol.mx"])
    assert code == 1
    report, code = _run(["info", "data/no_such_file.mx"])
    assert code == 2
    report, code = _run(["scale", "rowcol", "data/zero_diag.mx"])
    assert code == 2 and "zero diagonal" in report["results"]["error"]
    report, code = _run(["eigen", "data/diag_half.mx"])
    assert code == 2 and "irreducible" in report["results"]["error"]
    report, code = _run(["powers", "data/loop2.mx", "--budget", "1"])
    assert code == 2 and "budget" in report["results"]["error"]
    # exact mode cannot express the irrational eigenvector scaling
    report, code = _run(["scale", "eig", "data/contract.mx"])
    assert code == 3
    report, code = _run(["commute", "data/perm2.mx", "data/float2.mx"])
    assert code == 3
    # argparse usage failure: unknown variant
    _report, code = _run(["scale", "nope", "data/rowcol.mx"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "M"],
        ["scale", "eig", "M"],
        ["scale", "balance", "M"],
        ["commute", "M", "M"],
    ],
    ids=["eigen", "scale_eig", "scale_balance", "commute"],
)
def test_tol_zero_rounding_above_one_is_a_divergence(tmp_path, argv):
    # with no tolerance, float rounding leaves the normalized two-cycle
    # just above one; the eigenvector readers must report the divergent
    # star with its witness, as kleene_star does
    path = tmp_path / "tight.mx"
    path.write_text("maxplus 2 float\n1.2 2.7\n5.5 4.1\n")
    argv = [str(path) if t == "M" else t for t in argv] + ["--tol", "0"]
    report, code = run_command(argv)
    assert code == 1
    assert report["results"]["answer"] == "negative"
    assert "the star diverges" in report["results"]["reason"]
    assert report["results"]["witness"]["nodes"]


@pytest.mark.parametrize("command", ["eigen", "powers", "csr"])
def test_mean_below_float_range_is_a_mode_refusal(tmp_path, command):
    # 1/lam overflows: normalizing commands refuse with a typed mode error
    # (exit 3), while info still reports the mean
    path = tmp_path / "tiny.mx"
    path.write_text("maxtimes 1 float\n1e-310\n")
    report, code = run_command([command, str(path)])
    assert code == 3
    assert "overflows the float range" in report["results"]["error"]
    _report, code = run_command(["info", str(path)])
    assert code == 0


@pytest.mark.parametrize("command", ["info", "star", "eigen"])
def test_float_overflow_at_parse_is_a_mode_refusal(tmp_path, command):
    # 1e400 has no float value: a typed refusal naming the token's
    # position (exit 3), never an OverflowError traceback (exit 1)
    path = tmp_path / "huge.mx"
    path.write_text("maxtimes 2 float\n1 1e400\n1 1\n")
    report, code = run_command([command, str(path)])
    assert code == 3
    assert report["results"]["error"].startswith(f"{path}:2:3: '1e400'")
    _report, code = run_command([command, str(path), "--exact"])
    assert code in (0, 1)


@pytest.mark.parametrize("command", ["info", "star", "eigen"])
def test_float_underflow_at_parse_is_a_mode_refusal(tmp_path, command):
    # 1e-400 rounds to 0.0, the max-times zero: refused with the token's
    # position (exit 3) rather than read as a missing edge
    path = tmp_path / "tiny.mx"
    path.write_text("maxtimes 2 float\n1 1e-400\n1 1\n")
    report, code = run_command([command, str(path)])
    assert code == 3
    assert report["results"]["error"].startswith(f"{path}:2:3: '1e-400'")
    assert "underflows the float range" in report["results"]["error"]
    report, code = run_command([command, str(path), "--exact"])
    assert code == 0
    if command == "info":
        assert report["results"]["nonzero_entries"] == 4
        assert report["results"]["irreducible"] is True


@pytest.mark.parametrize(
    "tol,want_code",
    [("-1", 2), ("nan", 2), ("1", 2), ("1.5", 2), ("inf", 2)]
    + [("0", 0), ("1e-9", 0), ("0.5", 0)],
)
def test_tolerance_must_lie_in_zero_to_one(tol, want_code):
    report, code = _run(["info", "data/two_cycle.mx", "--float", "--tol", tol])
    assert code == want_code
    if want_code == 2:
        assert report["results"]["error"].startswith("--tol: tolerance")


# inputs that once ended in a traceback or a junk answer: each now ends
# in a typed refusal with a message
TYPED_REFUSALS = [
    (
        "nachtigall_coefficient_power_overflows",
        ["nachtigall", "M"],
        "maxtimes 2 float\n1/2 1e308\n1/2 2\n",
        3,
        "overflows the float range",
    ),
    (
        "bound_coefficient_power_overflows",
        ["bound", "M"],
        "maxtimes 2 float\n1/2 1e308\n1/2 2\n",
        3,
        "overflows the float range",
    ),
    (
        "bound_exact_entry_beyond_float",
        ["bound", "M"],
        "maxtimes 2 exact\n1e200 1e400\n0 1e308\n",
        3,
        "overflows the float range",
    ),
    (
        "bound_gap_underflows",
        ["bound", "M"],
        "maxplus 2 exact\n1e-400 -inf\n2 0\n",
        3,
        "gap",
    ),
    (
        "nachtigall_negative_horizon",
        ["nachtigall", "M", "--budget", "-1"],
        "maxtimes 2 exact\n1 .\n. 1/2\n",
        2,
        "horizon",
    ),
    (
        "balance_float_restart_scale_underflows",
        ["scale", "balance", "M"],
        "maxtimes 2 exact\n1/2 1e-300\n3/7 1e200\n",
        3,
        "underflows the float range",
    ),
    (
        "powers_normalization_drops_an_edge",
        ["powers", "M"],
        "maxtimes 2 float\n1/2 1e-300\n3/7 1e200\n",
        3,
        "underflows the float range",
    ),
    (
        "csr_normalization_drops_an_edge",
        ["csr", "M"],
        "maxtimes 2 float\n1/2 1e-300\n3/7 1e200\n",
        3,
        "underflows the float range",
    ),
    (
        "eigen_normalization_drops_an_edge",
        ["eigen", "M"],
        "maxtimes 2 float\n1/2 1e-300\n3/7 1e200\n",
        3,
        "underflows the float range",
    ),
    (
        "scale_eig_normalization_drops_an_edge",
        ["scale", "eig", "M"],
        "maxtimes 2 float\n1/2 1e-300\n3/7 1e200\n",
        3,
        "underflows the float range",
    ),
    (
        "powers_normalization_overflows_an_entry",
        ["powers", "M"],
        "maxtimes 3 float\n. 1e-150 1e200\n1e-150 . .\n. . .\n",
        3,
        "overflows the float range",
    ),
    (
        "info_float_cycle_weight_underflows",
        ["info", "M"],
        "maxtimes 3 float\n. 1e-200 .\n. . 1e-200\n1e-200 . .\n",
        3,
        "underflows the float range",
    ),
    (
        "info_float_cycle_weight_overflows",
        ["info", "M"],
        "maxtimes 2 float\n. 1e200\n1e200 .\n",
        3,
        "overflows the float range",
    ),
]


@pytest.mark.parametrize(
    "name,argv,text,want_code,fragment",
    TYPED_REFUSALS,
    ids=[c[0] for c in TYPED_REFUSALS],
)
def test_typed_refusals(tmp_path, name, argv, text, want_code, fragment):
    path = tmp_path / f"{name}.mx"
    path.write_text(text)
    report, code = run_command([str(path) if t == "M" else t for t in argv])
    assert code == want_code
    assert fragment in report["results"]["error"]


@pytest.mark.parametrize(
    "text,weight",
    [
        ("maxplus 2 float\n1e308 -1e300\n0 0\n", 1e308),
        ("maxtimes 3 float\n1e300 1 .\n1 . 1\n1 . .\n", 1e300),
    ],
    ids=["info_float_plus_walks_overflow", "info_float_times_walks_overflow"],
)
def test_float_mean_when_walks_overflow(tmp_path, text, weight):
    # walks of length n leave the float range, but the mean is a loop at
    # node 0 of weight 1e308 or 1e300, as in exact mode
    path = tmp_path / "M.mx"
    path.write_text(text)
    report, code = run_command(["info", str(path)])
    assert code == 0
    assert report["results"]["lambda"]["weight"] == repr(weight)
    assert report["results"]["lambda"]["length"] == 1
    exact, code = run_command(["--exact", "info", str(path)])
    assert code == 0
    assert float(Fraction(exact["results"]["lambda"]["value"])) == weight
    assert float(report["results"]["lambda"]["value"]) == pytest.approx(
        weight
    )


def test_parse_matrix_text_coerces_no_entry_again(monkeypatch):
    # _parse_token validates each entry once; the matrix is built from
    # its grid without a second Semiring.coerce pass
    calls = []
    original = Semiring.coerce

    def counting(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(Semiring, "coerce", counting)
    for text in (
        "maxtimes 2 exact\n1/2 .\n3 1\n",
        "maxtimes 2 float\n1/2 .\n3 1e-300\n",
        "maxplus 2 exact\n-1/2 -inf\n3 0\n",
        "maxplus 2 float\n-1/2 -inf\n3 1e-400\n",
    ):
        a, _w = parse_matrix_text(text)
        assert a.n == 2
    assert calls == []


def test_mode_override_flags():
    report, code = _run(["info", "data/two_cycle.mx", "--float"])
    assert code == 0
    assert report["results"]["mode"] == "float"
    assert any("overridden" in w for w in report["warnings"])
    report, code = _run(["info", "data/float2.mx", "--exact"])
    assert code == 0
    assert report["results"]["mode"] == "exact"
    # float mode evaluates the irrational mean instead of erroring
    report, code = _run(["scale", "eig", "data/contract.mx", "--float"])
    assert code == 0


def test_seed_determinism():
    one, code1 = _run(["scale", "fp", "data/contract.mx", "--seed", "7"])
    two, code2 = _run(["scale", "fp", "data/contract.mx", "--seed", "7"])
    assert code1 == code2 == 0
    assert one == two
    other, _code = _run(["scale", "fp", "data/contract.mx", "--seed", "8"])
    assert other["results"]["u"] != one["results"]["u"]
    plain, _code = _run(["scale", "fp", "data/contract.mx"])
    assert "u" not in plain["results"]


def test_schema_rejects_malformed_report():
    report, _code = _run(["info", "data/two_cycle.mx"])
    bad = dict(report)
    del bad["warnings"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)
    bad = dict(report)
    bad["inputs"] = [{"path": "x"}]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)


def test_human_format_and_main(capsys):
    report, code = _run(["eigen", "data/two_cycle.mx"])
    text = format_report(report, as_json=False)
    assert text.splitlines()[0].startswith("command: maxalg eigen")
    assert "lambda: 1" in text
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        code = main(["eigen", "data/two_cycle.mx"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvector" in out
        code = main(["eigen", "data/diag_half.mx"])
        assert code == 2
        err = capsys.readouterr().err
        assert "irreducible" in err
    finally:
        os.chdir(cwd)


def test_main_prints_aligned_matrices_json_and_warnings(capsys):
    # the human report right-aligns each column of a matrix of tokens,
    # --json prints the report itself, and warnings close the human report
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        assert main(["star", "data/contract.mx"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == ["star:", "    1  2", "  1/4  1"]
        assert main(["star", "data/contract.mx", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["star"] == [["1", "2"], ["1/4", "1"]]
        assert main(["info", "data/contract.mx", "--float"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == (
            "warning: mode overridden from exact to float by command flag"
        )
    finally:
        os.chdir(cwd)
