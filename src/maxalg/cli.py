"""Command-line front end: matrix files in, analysis reports out.

Matrix files carry a one-line header "maxtimes|maxplus <n> exact|float"
followed by n rows of n whitespace-separated tokens; "." (max-times) and
"-inf" (max-plus) denote the semiring zero, other tokens are decimals or
fractions "p/q". Every subcommand prints one report, as aligned text or
as a single JSON document under --json, with exact numbers serialized as
fraction strings.

Exit codes separate the kinds of outcomes: 0 success, 1 a negative
mathematical answer (no scaling exists, the moduli test fails, the
matrices do not commute), 2 usage or parse problems, 3 mode or exactness
problems.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import re
import sys
from fractions import Fraction

from .asymptotics import (
    csr_decompose,
    nachtigall_expansion,
    normalized_periodicity,
    transient_bound,
)
from .balancing import max_balance
from .commuting import common_saturation_pair, commuting_cycle_witness
from .digraph import threshold_spectrum
from .errors import (
    HadamardFailsError,
    MaxAlgebraError,
    ModeError,
    NegativeAnswer,
    ParseError,
    ZeroDiagonalError,
)
from .matrix import MaxMatrix, kleene_star
from .scaling import (
    apply_scaling,
    fp_scaling,
    hadamard_scaling_test,
    has_rowcol_maxima_diagonal,
    random_positive_vector,
    row_col_maxima_scalings,
    sandwich_scalings,
    satisfies_sandwich,
    saturation_graph,
    strong_fp_scaling,
)
from .semiring import PLUS, TIMES, Semiring, checked_float
from .spectral import spectral_analysis

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "inputs", "results", "warnings"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256"],
                "additionalProperties": False,
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {
                        "type": "string",
                        "pattern": "^[0-9a-f]{64}$",
                    },
                },
            },
        },
        "results": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}

_DOMAIN_TOKENS = {"maxtimes": TIMES, "maxplus": PLUS}
_DOMAIN_NAMES = {TIMES: "maxtimes", PLUS: "maxplus"}


def _tok(value, sr):
    """The file token for one scalar."""
    if sr.is_zero(value):
        return "." if sr.domain == TIMES else "-inf"
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _mat_tokens(a):
    return [[_tok(v, a.semiring) for v in row] for row in a.rows]


def _vec_tokens(x):
    return [_tok(v, x.semiring) for v in x]


def _path_dict(p, sr):
    return {
        "nodes": list(p.nodes),
        "length": p.length,
        "weight": _tok(p.weight, sr),
    }


def _mean_tokens(mean, sr):
    out = {"weight": _tok(mean.weight, sr), "length": mean.length}
    value = mean.exact_value()
    out["value"] = None if value is None else _tok(value, sr)
    return out


def parse_matrix_text(text, path="<input>", mode_override=None, tol=None):
    """Parse MatrixFile text; returns (matrix, warnings)."""
    grid, sr, warnings = _parse_grid(
        text, path, mode_override, tol, allow_negative=False
    )
    return MaxMatrix._raw(grid, sr), warnings


def parse_signed_text(text, path="<input>", mode_override=None, tol=None):
    """Parse a max-times file allowing signed entries; returns raw rows."""
    grid, sr, warnings = _parse_grid(
        text, path, mode_override, tol, allow_negative=True
    )
    if sr.domain != TIMES:
        raise ModeError(
            "the moduli test reads max-times files; got a max-plus header"
        )
    return grid, sr, warnings


def _parse_grid(text, path, mode_override, tol, allow_negative):
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        toks = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        if toks:
            lines.append((lineno, toks))
    if not lines:
        raise ParseError(f"{path}:1:1: empty matrix file")
    head_line, head = lines[0]
    if len(head) != 3:
        raise ParseError(
            f"{path}:{head_line}:1: header needs exactly three tokens: "
            "domain, dimension, mode"
        )
    (c1, domain_tok), (c2, n_tok), (c3, mode_tok) = head
    if domain_tok not in _DOMAIN_TOKENS:
        raise ParseError(
            f"{path}:{head_line}:{c1}: unknown domain {domain_tok!r}; "
            "expected maxtimes or maxplus"
        )
    domain = _DOMAIN_TOKENS[domain_tok]
    try:
        n = int(n_tok)
    except ValueError:
        n = -1
    if n <= 0:
        raise ParseError(
            f"{path}:{head_line}:{c2}: dimension must be a positive integer"
        )
    if mode_tok not in ("exact", "float"):
        raise ParseError(
            f"{path}:{head_line}:{c3}: unknown mode {mode_tok!r}; "
            "expected exact or float"
        )
    warnings = []
    mode = mode_tok
    if mode_override is not None and mode_override != mode_tok:
        mode = mode_override
        warnings.append(
            f"mode overridden from {mode_tok} to {mode} by command flag"
        )
    try:
        sr = Semiring(
            domain, exact=(mode == "exact"), tol=(1e-9 if tol is None else tol)
        )
    except ValueError as exc:
        raise ParseError(f"--tol: {exc}") from None
    body = lines[1:]
    if len(body) != n:
        raise ParseError(
            f"{path}:{body[-1][0] if body else head_line}:1: expected "
            f"{n} rows, found {len(body)}"
        )
    grid = []
    for lineno, toks in body:
        if len(toks) != n:
            raise ParseError(
                f"{path}:{lineno}:{toks[0][0]}: row has {len(toks)} "
                f"entries, expected {n}"
            )
        row = []
        for col, tok in toks:
            row.append(
                _parse_token(tok, sr, path, lineno, col, allow_negative)
            )
        grid.append(row)
    return grid, sr, warnings


def _parse_token(tok, sr, path, lineno, col, allow_negative):
    if tok == ".":
        if sr.domain != TIMES:
            raise ParseError(
                f"{path}:{lineno}:{col}: token '.' denotes zero in "
                "max-times files only"
            )
        return sr.zero
    if tok == "-inf":
        if sr.domain != PLUS:
            raise ParseError(
                f"{path}:{lineno}:{col}: token '-inf' denotes zero in "
                "max-plus files only"
            )
        return sr.zero
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"{path}:{lineno}:{col}: {tok!r} is not a number, '.', "
            "or '-inf'"
        ) from None
    if sr.domain == TIMES and value < 0 and not allow_negative:
        raise ParseError(
            f"{path}:{lineno}:{col}: negative entry {tok!r} not allowed "
            "in a max-times matrix"
        )
    if sr.exact:
        return value
    return checked_float(
        value, sr.domain == TIMES, f"{path}:{lineno}:{col}: {tok!r}"
    )


def serialize_matrix(a):
    """Write a matrix back into MatrixFile text."""
    sr = a.semiring
    header = f"{_DOMAIN_NAMES[sr.domain]} {a.n} {sr.mode_name}"
    body = [" ".join(_tok(v, sr) for v in row) for row in a.rows]
    return "\n".join([header] + body) + "\n"


def _read_file(path, inputs):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    inputs.append(
        {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    )
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from None


def _load_matrix(path, args, inputs):
    text = _read_file(path, inputs)
    return parse_matrix_text(text, path, mode_override=args.mode, tol=args.tol)


def _cmd_info(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    nonzero = sum(
        0 if sr.is_zero(v) else 1 for row in a.rows for v in row
    )
    an = spectral_analysis(a)
    mean = an.mean
    results = {
        "domain": _DOMAIN_NAMES[sr.domain],
        "mode": sr.mode_name,
        "n": a.n,
        "nonzero_entries": nonzero,
        "irreducible": an.is_irreducible,
        "component_count": len(an.components.components),
        "has_cycles": not mean.is_zero,
    }
    if mean.is_zero:
        results["lambda"] = None
    else:
        results["lambda"] = _mean_tokens(mean, sr)
        if results["lambda"]["value"] is None:
            warnings.append(
                "top cycle mean is an irrational root; reported as "
                "weight and length"
            )
    return results, warnings


def _cmd_star(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    star = kleene_star(a)
    return {"star": _mat_tokens(star)}, warnings


def _cmd_eigen(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    an = spectral_analysis(a)
    x = an.principal_eigenvector()
    cg = an.critical
    mean = an.mean
    results = {
        "lambda": _tok(an.lam, sr),
        "lambda_pair": _mean_tokens(mean, sr),
        "eigenvector": _vec_tokens(x),
        "critical_nodes": list(cg.nodes),
        "critical_edges": [[i, j] for i, j, _w in cg.graph.edges],
        "critical_components": [list(c) for c in cg.components],
        "cyclicity": cg.cyclicity,
        "witness_cycle": _path_dict(mean.witness, sr),
    }
    return results, warnings


def _cmd_scale(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    rng = random.Random(args.seed) if args.seed is not None else None
    if args.variant == "fp":
        u = random_positive_vector(sr, a.n, rng) if rng else None
        scaling = fp_scaling(a, u)
        results = {
            "x": _vec_tokens(scaling.x),
            "scaled": _mat_tokens(scaling.apply(a)),
        }
        if u is not None:
            results["u"] = _vec_tokens(u)
        return results, warnings
    if args.variant == "strong":
        scaling = strong_fp_scaling(a)
        return {
            "x": _vec_tokens(scaling.x),
            "scaled": _mat_tokens(scaling.apply(a)),
        }, warnings
    if args.variant == "eig":
        an = spectral_analysis(a)
        tilde = an.normalized()
        x = an.principal_eigenvector()
        visualized = apply_scaling(tilde, x)
        sat = saturation_graph(tilde, x)
        return {
            "lambda": _tok(an.lam, sr),
            "eigenvector": _vec_tokens(x),
            "visualized": _mat_tokens(visualized),
            "saturation_edges": [[i, j] for i, j, _w in sat.graph.edges],
        }, warnings
    if args.variant == "rowcol":
        fam = row_col_maxima_scalings(a)
        scaling = fam.sample_random(rng) if rng else fam.sample()
        b = apply_scaling(a, scaling)
        return {
            "q": _mat_tokens(fam.q),
            "q_star": _mat_tokens(fam.q_star),
            "x": _vec_tokens(scaling.x),
            "scaled": _mat_tokens(b),
            "verified": has_rowcol_maxima_diagonal(b),
        }, warnings
    cert = max_balance(a)
    if cert.exact_degraded:
        warnings.append(
            "irrational level mean: balancing restarted in float mode"
        )
    return {
        "x": _vec_tokens(cert.scaling.x),
        "balanced": _mat_tokens(cert.balanced),
        "levels": [
            [
                {"weight": _tok(w, cert.balanced.semiring), "length": l}
                for w, l in comp_levels
            ]
            for comp_levels in cert.levels
        ],
        "checked_properties": list(cert.checked_properties),
        "exact_degraded": cert.exact_degraded,
    }, warnings


def _cmd_sandwich(args, inputs):
    if len(args.files) % 3 != 0 or not args.files:
        raise ParseError(
            "sandwich expects file triples: lower middle upper "
            "[lower middle upper ...]"
        )
    warnings = []
    mats = []
    for path in args.files:
        m, w = _load_matrix(path, args, inputs)
        mats.append(m)
        warnings.extend(w)
    triples = [
        (mats[k], mats[k + 1], mats[k + 2])
        for k in range(0, len(mats), 3)
    ]
    fam = sandwich_scalings(triples)
    rng = random.Random(args.seed) if args.seed is not None else None
    scaling = fam.sample_random(rng) if rng else fam.sample()
    scaled = [apply_scaling(mid, scaling) for _lo, mid, _up in triples]
    return {
        "q": _mat_tokens(fam.q),
        "x": _vec_tokens(scaling.x),
        "scaled_middles": [_mat_tokens(b) for b in scaled],
        "verified": satisfies_sandwich(triples, scaling),
    }, warnings


def _cmd_hadamard(args, inputs):
    text = _read_file(args.matrix, inputs)
    rows, sr, warnings = parse_signed_text(
        text, args.matrix, mode_override=args.mode, tol=args.tol
    )
    try:
        scaling = hadamard_scaling_test(rows, sr)
    except ZeroDiagonalError as exc:
        raise HadamardFailsError(
            f"{exc} -- the moduli test needs a nonzero diagonal"
        ) from None
    return {
        "diagonal": _vec_tokens(scaling.x),
        "condition_verified": True,
    }, warnings


def _cmd_powers(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    profile = normalized_periodicity(a, budget=args.budget)
    return {
        "transient": profile.transient,
        "period": profile.period,
        "predicted_period": profile.predicted_period,
        "lambda_pair": _mean_tokens(profile.lam, sr),
        "budget": profile.budget,
        "first_repeating_power": _mat_tokens(profile.powers[0]),
    }, warnings


def _cmd_csr(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    trip = csr_decompose(a, budget=args.budget)
    return {
        "lambda": _tok(trip.lam, sr),
        "gamma": trip.gamma,
        "transient": trip.transient,
        "certified_from": trip.certified_from,
        "critical_nodes": list(trip.critical_nodes),
        "c": _mat_tokens(trip.c),
        "s": _mat_tokens(trip.s),
        "r": _mat_tokens(trip.r),
    }, warnings


def _cmd_nachtigall(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    exp = nachtigall_expansion(a, horizon=args.budget)
    return {
        "validity_start": exp.validity_start,
        "horizon": exp.horizon,
        "terms": [
            {
                "coefficient": _tok(t.coefficient, sr),
                "gamma": t.gamma,
                "critical_nodes": list(t.critical_nodes),
                "c": _mat_tokens(t.c),
                "s": _mat_tokens(t.s),
                "r": _mat_tokens(t.r),
            }
            for t in exp.terms
        ],
    }, warnings


def _cmd_bound(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    tb = transient_bound(a)
    return {
        "bound": tb.bound,
        "measured": tb.measured,
        "lam1": tb.lam1,
        "lam2": tb.lam2,
        "satisfied": tb.measured <= tb.bound,
    }, warnings


def _cmd_commute(args, inputs):
    a, wa = _load_matrix(args.matrix_a, args, inputs)
    b, wb = _load_matrix(args.matrix_b, args, inputs)
    warnings = wa + wb
    sr = a.semiring
    ce, pair = common_saturation_pair(a, b)
    cycle1, cycle2 = commuting_cycle_witness(pair)
    return {
        "commutes": True,
        "x": _vec_tokens(ce.x),
        "lam_a": _tok(ce.lam_a, sr),
        "lam_b": _tok(ce.lam_b, sr),
        "saturation_edges_a": [[i, j] for i, j, _w in pair.g1.edges],
        "saturation_edges_b": [[i, j] for i, j, _w in pair.g2.edges],
        "cycle_in_a": _path_dict(cycle1, sr),
        "cycle_in_b": _path_dict(cycle2, sr),
    }, warnings


def _cmd_threshold(args, inputs):
    a, warnings = _load_matrix(args.matrix, args, inputs)
    sr = a.semiring
    levels = threshold_spectrum(a)
    return {
        "levels": [
            {
                "theta": _tok(theta, sr),
                "nontrivial_nodes": sorted(dec.nontrivial_nodes()),
                "components": [list(c) for c in dec.nontrivial_components],
            }
            for theta, dec in levels
        ]
    }, warnings


def _add_common(parser, root):
    default = (lambda v: v) if root else (lambda _v: argparse.SUPPRESS)
    parser.add_argument(
        "--exact",
        dest="mode",
        action="store_const",
        const="exact",
        default=default(None),
        help="force exact rational arithmetic regardless of the file mode",
    )
    parser.add_argument(
        "--float",
        dest="mode",
        action="store_const",
        const="float",
        default=default(None),
        help="force float arithmetic regardless of the file mode",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=default(None),
        help="relative comparison tolerance in float mode (default 1e-9)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=default(False),
        help="print the report as a single JSON document",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=default(None),
        help="sample scalings with this random seed instead of all-ones",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=default(None),
        help="iteration cap for power searches and expansion horizons",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxalg",
        description=(
            "Max-algebra matrix analysis: scalings, spectra, Kleene "
            "stars, power asymptotics, balancing, commuting pairs. "
            "Node indices in reports are 0-based."
        ),
    )
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, root=False)
        p.set_defaults(func=func)
        return p

    p = add("info", _cmd_info, "matrix shape, structure, top cycle mean")
    p.add_argument("matrix")
    p = add("star", _cmd_star, "Kleene star, or the divergence witness")
    p.add_argument("matrix")
    p = add("eigen", _cmd_eigen, "eigenvalue, eigenvector, critical graph")
    p.add_argument("matrix")
    p = add("scale", _cmd_scale, "diagonal similarity scalings")
    p.add_argument(
        "variant", choices=["fp", "strong", "eig", "rowcol", "balance"]
    )
    p.add_argument("matrix")
    p = add(
        "sandwich",
        _cmd_sandwich,
        "scalings fitting middle matrices between bounds",
    )
    p.add_argument("files", nargs="+")
    p = add("hadamard", _cmd_hadamard, "cycle test on moduli of a signed matrix")
    p.add_argument("matrix")
    p = add("powers", _cmd_powers, "transient and period of normalized powers")
    p.add_argument("matrix")
    p = add("csr", _cmd_csr, "factor eventual powers through critical nodes")
    p.add_argument("matrix")
    p = add(
        "nachtigall",
        _cmd_nachtigall,
        "expansion of powers into CSR terms",
    )
    p.add_argument("matrix")
    p = add("bound", _cmd_bound, "spectral-gap bound on the expansion onset")
    p.add_argument("matrix")
    p = add("commute", _cmd_commute, "common eigenvector and commuting cycles")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p = add("threshold", _cmd_threshold, "component structure per threshold")
    p.add_argument("matrix")
    return parser


@functools.cache
def _shared_parser():
    """The parser run_command uses, built on first use, once per process.

    Parsing reads the parser and never changes it: each parse_args call
    fills a new namespace from the parser's defaults.
    """
    return build_parser()


def run_command(argv):
    """Parse argv, run the subcommand, return (report or None, exit code)."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return None, int(exc.code or 0)
    inputs = []
    echo = "maxalg " + " ".join(argv)

    def report(results, warnings):
        return {
            "command": echo,
            "inputs": inputs,
            "results": results,
            "warnings": warnings,
        }

    try:
        results, warnings = args.func(args, inputs)
        return report(results, warnings), 0
    except NegativeAnswer as exc:
        results = {"answer": "negative", "reason": str(exc)}
        witness = exc.witness
        if witness is not None:
            results["witness"] = {
                "nodes": list(witness.nodes),
                "length": witness.length,
                "weight": _scalar_token(witness.weight),
            }
        return report(results, []), 1
    except ModeError as exc:
        return report({"error": str(exc)}, []), 3
    except (MaxAlgebraError, OSError) as exc:
        return report({"error": str(exc)}, []), 2


def _scalar_token(value):
    """Token for a scalar of unknown semiring; cycle weights are nonzero."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _human_lines(value, key, indent, out):
    pad = "  " * indent
    if isinstance(value, dict):
        out.append(f"{pad}{key}:")
        for k, v in value.items():
            _human_lines(v, k, indent + 1, out)
    elif (
        isinstance(value, list)
        and value
        and all(isinstance(r, list) for r in value)
        and all(isinstance(v, str) for r in value for v in r)
    ):
        out.append(f"{pad}{key}:")
        widths = [
            max(len(row[c]) for row in value) for c in range(len(value[0]))
        ] if value[0] else []
        for row in value:
            cells = [cell.rjust(w) for cell, w in zip(row, widths)]
            out.append(f"{pad}  " + "  ".join(cells))
    elif isinstance(value, list) and value and any(
        isinstance(v, (dict, list)) for v in value
    ):
        out.append(f"{pad}{key}:")
        for idx, item in enumerate(value):
            _human_lines(item, str(idx), indent + 1, out)
    elif isinstance(value, list):
        out.append(f"{pad}{key}: " + " ".join(str(v) for v in value))
    else:
        out.append(f"{pad}{key}: {value}")


def format_report(report, as_json):
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    out = [f"command: {report['command']}"]
    for inp in report["inputs"]:
        out.append(f"input: {inp['path']} sha256={inp['sha256']}")
    for k, v in report["results"].items():
        _human_lines(v, k, 0, out)
    for w in report["warnings"]:
        out.append(f"warning: {w}")
    return "\n".join(out)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    report, code = run_command(argv)
    if report is None:
        return code
    as_json = "--json" in argv
    if code in (0, 1):
        print(format_report(report, as_json))
    else:
        print(report["results"].get("error", "error"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
