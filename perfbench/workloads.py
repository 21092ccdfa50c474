"""The four workloads: how each builds an instance, runs a job, checks it.

A job is one certified analysis of one generated matrix or pair, made
through maxalg's public functions. Every call into a library layer goes
through ``call(span_name, fn, *args)`` so a traced run can put a span
around it; the untraced run passes a ``call`` that only forwards.

``check`` runs after the job's timed section, re-derives the answer
with checks.py and returns the job's counters; a wrong answer raises
checks.CheckFailed.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import checks
import inputs
from checks import Arith, grid, require, vector

CSR_POWER = 1000
EXPANSION_POWER = 400


def _scc_of(lib, a):
    return lib.scc(lib.digraph_of(a))


class Workload:
    """Shared set-up: the seed, the imported library, the file directory.

    ``size_ranges`` maps each kind of instance to its (lo, hi) size range;
    ``pattern`` is the repeating order of kinds over the jobs.
    """

    def __init__(self, seed, lib, workdir):
        self.seed = seed
        self.lib = lib
        self.workdir = workdir
        self.sizes = {
            kind: inputs.SizeCycle(self.name, seed, kind, lo, hi)
            for kind, (lo, hi) in self.size_ranges.items()
        }

    def slot(self, i):
        """(kind, j, size, rng) of instance i, the j-th of its kind."""
        kind, j = inputs.pattern_slot(self.pattern, i)
        return kind, j, self.sizes[kind][j], inputs.instance_rng(
            self.name, self.seed, i)


class ExactSpectral(Workload):
    """Karp means, critical graphs and eigenvectors in exact arithmetic.

    Fraction cross powers, Karp and the symbolic critical-edge closure
    dominate. Unplanted matrices have no loops, so their top mean is
    almost always an irrational root; planted ones have a rational mean;
    every sixth job is a commuting pair.
    """

    name = "exact_spectral"
    pattern = "UPUPUCPUPUPC"
    kinds = {"U": "unplanted", "P": "planted", "C": "pair"}
    size_ranges = {"U": (12, 20), "P": (12, 20), "C": (5, 10)}

    def generate(self, i):
        kind, _j, n, rng = self.slot(i)
        if kind == "U":
            return kind, inputs.random_irreducible(rng, n, loops=False), None
        if kind == "P":
            rows = inputs.unit_lambda_irreducible(rng, n)
            return kind, inputs.scaled(rows, inputs.random_lambda(rng)), None
        a, b = inputs.polynomial_pair(rng, n)
        return kind, a, b

    def build(self, i):
        kind, a, b = self.generate(i)
        lib = self.lib
        return {
            "kind": kind,
            "rows": a,
            "b_rows": b,
            "a": lib.MaxMatrix(a),
            "b": lib.MaxMatrix(b) if b is not None else None,
        }

    def run(self, inst, call):
        lib = self.lib
        a = inst["a"]
        out = {"scc": call("digraph.scc", _scc_of, lib, a)}
        mean = out["mean"] = call(
            "spectral.max_cycle_gmean", lib.max_cycle_gmean, a)
        out["critical"] = call(
            "spectral.critical_graph", lib.critical_graph, a)
        if mean.exact_value() is not None:
            out["x"] = call("spectral.principal_eigenvector",
                            lib.principal_eigenvector, a)
        if inst["b"] is not None:
            out["common"] = call("commuting.common_eigenvector",
                                 lib.common_eigenvector, a, inst["b"])
        return out

    def check(self, inst, out):
        a = inst["rows"]
        n = len(a)
        dec = out["scc"]
        require(len(dec.components) == 1
                and sorted(dec.components[0]) == list(range(n)),
                "irreducible input split into several components")
        mean, cg = out["mean"], out["critical"]
        nodes = mean.witness.nodes
        checks.check_cycle(a, nodes, mean.weight, mean.length)
        checks.check_edges_within(nodes, cg.edges)
        lam = checks.exact_root(mean.weight, mean.length)
        require((lam is None) == ("x" not in out),
                "eigenvector computed for an irrational mean, or skipped "
                "for a rational one")
        values = [mean.weight]
        if lam is not None:
            x = vector(out["x"])
            checks.check_eigenvector(a, x, lam)
            values += x
        if "common" in out:
            x, lam_a, lam_b = out["common"]
            x = vector(x)
            checks.check_eigenvector(a, x, lam_a)
            checks.check_eigenvector(inst["b_rows"], x, lam_b)
            values += x
        return {
            "spectral.irrational_means": int(lam is None),
            "semiring.max_bits": checks.max_bits(values),
        }


class ExactPowers(Workload):
    """Periodicity scans, CSR factorizations and Nachtigall expansions.

    Almost all time goes to otimes on small dense exact matrices. All
    means are rational, so the symbolic critical-edge path never runs.
    """

    name = "exact_powers"
    pattern = "UUN"
    kinds = {"U": "csr", "N": "nachtigall"}
    size_ranges = {"U": (4, 9), "N": (4, 6)}

    def generate(self, i):
        kind, _j, n, rng = self.slot(i)
        if kind == "U":
            return kind, inputs.unit_lambda_irreducible(rng, n)
        return kind, inputs.two_level_planted(rng, n)

    def build(self, i):
        kind, a = self.generate(i)
        return {"kind": kind, "rows": a, "a": self.lib.MaxMatrix(a)}

    def run(self, inst, call):
        lib = self.lib
        a = inst["a"]
        if inst["kind"] == "U":
            profile = call("asymptotics.transient_and_period",
                           lib.transient_and_period, a)
            triple = call("asymptotics.csr_decompose", lib.csr_decompose, a)
            power = call("asymptotics.csr_power", lib.csr_power,
                         triple, CSR_POWER)
            return {"profile": profile, "triple": triple, "power": power}
        expansion = call("asymptotics.nachtigall_expansion",
                         lib.nachtigall_expansion, a)
        power = call("asymptotics.expansion_power", lib.expansion_power,
                     expansion, EXPANSION_POWER)
        return {"expansion": expansion, "power": power}

    def check(self, inst, out):
        a = inst["rows"]
        if inst["kind"] == "U":
            p = out["profile"]
            require(len(p.powers) == p.period + 1,
                    "periodicity window has the wrong length")
            cycle = checks.check_periodicity(a, p.transient, p.period,
                                             p.powers)
            trip = out["triple"]
            require(1 <= trip.transient <= CSR_POWER
                    and p.transient <= CSR_POWER,
                    f"CSR onset {trip.transient} out of range")
            plain = cycle[(CSR_POWER - p.transient) % p.period]
            require(plain == grid(out["power"]),
                    f"CSR power {CSR_POWER} differs from the plain power")
            return {"semiring.max_bits": checks.max_bits(checks.flat(
                grid(trip.c), grid(trip.s), grid(trip.r)))}
        e = out["expansion"]
        require(e.validity_start is not None,
                "expansion onset was not certified")
        require(e.validity_start <= EXPANSION_POWER,
                f"expansion onset {e.validity_start} beyond the checked power")
        checks.check_power_matches(a, EXPANSION_POWER, out["power"])
        used = e.validity_start + 2 * math.lcm(*(t.gamma for t in e.terms))
        return {
            "asymptotics.nachtigall_horizon": e.horizon,
            "asymptotics.nachtigall_used": used,
            "semiring.max_bits": checks.max_bits(checks.flat(
                *(grid(m) for t in e.terms for m in (t.c, t.s, t.r)))),
        }


class FloatBalance(Workload):
    """Float spectral analysis and max-balancing in both domains.

    Same spectral and matrix layers as exact_spectral, but through the
    float engine; the only heavy user of balancing. One job in three
    runs in max-plus after semiring_convert.
    """

    name = "float_balance"
    pattern = "TTP"
    kinds = {"T": "max-times", "P": "max-plus"}
    size_ranges = {"T": (12, 24), "P": (12, 24)}

    def generate(self, i):
        kind, _j, n, rng = self.slot(i)
        return kind, inputs.random_irreducible_float(rng, n)

    def build(self, i):
        lib = self.lib
        kind, rows = self.generate(i)
        a = lib.MaxMatrix(rows, lib.FLOAT_TIMES)
        if kind == "P":
            a = lib.semiring_convert(a, lib.FLOAT_PLUS)
        return {"kind": kind, "rows": grid(a), "a": a}

    def run(self, inst, call):
        lib = self.lib
        a = inst["a"]
        out = {"mean": call("spectral.max_cycle_gmean",
                            lib.max_cycle_gmean, a)}
        tilde, _mean = call("asymptotics.normalize_to_unit",
                            lib.normalize_to_unit, a)
        out["tilde"] = tilde
        out["star"] = call("matrix.kleene_star", lib.kleene_star, tilde)
        out["x"] = call("spectral.principal_eigenvector",
                        lib.principal_eigenvector, a)
        out["balance"] = call("balancing.max_balance", lib.max_balance, a)
        return out

    def check(self, inst, out):
        a = inst["rows"]
        ar = Arith(exact=False, plus=inst["kind"] == "P")
        mean = out["mean"]
        checks.check_cycle(a, mean.witness.nodes, mean.weight, mean.length, ar)
        lam = ar.root(mean.weight, mean.length)
        tilde = grid(out["tilde"])
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                want = ar.zero if ar.is_zero(v) else ar.div(v, lam)
                require(ar.eq(want, tilde[i][j]),
                        f"normalized entry ({i}, {j}) is wrong")
        checks.check_star(tilde, grid(out["star"]), ar)
        checks.check_eigenvector(a, vector(out["x"]), lam, ar)
        cert = out["balance"]
        require(not cert.exact_degraded, "float input reported a degrade")
        balanced = grid(cert.balanced)
        checks.check_scaled(a, vector(cert.scaling.x), balanced, ar)
        checks.check_cycle_cover(balanced, ar)
        return {"balancing.levels": sum(len(c) for c in cert.levels)}


# ---------------------------------------------------------------------------
# CLI reports


def _tok(tok, ar):
    if tok in (".", "-inf"):
        return ar.zero
    return Fraction(tok) if ar.exact else float(tok)


def _toks(rows, ar):
    return [[_tok(t, ar) for t in row] for row in rows]


def _moduli(rows):
    return [[abs(v) for v in row] for row in rows]


def _reach(rows):
    """reach[i][j]: j reachable from i by a walk of one or more edges."""
    n = len(rows)
    reach = [[rows[i][j] != 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return reach


def _nontrivial_components(rows):
    reach = _reach(rows)
    n = len(rows)
    comps = set()
    for i in range(n):
        if reach[i][i]:
            comps.add(tuple(j for j in range(n) if reach[i][j] and reach[j][i]))
    return sorted(comps)


def _check_negative(doc, a):
    """A negative answer carries a witness cycle of weight above one."""
    res = doc["results"]
    require(res.get("answer") == "negative", "exit 1 without a negative answer")
    w = res["witness"]
    weight = Fraction(w["weight"])
    checks.check_cycle(a, w["nodes"], weight, w["length"])
    require(weight > 1, f"witness weight {weight} is not above one")


def _check_csr_form(tilde, t, c, s, r):
    """tilde^t == C (x) S^t (x) R, exactly."""
    rhs = checks.mat_mul(checks.mat_mul(c, checks.mat_power(s, t)), r)
    require(checks.mat_power(tilde, t) == rhs,
            f"power {t} disagrees with its CSR form")


class CliReports(Workload):
    """In-process CLI runs over MatrixFiles written at set-up.

    The only workload that measures argument parsing, token
    serialization and report building; it also carries the repeated
    spectral analyses each subcommand makes.
    """

    name = "cli_reports"
    commands = ("info", "star", "eigen", "scale-fp", "scale-eig",
                "scale-rowcol", "scale-balance", "powers", "csr",
                "nachtigall", "commute", "hadamard", "threshold")
    pattern = commands
    kinds = {c: c for c in commands}
    size_ranges = {c: (6, 12) for c in commands}
    size_ranges.update(powers=(6, 10), csr=(6, 9), nachtigall=(4, 6),
                       commute=(5, 8))

    def __init__(self, seed, lib, workdir):
        super().__init__(seed, lib, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.validator = lib.Draft7Validator(lib.REPORT_SCHEMA)

    def generate(self, i):
        """(command, [(rows, mode)], expected exit code) for job i."""
        cmd, j, n, rng = self.slot(i)
        negative = j % 3 == 2
        if cmd in ("info", "threshold", "scale-balance"):
            if j % 2:
                return cmd, [(inputs.random_irreducible_float(rng, n),
                              "float")], 0
            return cmd, [(inputs.random_irreducible(rng, n), "exact")], 0
        if cmd in ("star", "scale-fp"):
            lam = (Fraction(rng.randint(5, 9), 4) if negative
                   else Fraction(rng.randint(1, 4), 4))
            rows = inputs.scaled(inputs.unit_lambda_irreducible(rng, n), lam)
            return cmd, [(rows, "exact")], int(negative)
        if cmd in ("eigen", "scale-eig", "powers", "csr"):
            rows = inputs.scaled(inputs.unit_lambda_irreducible(rng, n),
                                 inputs.random_lambda(rng))
            return cmd, [(rows, "exact")], 0
        if cmd == "scale-rowcol":
            return cmd, [(inputs.dominant_diagonal(rng, n), "exact")], 0
        if cmd == "nachtigall":
            return cmd, [(inputs.two_level_planted(rng, n), "exact")], 0
        if cmd == "commute":
            a, b = inputs.polynomial_pair(rng, n)
            return cmd, [(a, "exact"), (b, "exact")], 0
        rows = inputs.signed_moduli(rng, n, passes=not negative)
        return cmd, [(rows, "exact")], int(negative)

    def build(self, i):
        cmd, files, expected = self.generate(i)
        paths = []
        for k, (rows, mode) in enumerate(files):
            path = os.path.join(self.workdir, f"{i:05d}-{cmd}-{k}.mx")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.matrix_file_text(rows, mode))
            paths.append(path)
        argv = cmd.split("-") + paths + ["--json"]
        return {"kind": cmd, "files": files, "argv": argv,
                "expected": expected}

    def run(self, inst, call):
        lib = self.lib
        report, code = call("cli." + inst["kind"], lib.run_command,
                            inst["argv"])
        text = None
        if report is not None:
            text = call("cli.format_report", lib.format_report, report, True)
        return {"code": code, "text": text}

    def check(self, inst, out):
        cmd = inst["kind"]
        require(out["code"] == inst["expected"],
                f"{cmd} exited {out['code']}, expected {inst['expected']}")
        doc = json.loads(out["text"])
        self.validator.validate(doc)
        rows, mode = inst["files"][0]
        ar = Arith(exact=mode == "exact")
        counters = {"cli.negative_answers": int(out["code"] == 1)}
        if out["code"] == 1:
            if cmd == "hadamard":
                m = _moduli(rows)
                quotient = [[Fraction(0) if i == j else v / m[i][i]
                             for j, v in enumerate(row)]
                            for i, row in enumerate(m)]
                _check_negative(doc, quotient)
            else:
                _check_negative(doc, rows)
            return counters
        res = doc["results"]
        getattr(self, "_check_" + cmd.replace("-", "_"))(
            inst, res, rows, ar, counters)
        return counters

    def _check_info(self, inst, res, a, ar, counters):
        require(res["n"] == len(a) and res["irreducible"],
                "info misreports shape or irreducibility")
        lam = res["lambda"]
        if lam["value"] is not None:
            checks.check_mean_value(_tok(lam["value"], ar),
                                    _tok(lam["weight"], ar), lam["length"], ar)

    def _check_star(self, inst, res, a, ar, counters):
        checks.check_star(a, _toks(res["star"], ar), ar)

    def _check_eigen(self, inst, res, a, ar, counters):
        lam = _tok(res["lambda"], ar)
        pair = res["lambda_pair"]
        checks.check_mean_value(lam, _tok(pair["weight"], ar),
                                pair["length"], ar)
        checks.check_eigenvector(a, _toks([res["eigenvector"]], ar)[0], lam)
        w = res["witness_cycle"]
        checks.check_cycle(a, w["nodes"], _tok(w["weight"], ar), w["length"])
        checks.check_edges_within(w["nodes"], res["critical_edges"])

    def _check_scale_fp(self, inst, res, a, ar, counters):
        x = _toks([res["x"]], ar)[0]
        b = _toks(res["scaled"], ar)
        checks.check_scaled(a, x, b)
        require(all(v <= 1 for row in b for v in row),
                "fp scaling leaves an entry above one")

    def _check_scale_eig(self, inst, res, a, ar, counters):
        lam = _tok(res["lambda"], ar)
        x = _toks([res["eigenvector"]], ar)[0]
        checks.check_eigenvector(a, x, lam)
        tilde = [[v / lam for v in row] for row in a]
        b = _toks(res["visualized"], ar)
        checks.check_scaled(tilde, x, b)
        require(all(v <= 1 for row in b for v in row),
                "visualized matrix has an entry above one")
        for i, j in res["saturation_edges"]:
            require(b[i][j] == 1, f"saturation edge ({i}, {j}) is not one")

    def _check_scale_rowcol(self, inst, res, a, ar, counters):
        x = _toks([res["x"]], ar)[0]
        b = _toks(res["scaled"], ar)
        checks.check_scaled(a, x, b)
        for i in range(len(b)):
            require(b[i][i] == max(b[i]) == max(r[i] for r in b),
                    f"diagonal entry {i} is not its row and column maximum")

    def _check_scale_balance(self, inst, res, a, ar, counters):
        degraded = res["exact_degraded"]
        counters["balancing.exact_degraded"] = int(degraded)
        if degraded:
            ar = Arith(exact=False)
            a = [[float(v) for v in row] for row in a]
        x = _toks([res["x"]], ar)[0]
        b = _toks(res["balanced"], ar)
        checks.check_scaled(a, x, b, ar)
        checks.check_cycle_cover(b, ar)

    def _check_powers(self, inst, res, a, ar, counters):
        pair = res["lambda_pair"]
        lam = _tok(pair["value"], ar)
        checks.check_mean_value(lam, _tok(pair["weight"], ar),
                                pair["length"])
        tilde = [[v / lam for v in row] for row in a]
        checks.check_periodicity(tilde, res["transient"], res["period"],
                                 [_toks(res["first_repeating_power"], ar)])

    def _check_csr(self, inst, res, a, ar, counters):
        lam = _tok(res["lambda"], ar)
        tilde = [[v / lam for v in row] for row in a]
        c, s, r = (_toks(res[k], ar) for k in "csr")
        for t in (res["transient"], res["certified_from"] + res["gamma"]):
            _check_csr_form(tilde, t, c, s, r)

    def _check_nachtigall(self, inst, res, a, ar, counters):
        v = res["validity_start"]
        require(v is not None, "expansion onset was not certified")
        for t in (v, v + 1):
            rhs = [[Fraction(0)] * len(a) for _ in a]
            for term in res["terms"]:
                c, s, r = (_toks(term[k], ar) for k in "csr")
                coef = _tok(term["coefficient"], ar)
                prod = checks.mat_mul(
                    checks.mat_mul(c, checks.mat_power(s, t)), r)
                rhs = [[max(x, coef ** t * y) for x, y in zip(rr, pr)]
                       for rr, pr in zip(rhs, prod)]
            require(checks.mat_power(a, t) == rhs,
                    f"expansion disagrees with power {t}")

    def _check_commute(self, inst, res, a, ar, counters):
        b = inst["files"][1][0]
        x = _toks([res["x"]], ar)[0]
        for m, lam, key in ((a, res["lam_a"], "a"), (b, res["lam_b"], "b")):
            lam = _tok(lam, ar)
            checks.check_eigenvector(m, x, lam)
            edges = res["saturation_edges_" + key]
            for i, j in edges:
                require(m[i][j] * x[j] == lam * x[i],
                        f"saturation edge ({i}, {j}) is not saturated")
            nodes = res["cycle_in_" + key]["nodes"]
            require(nodes[0] == nodes[-1], "commuting witness is not closed")
            checks.check_edges_within(nodes, edges)

    def _check_hadamard(self, inst, res, a, ar, counters):
        m = _moduli(a)
        d = _toks([res["diagonal"]], ar)[0]
        require(all(v > 0 for v in d), "moduli scaling is not positive")
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                require(i == j or v * d[j] / d[i] <= m[i][i],
                        f"scaled modulus ({i}, {j}) exceeds its diagonal")

    def _check_threshold(self, inst, res, a, ar, counters):
        levels = res["levels"]
        thetas = [_tok(lv["theta"], ar) for lv in levels]
        entries = {v for row in a for v in row if v != 0}
        require(all(t in entries for t in thetas),
                "threshold level is not a matrix entry")
        require(all(x > y for x, y in zip(thetas, thetas[1:])),
                "threshold levels do not decrease")
        for theta, lv in zip(thetas, levels):
            kept = [[v if v >= theta else 0 for v in row] for row in a]
            want = _nontrivial_components(kept)
            got = sorted(tuple(c) for c in lv["components"])
            require(got == want, f"components at threshold {theta} differ")


WORKLOADS = {w.name: w for w in (ExactSpectral, ExactPowers, FloatBalance,
                                  CliReports)}
