"""Record what max_balance and spectral_analysis give on a fixed corpus,
to compare two checkouts.

    python3 tools/outcomes_digest.py [--root DIR] [--limit K] --save F
    python3 tools/outcomes_digest.py --compare F1 F2

The first form imports maxalg from the checkout at ``--root`` (by
default the one holding this file) and builds the corpus with the test
generators of the checkout holding this file, so two checkouts are run
on the same inputs. It runs every input of every corpus below (the
first ``--limit`` of each, when given) through ``max_balance`` and
``spectral_analysis`` and keeps, per input, the repr of the outcome:

- ``max_balance``: the BalancingCertificate (scaling, balanced rows,
  checked properties, degraded flag, levels);
- ``spectral_analysis``: the analysis (mean pair and witness, lam, SCCs,
  critical graph) and its eigenspace basis;

or, where a call raises, the type and message of its exception. It
prints one ``NAME sha256`` line per corpus and call, as
tools/outputs_digest.py does, and ``--save`` writes the reprs as JSON in
that tool's format, so that ``--compare`` is its float-aware compare:
per corpus, the outcomes that are identical, differ in float literals
only, or differ otherwise, and exit code 1 when any differs otherwise.

The corpora, 2,747 inputs in all:

- ``star_exact``, ``star_exact_plus``, ``star_float``: the exact, exact
  max-plus and float corpora of tests/test_star_columns.py;
- ``star_tol0``: its 150 decimal-tie inputs per domain at tolerance 0,
  and its exact corpus at tolerance 0 in both domains;
- ``criteria_exact``, ``criteria_float``, ``criteria_float_plus``,
  ``criteria_exact_plus``: helpers.criteria_corpus() as exact max-times,
  float max-times, float max-plus, and its Fraction entries as exact
  max-plus weights (zero becomes -inf);
- ``perfbench_exact``: 200 loopless perfbench ``random_irreducible``
  inputs, n 6-12, ``random.Random(11)``;
- ``perfbench_float``: 100 ``random_irreducible_float`` inputs, n 12-24,
  ``random.Random(13)``;
- ``interleaved``: 60 block matrices whose components interleave
  (tests/test_balancing.py), ``random.Random(3011)``, in exact
  max-times, float max-times and float max-plus.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import outputs_digest  # noqa: E402  (tools/ itself is on the path)


def corpora():
    """(name, iterable of matrices) per corpus, in order."""
    import inputs
    import test_balancing
    import test_star_columns as star
    from helpers import criteria_corpus, fmat
    from maxalg import (
        EXACT_PLUS,
        FLOAT_PLUS,
        FLOAT_TIMES,
        NEG_INF,
        MaxMatrix,
        semiring_convert,
    )

    def tol0():
        for sr in (star.TIGHT_TIMES, star.TIGHT_PLUS):
            rng = random.Random(2017)
            for _ in range(150):
                yield star.decimal_ties(rng, sr)
            for a in star.exact_corpus():
                yield semiring_convert(a, sr)

    def exact_plus(corpus):
        for a in corpus:
            yield MaxMatrix([[v if v else NEG_INF for v in row]
                             for row in a.rows], EXACT_PLUS)

    def perfbench(seed, count, build):
        rng = random.Random(seed)
        for _ in range(count):
            yield build(rng)

    def interleaved():
        rng = random.Random(3011)
        for _ in range(60):
            sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 3))]
            a, _comps = test_balancing._interleaved_blocks(rng, sizes + [1])
            yield a
            yield semiring_convert(a, FLOAT_TIMES)
            yield semiring_convert(a, FLOAT_PLUS)

    return [
        ("star_exact", star.exact_corpus()),
        ("star_exact_plus", star.exact_plus_corpus()),
        ("star_float", star.float_corpus()),
        ("star_tol0", tol0()),
        ("criteria_exact", criteria_corpus()),
        ("criteria_float", (semiring_convert(a, FLOAT_TIMES)
                            for a in criteria_corpus())),
        ("criteria_float_plus", (semiring_convert(a, FLOAT_PLUS)
                                 for a in criteria_corpus())),
        ("criteria_exact_plus", exact_plus(criteria_corpus())),
        ("perfbench_exact", perfbench(11, 200, lambda rng: fmat(
            inputs.random_irreducible(rng, rng.randint(6, 12), loops=False)
        ))),
        ("perfbench_float", perfbench(13, 100, lambda rng: MaxMatrix(
            inputs.random_irreducible_float(rng, rng.randint(12, 24)),
            FLOAT_TIMES,
        ))),
        ("interleaved", interleaved()),
    ]


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as err:  # the type and message are the outcome
        return f"raise {type(err).__name__}: {err}"


def analysis_outcome(a):
    from maxalg import spectral_analysis

    try:
        an = spectral_analysis(a)
    except Exception as err:  # the type and message are the outcome
        return f"raise {type(err).__name__}: {err}"
    return f"{an!r} basis {outcome(an.eigenspace_basis)}"


def outcomes(root, limit):
    """{"CALL:CORPUS": [[exact, repr of the outcome] per input]} for the
    checkout at root."""
    tree = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(tree, "tests"),
                    os.path.join(tree, "perfbench")]
    from maxalg import max_balance

    runs = {}
    for name, corpus in corpora():
        balanced, analysed = [], []
        for a in itertools.islice(corpus, limit):
            exact = a.semiring.exact
            balanced.append([exact, outcome(max_balance, a)])
            analysed.append([exact, analysis_outcome(a)])
        runs[f"max_balance:{name}"] = balanced
        runs[f"spectral_analysis:{name}"] = analysed
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ to run")
    parser.add_argument("--limit", type=int,
                        help="run only the first LIMIT inputs of a corpus")
    parser.add_argument("--save", help="write the reprs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="SAVED",
                        help="compare two files written by --save")
    args = parser.parse_args(argv)
    if args.compare:
        return outputs_digest.compare(*args.compare)
    runs = outcomes(os.path.abspath(args.root), args.limit)
    for label, sha in outputs_digest.digests(runs):
        print(f"{label} {sha}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
