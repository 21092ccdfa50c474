"""Module boundaries: no library module reaches into a sibling's privates."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "maxalg"


def test_no_private_names_imported_between_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("maxalg"):
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    assert offenders == []


def test_only_the_product_core_touches_the_lifted_form():
    # a MaxMatrix's _row_lifts and _cols slots hold the exact product
    # core's integer forms; no other module reads or writes them, by
    # attribute or by name. No matrix holds a _reduced form any more; the
    # name stays in the set so that no other module brings one back
    private = {"_reduced", "_row_lifts", "_cols"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert offenders == []


def test_only_the_pattern_owners_touch_the_pattern_slot():
    # digraph.nonzero_pattern fills and reads a MaxMatrix's _pattern slot,
    # and matrix.py names it only to declare it in MaxMatrix's __slots__.
    # The pattern's type _Pattern, its Tarjan pass _decompose and the slot
    # of its float table, _logs, belong to digraph. Every other module
    # asks nonzero_pattern and the pattern's facts by their public names
    private = {"_pattern", "_Pattern", "_logs", "_decompose"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "digraph.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        slots = set()
        if path.name == "matrix.py":
            slots = {
                id(const)
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "MaxMatrix"
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets] == ["__slots__"]
                for const in stmt.value.elts
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in private:
                offenders.append(f"{path.name}:{node.lineno} {node.id}")
            elif (isinstance(node, ast.Constant) and node.value in private
                  and id(node) not in slots):
                offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert offenders == []


def test_only_raw_is_named_of_the_matrix_privates():
    # outside matrix.py, the one private member of MaxMatrix or MaxVector
    # that any module names is the trusted constructor _raw
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_") and node.attr != "_raw"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("MaxMatrix", "MaxVector")):
                offenders.append(
                    f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                )
    assert offenders == []


def test_only_kleene_star_closes():
    # one closure routine: matrix.py's closure_rows, which kleene_star
    # runs; every other module closes through kleene_star and names
    # closure_rows nowhere, by import, name or attribute
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "closure_rows" in names:
                offenders.append(f"{path.name}:{node.lineno} closure_rows")
    assert offenders == []


def test_only_spectral_touches_the_analysis_fields():
    # a SpectralAnalysis keeps its matrix, its certificate (_cert, with
    # the potentials), its kit of a / lam, tilde and the star in private
    # fields; no other module reads or writes them, by attribute or by
    # name, so every normalized value is read through the analysis and its
    # kit. The certificate's potentials were the field _potentials, which
    # stays in the set so that no module brings it back
    private = {"_matrix", "_cert", "_potentials", "_kit", "_tilde", "_star"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert offenders == []


# the public names, submodules included: a name that leaves or arrives
# changes this list on purpose
PUBLIC_NAMES = [
    "AcyclicMatrixError",
    "AcyclicNodeError",
    "BalancingCertificate",
    "BooleanDigraphPair",
    "CertificationError",
    "CommonEigenvector",
    "CriticalGraph",
    "CsrTerm",
    "CsrTriple",
    "CycleMean",
    "DiagonalScaling",
    "Digraph",
    "DimensionError",
    "DivergenceError",
    "EXACT_PLUS",
    "EXACT_TIMES",
    "ExactnessError",
    "Expansion",
    "FLOAT_PLUS",
    "FLOAT_TIMES",
    "HadamardFailsError",
    "InapplicableError",
    "IterationBudgetError",
    "MaxAlgebraError",
    "MaxMatrix",
    "MaxVector",
    "ModeError",
    "NEG_INF",
    "NegativeAnswer",
    "NoConstraintError",
    "NoScalingError",
    "NotAnFpScalingError",
    "NotCommutingError",
    "NotIrreducibleError",
    "PLUS",
    "ParseError",
    "Path",
    "PatternViolationError",
    "PeriodicityProfile",
    "SaturationGraph",
    "ScalingFamily",
    "SccDecomposition",
    "Semiring",
    "SizeLimitError",
    "SpectralAnalysis",
    "TIMES",
    "TransientBound",
    "UndefinedDivisionError",
    "WitnessNotFoundError",
    "ZeroDiagonalError",
    "apply_scaling",
    "as_scaling",
    "asymptotics",
    "balancing",
    "boolean_saturation_pair",
    "common_eigenvector",
    "commutes",
    "commuting",
    "commuting_cycle_witness",
    "critical_graph",
    "critical_matrix",
    "csr_decompose",
    "csr_power",
    "digraph",
    "digraph_of",
    "eigenspace_basis",
    "entrywise_div",
    "enumerate_cycles",
    "errors",
    "expansion_power",
    "fp_scaling",
    "gmean_cmp",
    "gmean_cmp_one",
    "gmean_eq",
    "gmean_float",
    "gmean_value",
    "graph_cyclicity",
    "hadamard_scaling_test",
    "has_rowcol_maxima_diagonal",
    "is_eigenvector",
    "is_fp_scaling",
    "is_irreducible",
    "is_max_balanced_cut",
    "is_max_balanced_cyclecover",
    "is_strongly_connected",
    "kleene_star",
    "left_residual",
    "mat_power",
    "matrix",
    "max_balance",
    "max_cycle_gmean",
    "nachtigall_expansion",
    "normalize_to_unit",
    "oplus",
    "otimes",
    "principal_eigenvector",
    "row_col_maxima_scalings",
    "sandwich_scalings",
    "satisfies_sandwich",
    "saturation_graph",
    "scaling",
    "scc",
    "semiring",
    "semiring_convert",
    "spectral",
    "spectral_analysis",
    "strong_fp_scaling",
    "strong_path_table",
    "strong_path_weight",
    "threshold_digraph",
    "threshold_spectrum",
    "transient_and_period",
    "transient_bound",
]


def test_public_names_are_pinned():
    import maxalg

    assert sorted(maxalg.__all__) == PUBLIC_NAMES
