"""Commuting matrices: common eigenvectors and saturation digraphs.

Two commuting irreducible matrices share a positive eigenvector. The
construction here is explicit: the eigenvector cone of the first matrix,
spanned by the critical columns of its star, is carried into itself by
the second matrix; the action on cone coordinates is a small positive
matrix whose own principal eigenvector lifts to the common one. Scaling
both matrices by that vector and keeping only the entries scaled exactly
to one gives a pair of Boolean digraphs that still commute, and each
contains a cycle running inside the strongly connected territory of the
other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, component_cycle, nonzero_pattern, scc
from .errors import (
    CertificationError,
    DimensionError,
    ModeError,
    NotCommutingError,
    NotIrreducibleError,
    PatternViolationError,
    WitnessNotFoundError,
)
from .matrix import (
    MaxMatrix,
    MaxVector,
    left_residual,
    otimes,
    semiring_convert,
)
from .scaling import saturation_graph
from .semiring import Semiring
from .spectral import is_eigenvector, is_irreducible, spectral_analysis


def commutes(a, b):
    """Do a and b satisfy a (x) b == b (x) a (mode equality)?"""
    if a.shape != b.shape:
        raise DimensionError("matrices must share a shape to commute")
    if a.semiring != b.semiring:
        raise ModeError("matrices must share a semiring to commute")
    return otimes(a, b).allclose(otimes(b, a))


@dataclass(frozen=True)
class CommonEigenvector:
    """A positive vector x with A (x) x = lam_a x and B (x) x = lam_b x."""

    x: MaxVector
    lam_a: object
    lam_b: object

    def __iter__(self):
        return iter((self.x, self.lam_a, self.lam_b))


def _irreducible_analyses(a, b):
    """The analyses of a and b, each checked irreducible in turn."""
    an_a = spectral_analysis(a)
    if not an_a.is_irreducible:
        raise NotIrreducibleError("the first matrix is not irreducible")
    an_b = spectral_analysis(b)
    if not an_b.is_irreducible:
        raise NotIrreducibleError("the second matrix is not irreducible")
    return an_a, an_b


def _common_core(a, b, an_a, an_b):
    # eigenspace_basis makes a's refusals of normalized(), before b's
    basis = an_a.eigenspace_basis()
    tb = an_b.normalized()
    lam_a, lam_b = an_a.lam, an_b.lam
    v = MaxMatrix._raw(
        [[col[i] for col in basis] for i in range(a.n)], a.semiring
    )
    w = otimes(tb, v)
    k = left_residual(v, w)
    if not otimes(v, k).allclose(w):
        raise CertificationError(
            "the eigenvector cone of the first matrix is not carried "
            "into itself by the second"
        )
    # the star column of k's smallest critical node is an eigenvector of
    # k, read off one best-walk run (the closure's, when k is reducible)
    an_k = spectral_analysis(k)
    col = an_k.star_columns((an_k.critical.nodes[0],))
    x = otimes(v, MaxVector._raw(col, k.semiring))
    if not x.is_positive():
        raise CertificationError("lifted common eigenvector is not positive")
    if not is_eigenvector(a, x, lam_a):
        raise CertificationError(
            "candidate vector fails the first eigen-equation"
        )
    if not is_eigenvector(b, x, lam_b):
        raise CertificationError(
            "candidate vector fails the second eigen-equation"
        )
    return CommonEigenvector(x=x, lam_a=lam_a, lam_b=lam_b)


def _is_unit_matrix(m):
    """m.allclose of the identity, read off m's nonzero pattern.

    Under the mode's equality each diagonal entry must equal one, which a
    missing one (the zero) does not, and each other entry the zero.
    """
    sr = m.semiring
    one, zero, eq = sr.one, sr.zero, sr.eq
    for i, out in enumerate(nonzero_pattern(m)):
        diagonal = False
        for j, v in out:
            if not eq(v, one if j == i else zero):
                return False
            diagonal = diagonal or j == i
        if not diagonal:
            return False
    return True


def common_eigenvector(a, b):
    """A positive common eigenvector of commuting irreducible a and b.

    Returns (x, lam_a, lam_b), both eigen-equations verified before
    return. The semiring unit matrix is accepted on either side even
    though it is reducible: every positive vector suits it, so the
    other matrix's principal eigenvector is returned. Float runs that
    fail their verification restart in exact arithmetic and return the
    exact result.
    """
    return _common_eigenvector(a, b)[0]


def _common_eigenvector(a, b):
    """common_eigenvector's result and the analyses of a and b it built.

    An analysis is None where none of that very matrix was built: for a
    unit matrix, and after the restart in exact arithmetic.
    """
    if not commutes(a, b):
        raise NotCommutingError("the matrices do not commute")
    sr = a.semiring
    unit_a = _is_unit_matrix(a)
    unit_b = _is_unit_matrix(b)
    if unit_a and unit_b:
        ce = CommonEigenvector(
            x=MaxVector.ones(a.n, sr), lam_a=sr.one, lam_b=sr.one
        )
        return ce, None, None
    if unit_a or unit_b:
        other = b if unit_a else a
        if not is_irreducible(other):
            raise NotIrreducibleError(
                "the non-unit matrix of the pair is not irreducible"
            )
        an = spectral_analysis(other)
        x = an.principal_eigenvector()
        lam = an.lam
        if not is_eigenvector(other, x, lam):
            raise CertificationError(
                "candidate vector fails its eigen-equation"
            )
        if unit_a:
            return CommonEigenvector(x=x, lam_a=sr.one, lam_b=lam), None, an
        return CommonEigenvector(x=x, lam_a=lam, lam_b=sr.one), an, None
    try:
        an_a, an_b = _irreducible_analyses(a, b)
        return _common_core(a, b, an_a, an_b), an_a, an_b
    except CertificationError:
        if sr.exact:
            raise
        target = Semiring(sr.domain, exact=True)
        ea, eb = semiring_convert(a, target), semiring_convert(b, target)
        ce = _common_core(ea, eb, *_irreducible_analyses(ea, eb))
        return ce, None, None


@dataclass(frozen=True)
class BooleanDigraphPair:
    """Two digraphs with unit weights on a shared node set.

    verified_commuting records that the Boolean matrix products of the
    two graphs were checked equal in both orders.
    """

    g1: Digraph
    g2: Digraph
    verified_commuting: bool = False

    def __post_init__(self):
        if self.g1.n != self.g2.n:
            raise DimensionError("paired digraphs must share node count")

    def boolean_matrices(self):
        return _bool_matrix(self.g1), _bool_matrix(self.g2)


def _bool_matrix(g):
    sr = g.semiring
    rows = [[sr.zero] * g.n for _ in range(g.n)]
    for i, j, _w in g.edges:
        rows[i][j] = sr.one
    return MaxMatrix._raw(rows, sr)


def boolean_saturation_pair(a, b, x):
    """Boolean graphs of the entries x scales exactly to one, as a pair.

    Both matrices are first divided by their top cycle geometric mean;
    the common eigenvector x then scales every entry to at most one, and
    the saturated entries form the two digraphs. Their Boolean matrices
    are checked to commute before the pair is tagged.
    """
    sr = a.semiring
    if not isinstance(x, MaxVector):
        x = MaxVector(x, sr)
    ta = spectral_analysis(a).normalized()
    tb = spectral_analysis(b).normalized()
    return _saturation_pair(ta, tb, x)


def common_saturation_pair(a, b):
    """common_eigenvector(a, b) and the boolean_saturation_pair of its x.

    The analyses that common_eigenvector builds for a and b are reused
    for the saturation graphs instead of being built again.
    """
    ce, an_a, an_b = _common_eigenvector(a, b)
    ta = (an_a if an_a is not None else spectral_analysis(a)).normalized()
    tb = (an_b if an_b is not None else spectral_analysis(b)).normalized()
    return ce, _saturation_pair(ta, tb, ce.x)


def _saturation_pair(ta, tb, x):
    sat_a = saturation_graph(ta, x)
    sat_b = saturation_graph(tb, x)
    if not commutes(_bool_matrix(sat_a.graph), _bool_matrix(sat_b.graph)):
        raise NotCommutingError(
            "the Boolean saturation matrices do not commute; x is not a "
            "common eigenvector of a commuting pair"
        )
    return BooleanDigraphPair(
        g1=sat_a.graph, g2=sat_b.graph, verified_commuting=True
    )


def _cycle_within(g, allowed, label):
    sub = g.subgraph(
        (i, j) for i, j, _w in g.edges if i in allowed and j in allowed
    )
    components = scc(sub).nontrivial_components
    if not components:
        raise WitnessNotFoundError(
            f"no cycle of {label} stays inside the strongly connected "
            "territory of the other graph; a precondition must be violated"
        )
    return component_cycle(sub, components[0])


def commuting_cycle_witness(pair):
    """Cycles of each graph inside the other's nontrivial components.

    Requires every node of both graphs to have an outgoing edge and the
    pair to commute; then each graph owns a cycle whose nodes all belong
    to nontrivial strongly connected components of the other. Absence of
    such a cycle raises WitnessNotFoundError and signals a violated
    precondition.
    """
    g1, g2 = pair.g1, pair.g2
    for label, g in (("the first graph", g1), ("the second graph", g2)):
        for v in range(g.n):
            if not g.successors(v):
                raise PatternViolationError(
                    f"node {v} of {label} has no outgoing edge"
                )
    if not pair.verified_commuting and not commutes(
        _bool_matrix(g1), _bool_matrix(g2)
    ):
        raise NotCommutingError("the paired digraphs do not commute")
    n2 = set(scc(g2).nontrivial_nodes())
    n1 = set(scc(g1).nontrivial_nodes())
    cycle1 = _cycle_within(g1, n2, "the first graph")
    cycle2 = _cycle_within(g2, n1, "the second graph")
    return cycle1, cycle2
