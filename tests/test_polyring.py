"""Graded trivariate polynomial layer, checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from flatunitary.exactcore import RATFUN, RATIONAL, Jet, JetDomain, RatFun
from flatunitary.family import _CANDIDATES, parse_family, specialize
from flatunitary.polyring import (
    HomPoly,
    graded_basis,
    monomial_count,
    monomial_sort_key,
    poly_mul,
    poly_partial,
)
from oracles import Y0, Y1, Y2, sym_trivariate

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def hompoly_st(degree):
    basis = graded_basis(degree)
    return st.lists(fractions_st, min_size=len(basis), max_size=len(basis)).map(
        lambda cs: HomPoly(degree, dict(zip(basis, cs)))
    )


class TestGradedBasis:
    def test_degree_one_order(self):
        assert graded_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_degree_two_order(self):
        assert graded_basis(2) == (
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        )

    @pytest.mark.parametrize("k", range(0, 12))
    def test_count_is_binomial(self, k):
        assert monomial_count(k) == (k + 1) * (k + 2) // 2
        assert len(graded_basis(k)) == monomial_count(k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_sort_key_realizes_listing_order(self, k):
        basis = graded_basis(k)
        assert sorted(basis, key=monomial_sort_key) == list(basis)

    def test_negative_degree_is_empty(self):
        assert graded_basis(-1) == ()
        assert monomial_count(-2) == 0


class TestHomPoly:
    def test_degree_consistency_enforced(self):
        with pytest.raises(ValueError):
            HomPoly(3, {(1, 1, 0): Fraction(1)})

    def test_vector_round_trip(self):
        p = HomPoly(2, {(2, 0, 0): Fraction(3), (0, 1, 1): Fraction(-1, 2)})
        assert HomPoly.from_vector(2, p.to_vector()) == p

    @settings(max_examples=40, deadline=None)
    @given(hompoly_st(2), hompoly_st(2))
    def test_addition_matches_sympy(self, p, q):
        got = sym_trivariate(p + q)
        assert sympy.expand(got - sym_trivariate(p) - sym_trivariate(q)) == 0

    @settings(max_examples=40, deadline=None)
    @given(hompoly_st(2), hompoly_st(3))
    def test_product_matches_sympy(self, p, q):
        prod = poly_mul(p, q)
        assert prod.degree == 5
        want = sympy.expand(sym_trivariate(p) * sym_trivariate(q))
        assert sympy.expand(sym_trivariate(prod) - want) == 0

    @settings(max_examples=40, deadline=None)
    @given(hompoly_st(4), st.integers(min_value=0, max_value=2))
    def test_partial_matches_sympy(self, p, i):
        got = sym_trivariate(poly_partial(p, i))
        want = sympy.diff(sym_trivariate(p), (Y0, Y1, Y2)[i])
        assert sympy.expand(got - want) == 0

    def test_partial_drops_degree(self):
        p = HomPoly(4, {(4, 0, 0): Fraction(1)})
        dp = poly_partial(p, 0)
        assert dp.degree == 3
        assert dp == HomPoly(3, {(3, 0, 0): Fraction(4)})
        assert poly_partial(p, 2).is_zero

    def test_scale_and_zero(self):
        p = HomPoly(1, {(1, 0, 0): Fraction(2)})
        assert p.scale(Fraction(1, 2)) == HomPoly(1, {(1, 0, 0): Fraction(1)})
        assert (p - p).is_zero
        assert HomPoly.zero(5).is_zero


# coefficient makers over Q, Q(t) and jets of precision 3, from three
# Fractions each; some pairs of drawn terms cancel
_DOMAINS = {
    "Q": (RATIONAL, lambda a, b, c: a),
    "Q(t)": (RATFUN, lambda a, b, c: RatFun.from_poly((a, b)) / RatFun.from_poly((1, c))),
    "jet": (JetDomain(3), lambda a, b, c: Jet((a, b, c))),
}
small_st = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3)])


@st.composite
def domain_poly_st(draw, domain, degree):
    """A degree-`degree` polynomial over one of _DOMAINS, zero terms included."""
    dom, make = _DOMAINS[domain]
    terms = draw(
        st.dictionaries(
            st.sampled_from(graded_basis(degree)),
            st.tuples(small_st, small_st, small_st).map(lambda abc: make(*abc)),
            max_size=5,
        )
    )
    return HomPoly(degree, terms, domain=dom)


def _same_as_validated(got, degree, raw, domain):
    """got equals HomPoly(degree, raw, domain=domain), coefficient types too."""
    want = HomPoly(degree, raw, domain=domain)
    assert (got.degree, got.domain, got.terms) == (want.degree, want.domain, want.terms)
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in want.terms.items()
    }


class TestTrustedBuilder:
    """poly_mul, + and - build their results without re-validating the
    terms; they must agree with the validating constructor."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(sorted(_DOMAINS)))
    def test_arithmetic_matches_the_validating_constructor(self, data, domain):
        dom = _DOMAINS[domain][0]
        p = data.draw(domain_poly_st(domain, 2))
        q = data.draw(domain_poly_st(domain, 2))
        r = data.draw(domain_poly_st(domain, 1))
        raw_sum = dict(p.terms)
        for e, c in q.terms.items():
            raw_sum[e] = raw_sum[e] + c if e in raw_sum else c
        _same_as_validated(p + q, 2, raw_sum, dom)
        _same_as_validated(-p, 2, {e: -c for e, c in p.terms.items()}, dom)
        raw_product = {}
        for ep, cp in p.terms.items():
            for er, cr in r.terms.items():
                e = tuple(a + b for a, b in zip(ep, er))
                raw_product[e] = raw_product[e] + cp * cr if e in raw_product else cp * cr
        _same_as_validated(poly_mul(p, r), 3, raw_product, dom)
        assert (p + (-p)).terms == {}
        assert (p - p).terms == {}

    def test_specialize_copies_constant_coefficients_as_fractions(self):
        # the cusp.validate fixture's family: T-free, one fibre at all 301 candidates
        cusp = parse_family("Y1^2*Y2 - Y0^3")
        fibres = {specialize(cusp, t0) for t0 in _CANDIDATES}
        assert len(_CANDIDATES) == 301 and len(fibres) == 1
        (fibre,) = fibres
        assert fibre == HomPoly(3, {(0, 2, 1): 1, (3, 0, 0): -1})
        assert all(type(c) is Fraction for c in fibre.terms.values())
