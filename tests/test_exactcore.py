"""Exact scalar domains and the pinned-pivot linear algebra kernel."""

import copy
import functools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import event, given, settings, strategies as st

import flatunitary._univar as up
from flatunitary._kernels import ff_gauss_jordan_int, ff_gauss_jordan_ring
from flatunitary.exactcore import (
    RATFUN,
    RATIONAL,
    DomainMismatchError,
    Jet,
    JetSystemSolver,
    LinearSolver,
    Matrix,
    PrecisionExhaustedError,
    RatFun,
    full_column_rank_certificate,
    full_column_rank_int,
    kernel_basis,
    rref,
    rref_rows,
    _CERT_PRIME,
    _ring,
)
from flatunitary.jacobian import JacobianFiber
from flatunitary.polyring import HomPoly, graded_basis, monomial_count
from oracles import (
    QT,
    _frac_pair,
    _frac_ratfun,
    naive_canonical_kernel,
    naive_ff_gauss_jordan,
    naive_jet_solve,
    naive_ratfun_rref,
    naive_ratfun_solve,
    naive_rref,
    naive_solve,
    qpoly_divexact,
    qpoly_mul,
    qpoly_sub,
)

t = sympy.Symbol("t")

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def poly_st(max_deg, allow_zero=True):
    return st.lists(fractions_st, min_size=0 if allow_zero else 1, max_size=max_deg + 1)


def _sym_poly(coeffs):
    return sum(sympy.Rational(c) * t**k for k, c in enumerate(coeffs))


def _ratfun_to_sym(r):
    return _sym_poly(r.num) / _sym_poly(r.den)


def _zz_poly(coeffs):
    return sympy.Poly([int(c) for c in reversed(coeffs)] or [0], t, domain=sympy.ZZ)


@st.composite
def scaled_ratfun_st(draw):
    """A RatFun from a numerator and a denominator each multiplied by a
    nonzero integer, negative ones included, with its value in QQ(t)."""
    num = draw(poly_st(3))
    den = draw(poly_st(2, allow_zero=False).filter(any))
    k, m = draw(st.integers(-60, 60).filter(bool)), draw(st.integers(-60, 60).filter(bool))
    num, den = tuple(k * c for c in num), tuple(m * c for c in den)
    return RatFun(num, den), _frac_ratfun((num, den))


# each operation on RatFuns a and b, and on their values in QQ(t)
RATFUN_OPS = {
    "+": (operator.add, operator.add),
    "-": (operator.sub, operator.sub),
    "*": (operator.mul, operator.mul),
    "/": (operator.truediv, operator.truediv),
    "d/dt": (lambda a, b: a.derivative(), lambda a, b: a.diff(QT.field.gens[0])),
}


# ---------------------------------------------------------------------------
# rational functions in t


class TestRatFun:
    def test_denominator_is_monic_and_coprime(self):
        r = RatFun((0, 2), (8, 0, -2))  # 2t / (8 - 2t^2)
        assert r.den[-1] == 1
        # gcd(num, den) = 1: multiplying both by (t - 3) must cancel back
        h = (-3, 1)
        assert RatFun(qpoly_mul(r.num, h), qpoly_mul(r.den, h)) == r

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(up.ONE, up.ZERO)
        with pytest.raises(ZeroDivisionError):
            RatFun(up.ONE) / RatFun(up.ZERO)

    @pytest.mark.parametrize("bad", [0.5, "1/2"])
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            RatFun((bad,))
        with pytest.raises(TypeError):
            RatFun((1,), (1, bad))
        with pytest.raises(TypeError):
            RatFun.from_fraction(bad)

    @settings(max_examples=60, deadline=None)
    @given(poly_st(3), poly_st(2, allow_zero=False), poly_st(3), poly_st(2, allow_zero=False))
    def test_field_ops_match_sympy(self, n1, d1, n2, d2):
        if not any(d1) or not any(d2):
            return
        a = RatFun(tuple(n1), tuple(d1))
        b = RatFun(tuple(n2), tuple(d2))
        for result, expected in [
            (a + b, _ratfun_to_sym(a) + _ratfun_to_sym(b)),
            (a - b, _ratfun_to_sym(a) - _ratfun_to_sym(b)),
            (a * b, _ratfun_to_sym(a) * _ratfun_to_sym(b)),
        ]:
            assert sympy.simplify(_ratfun_to_sym(result) - expected) == 0

    @settings(max_examples=30, deadline=None)
    @given(poly_st(3), poly_st(2, allow_zero=False))
    def test_derivative_matches_sympy(self, num, den):
        if not any(den):
            return
        r = RatFun(tuple(num), tuple(den))
        got = _ratfun_to_sym(r.derivative())
        want = sympy.diff(_ratfun_to_sym(r), t)
        assert sympy.simplify(got - want) == 0

    def test_evaluation(self):
        r = RatFun((0, 1), (4, 0, -1))  # t / (4 - t^2)
        assert r.evaluate(Fraction(1)) == Fraction(1, 3)
        assert r.evaluate(Fraction(-3)) == Fraction(3, 5)
        with pytest.raises(ZeroDivisionError):
            r.evaluate(Fraction(2))

    def test_constants_hash_as_their_fractions(self):
        for q in (Fraction(3), Fraction(-2, 7), Fraction(0)):
            r = RatFun.from_fraction(q)
            assert r == q and hash(r) == hash(q)
            assert len({r, q}) == 1
        assert len({RatFun((6,), (-4,)), Fraction(-3, 2)}) == 1
        assert len({RatFun.from_fraction(3), 3}) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        scaled_ratfun_st(),
        st.one_of(scaled_ratfun_st(), fractions_st),
        st.sampled_from(sorted(RATFUN_OPS)),
    )
    def test_results_are_canonical_over_zt(self, x, y, op):
        # y is a RatFun or a constant, so products and sums with constants
        # (the content-only cancels) are drawn too
        (a, fa), (b, fb) = x, y if isinstance(y, tuple) else (y, _frac_ratfun(((y,), (1,))))
        if op == "/" and not fb:
            return
        on_ratfun, on_qt = RATFUN_OPS[op]
        got, want = on_ratfun(a, b), on_qt(fa, fb)
        n, d = got._n, got._d
        assert all(type(c) is int for c in n + d)
        assert d and d[-1] > 0
        assert math.gcd(*n, *d) == 1  # jointly primitive
        assert sympy.gcd(_zz_poly(n), _zz_poly(d)).as_expr() == 1  # coprime in Z[t]
        assert (got.num, got.den) == _frac_pair(want)


# ---------------------------------------------------------------------------
# jets


class TestJet:
    def test_strict_precision(self):
        with pytest.raises(DomainMismatchError):
            Jet((1, 2)) + Jet((1, 2, 3))
        assert Jet((1, 2)) != Jet((1, 2, 0))

    def test_rationals_broadcast(self):
        assert Jet((1, 2, 3)) + 1 == Jet((2, 2, 3))
        assert 2 * Jet((1, 2, 3)) == Jet((2, 4, 6))

    def test_constant_jets_hash_as_their_fractions(self):
        for j, q in ((Jet((2, 0)), 2), (Jet((Fraction(1, 3), 0, 0)), Fraction(1, 3))):
            assert j == q and hash(j) == hash(q)
            assert len({j, Fraction(q)}) == 1
        assert Jet((2, 1)) != 2

    @pytest.mark.parametrize("bad", [0.1, "1/2"])
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(DomainMismatchError):
            Jet([bad, 1])
        with pytest.raises(DomainMismatchError):
            Jet.from_fraction(bad, 2)
        with pytest.raises(DomainMismatchError):
            RATIONAL.coerce(bad)

    def test_fractions_are_kept_and_ints_converted(self):
        q = Fraction(1, 3)
        j = Jet([q, 2])
        assert j.coeffs[0] is q
        assert type(j.coeffs[1]) is Fraction
        assert RATIONAL.coerce(q) is q

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fractions_st, min_size=1, max_size=5), st.data())
    def test_product_matches_truncated_series(self, a, data):
        b = data.draw(st.lists(fractions_st, min_size=len(a), max_size=len(a)))
        n = len(a)
        prod = Jet(a) * Jet(b)
        s = sympy.Symbol("s")
        sym = sympy.expand(_sym_poly(a).subs(t, s) * _sym_poly(b).subs(t, s))
        want = [sympy.Rational(sym.coeff(s, k)) for k in range(n)]
        assert list(prod.coeffs) == [Fraction(w.p, w.q) for w in want]

    def test_derivative_drops_one_order(self):
        j = Jet((Fraction(5), Fraction(1, 2), Fraction(7), Fraction(-2)))
        assert j.derivative() == Jet((Fraction(1, 2), 14, -6))
        with pytest.raises(PrecisionExhaustedError):
            Jet((1,)).derivative()

    def test_truncate(self):
        j = Jet((1, 2, 3))
        assert j.truncate(2) == Jet((1, 2))
        with pytest.raises(ValueError):
            j.truncate(4)
        with pytest.raises(ValueError):
            j.truncate(0)


# ---------------------------------------------------------------------------
# elimination over Q, cross-checked against a textbook implementation


matrix_st = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(fractions_st, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


@st.composite
def core_case_st(draw):
    """Integer or Fraction matrices, often rank-deficient, wider than tall
    or with zero rows: a product of random n x r and r x m factors, some
    rows then zeroed."""
    entry = draw(st.sampled_from([st.integers(min_value=-5, max_value=5), fractions_st]))
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    left = [[draw(entry) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    zeroed = draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    return [
        [0 if z else sum(lrow[k] * right[k][c] for k in range(rank)) for c in range(ncols)]
        for lrow, z in zip(left, zeroed)
    ]


class TestRationalElimination:
    def test_known_full_rank_matrix(self):
        m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        res = rref(m)
        assert res.rank == 2
        assert res.pivots == (0, 1)
        assert [list(r) for r in res.matrix.rows] == [[1, 0], [0, 1]]

    @settings(max_examples=80, deadline=None)
    @given(matrix_st)
    def test_rref_matches_naive(self, rows):
        res = rref(Matrix(rows))
        want_rows, want_pivots = naive_rref(rows)
        assert res.pivots == want_pivots
        assert res.rank == len(want_pivots)
        assert [list(r) for r in res.matrix.rows] == want_rows

    @settings(max_examples=80, deadline=None)
    @given(matrix_st, st.data())
    def test_solver_matches_naive(self, rows, data):
        rhs = data.draw(
            st.lists(fractions_st, min_size=len(rows), max_size=len(rows))
        )
        solver = LinearSolver(Matrix(rows))
        got = solver.try_solve(tuple(rhs))
        assert got == naive_solve(rows, rhs)
        if got is not None:
            residual = [
                sum(r * x for r, x in zip(row, got)) - b for row, b in zip(rows, rhs)
            ]
            assert all(v == 0 for v in residual)

    @settings(max_examples=60, deadline=None)
    @given(matrix_st)
    def test_kernel_dimension_and_membership(self, rows):
        m = Matrix(rows)
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rref(m).rank
        for v in basis:
            assert all(
                sum(r * x for r, x in zip(row, v)) == 0 for row in rows
            )

    @settings(max_examples=80, deadline=None)
    @given(core_case_st())
    def test_kernel_is_the_canonical_one(self, rows):
        ncols = len(rows[0])
        red, pivots = naive_rref(rows)
        want = naive_canonical_kernel(red, pivots, ncols, Fraction(0), Fraction(1), operator.neg)
        event("nonzero kernel" if want else "zero kernel")
        assert list(kernel_basis(Matrix(rows, ncols=ncols))) == want

    def test_certificate_detects_column_rank(self):
        assert full_column_rank_certificate(
            Matrix([[1, 0], [0, 1], [1, 1]])
        )
        assert not full_column_rank_certificate(Matrix([[1, 2], [2, 4]]))

    def test_certificate_uses_one_prime(self):
        # [[P]] has rank 1 over Q but 0 modulo the one certificate prime P:
        # the certificate is inconclusive and exact elimination decides
        P = _CERT_PRIME
        assert not full_column_rank_int([[P]], 1)
        assert not full_column_rank_certificate(Matrix([[P]]))
        assert rref(Matrix([[P]])).rank == 1

    @settings(max_examples=120, deadline=None)
    @given(core_case_st())
    def test_matrix_wrappers_agree_with_integer_cores(self, rows):
        ncols = len(rows[0])
        m = Matrix(rows, ncols=ncols)
        ints = []
        for row in rows:
            q = math.lcm(*(Fraction(x).denominator for x in row))
            ints.append([int(Fraction(x) * q) for x in row])
        cert = full_column_rank_int(ints, ncols)
        assert full_column_rank_certificate(m) == cert
        pivots, pivot_value = rref_rows(ints, ncols, _ring(RATIONAL))
        res = rref(m)
        assert res.pivots == tuple(pivots) == naive_rref(rows)[1]
        if cert:  # the certificate is sound
            assert len(pivots) == ncols
        # every pivot row ends on one pivot value, which turns it into its RREF row
        assert [ints[k][c] for k, c in enumerate(pivots)] == [pivot_value] * len(pivots)
        assert [list(r) for r in res.matrix.rows[: res.rank]] == [
            [Fraction(x, pivot_value) for x in ints[k]] for k in range(len(pivots))
        ]
        assert all(not any(r) for r in res.matrix.rows[res.rank :])

    def test_int_and_ring_kernels_agree_on_random_matrices(self):
        def divexact(a, b):
            q, r = divmod(a, b)
            if r:
                raise ArithmeticError("inexact division")
            return q

        rng = random.Random(9001)
        for _ in range(300):
            n = rng.randint(1, 7)
            m = rng.randint(1, 7)
            extra = rng.randint(0, 2)  # augmented columns beyond the pivot region
            rows = [
                [rng.randint(-9, 9) for _ in range(m + extra)] for _ in range(n)
            ]
            if rng.random() < 0.4:  # force repeated/zero structure
                for i in range(n):
                    if rng.random() < 0.4:
                        rows[i] = [0] * (m + extra)
            a = copy.deepcopy(rows)
            b = copy.deepcopy(rows)
            piv_a = ff_gauss_jordan_int(a, m)
            piv_b = ff_gauss_jordan_ring(
                b, m, lambda x, y: x * y, lambda x, y: x - y, divexact, lambda x: x == 0
            )
            assert piv_a == piv_b
            # the ring kernel holds the dense loop's rows (TestSparseKernels)
            _assert_primitive_rows(rows, m, a, b)


# ---------------------------------------------------------------------------
# elimination over Q(t)


def _ratfun_matrix(entries):
    return Matrix(
        [[RatFun(tuple(e)) if isinstance(e, tuple) else RatFun((e,)) for e in row]
         for row in entries]
    )


class TestRatFunElimination:
    def test_solve_with_parameter_denominators(self):
        # rows mix constants and polynomials in t; solution needs 1/(t^2-4)
        m = _ratfun_matrix([[(0, 1), 2], [1, (2, 1)]])
        b = (RatFun((1,)), RatFun((0,)))
        x = LinearSolver(m).try_solve(b)
        assert x is not None
        for row, want in zip(m.rows, b):
            acc = RatFun(up.ZERO)
            for r, xi in zip(row, x):
                acc = acc + r * xi
            assert acc == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(fractions_st, fractions_st), min_size=3, max_size=3
            ),
            min_size=2,
            max_size=4,
        ),
        st.data(),
    )
    def test_random_linear_systems_verify_exactly(self, raw, data):
        rows = [[RatFun(pair) for pair in row] for row in raw]
        m = Matrix(rows, ncols=3)
        rhs = data.draw(
            st.lists(
                st.tuples(fractions_st, fractions_st),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        b = tuple(RatFun(pair) for pair in rhs)
        x = LinearSolver(m).try_solve(b)
        if x is None:
            # inconsistency must be genuine: rank of [M|b] exceeds rank of M
            aug = Matrix(
                [list(row) + [bi] for row, bi in zip(rows, b)], ncols=4
            )
            assert rref(aug).rank == rref(m).rank + 1
            return
        for row, want in zip(rows, b):
            acc = RatFun(up.ZERO)
            for r, xi in zip(row, x):
                acc = acc + r * xi
            assert acc == want

    def test_kernel_over_ratfun(self):
        # t * col0 - col1 = 0 by construction
        rows = [[RatFun((1,)), RatFun((0, 1))], [RatFun((0, 1)), RatFun((0, 0, 1))]]
        basis = kernel_basis(Matrix(rows))
        assert len(basis) == 1
        v = basis[0]
        for row in rows:
            acc = RatFun(up.ZERO)
            for r, xi in zip(row, v):
                acc = acc + r * xi
            assert acc.is_zero


# coefficients with denominators 2, 3 or 5, so that clearing a row takes an
# integer scale as well as a polynomial one
nonint_st = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.sampled_from((2, 3, 5))
)
nonzero_st = st.builds(
    lambda n, d: Fraction(n, d),
    st.integers(min_value=1, max_value=5) | st.integers(min_value=-5, max_value=-1),
    st.sampled_from((2, 3, 5)),
)
denominator_st = st.builds(  # degree 1 or 2
    lambda low, lead: (*low, lead), st.lists(nonint_st, min_size=1, max_size=2), nonzero_st
)
ratfun_st = st.builds(
    lambda num, den: RatFun(tuple(num), den),
    st.lists(nonint_st, max_size=3),
    denominator_st,
)


@st.composite
def ratfun_system_st(draw):
    """A 2-5 x 2-5 system over Q(t) and a right-hand side.

    The matrix is generic, has its last row a combination of the first
    rows, or its last column a multiple of the first; the right-hand side
    is M x0 (consistent) or has entries over the distinct denominators
    t + (i+1)/2 (inconsistent as soon as M has fewer independent rows)."""
    nrows = draw(st.integers(min_value=2, max_value=5))
    ncols = draw(st.integers(min_value=2, max_value=5))
    rows = [[draw(ratfun_st) for _ in range(ncols)] for _ in range(nrows)]
    shape = draw(st.sampled_from(("generic", "row-dependent", "column-dependent")))
    if shape == "row-dependent":
        coeffs = [draw(ratfun_st) for _ in range(nrows - 1)]
        rows[-1] = [
            sum((f * row[j] for f, row in zip(coeffs, rows)), RatFun(up.ZERO))
            for j in range(ncols)
        ]
    elif shape == "column-dependent":
        f = draw(ratfun_st)
        for row in rows:
            row[-1] = f * row[0]
    if draw(st.booleans()):
        x0 = [draw(ratfun_st) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, x0)), RatFun(up.ZERO)) for row in rows]
    else:
        rhs = [
            RatFun(tuple(draw(st.lists(nonint_st, min_size=1, max_size=3))),
                   (Fraction(i + 1, 2), Fraction(1)))
            for i in range(nrows)
        ]
    return rows, rhs


def _pairs(entries):
    return [(e.num, e.den) for e in entries]


class TestRatFunOracle:
    """rref and LinearSolver over Q(t) against sympy's rref over QQ(t)."""

    @settings(max_examples=40, deadline=None)
    @given(ratfun_system_st())
    def test_rref_matches_sympy(self, system):
        rows, _ = system
        res = rref(Matrix(rows))
        want_rows, want_pivots = naive_ratfun_rref([_pairs(row) for row in rows])
        event("rank-deficient" if res.rank < min(len(rows), len(rows[0])) else "full rank")
        assert res.pivots == want_pivots
        assert [_pairs(row) for row in res.matrix.rows] == want_rows

    @settings(max_examples=40, deadline=None)
    @given(ratfun_system_st())
    def test_kernel_is_the_canonical_one(self, system):
        rows, _ = system
        ncols = len(rows[0])
        red, pivots = naive_ratfun_rref([_pairs(row) for row in rows])
        want = naive_canonical_kernel(
            red, pivots, ncols, ((), (Fraction(1),)), ((Fraction(1),), (Fraction(1),)),
            lambda e: (tuple(-c for c in e[0]), e[1]),
        )
        event("nonzero kernel" if want else "zero kernel")
        assert [tuple(_pairs(v)) for v in kernel_basis(Matrix(rows))] == want

    @settings(max_examples=40, deadline=None)
    @given(ratfun_system_st())
    def test_solve_matches_sympy(self, system):
        rows, rhs = system
        got = LinearSolver(Matrix(rows)).try_solve(rhs)
        want = naive_ratfun_solve([_pairs(row) for row in rows], _pairs(rhs))
        event("inconsistent" if want is None else "consistent")
        if want is None:
            assert got is None
        else:
            assert got is not None and _pairs(got) == list(want)


# ---------------------------------------------------------------------------
# the Z[t] operations that fraction-free elimination over Q(t) runs on


zpoly_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(
    lambda cs: up.zsub(tuple(cs), up.ZERO)
)


class TestIntegerPolynomials:
    @settings(max_examples=80, deadline=None)
    @given(zpoly_st, zpoly_st.filter(bool))
    def test_exact_divide_inverts_multiply(self, a, b):
        assert up.zdivexact(up.zmul(a, b), b) == a
        assert up.zsub(up.zmul(a, b), up.zmul(b, a)) == up.ZERO

    def test_exact_divide_rejects_a_remainder(self):
        with pytest.raises(ArithmeticError):
            up.zdivexact((1, 0, 1), (1, 1))  # t^2 + 1 = (t - 1)(t + 1) + 2
        with pytest.raises(ArithmeticError):
            up.zdivexact((1, 1), (0, 0, 1))  # divisor of higher degree

    def test_exact_divide_rejects_a_leading_coefficient_that_does_not_divide(self):
        with pytest.raises(ArithmeticError):
            up.zdivexact((0, 3), (0, 2))  # 3t / 2t = 3/2 is not in Z[t]
        with pytest.raises(ArithmeticError):
            up.zdivexact((2, 3), (2,))
        with pytest.raises(ZeroDivisionError):
            up.zdivexact((1,), up.ZERO)

    def test_integer_and_rational_polynomial_kernels_agree(self):
        rng = random.Random(9002)
        for _ in range(150):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            extra = rng.randint(0, 2)  # augmented columns beyond the pivot region
            rows = [
                [
                    up.zsub(tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 3))), ())
                    for _ in range(m + extra)
                ]
                for _ in range(n)
            ]
            if rng.random() < 0.4:  # force repeated/zero structure
                for i in range(1, n):
                    if rng.random() < 0.5:
                        rows[i] = list(rows[0])
            a = copy.deepcopy(rows)
            b = [[up.pnorm(e) for e in row] for row in rows]
            piv_a = ff_gauss_jordan_ring(
                a, m, up.zmul, up.zsub, up.zdivexact, lambda x: not x
            )
            piv_b = ff_gauss_jordan_ring(
                b, m, qpoly_mul, qpoly_sub, qpoly_divexact, lambda x: not x
            )
            assert piv_a == piv_b
            assert all(isinstance(c, int) for row in a for e in row for c in e)
            assert [[up.pnorm(e) for e in row] for row in a] == b


# ---------------------------------------------------------------------------
# the sparse, lazily rescaled kernels against the dense loop


def _int_divexact(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division")
    return q


INT_OPS = (operator.mul, operator.sub, _int_divexact, operator.not_)
ZT_OPS = (up.zmul, up.zsub, up.zdivexact, operator.not_)


def _sparse_rows(rng, n, width, entry, zero, density):
    return [[entry() if rng.random() < density else zero for _ in range(width)] for _ in range(n)]


def _curve_rows(rng, domain):
    """The generator rows of a random plane curve over Q (ints) or Q(t)
    (Z[t]), in a degree from d - 1 up to the certificate degree 3d - 5
    (up to 7 for quintics, which keeps the dense oracle quick): the
    fibre's torus-class blocks put back side by side into full rows."""
    d = rng.randint(3, 5)
    terms = {e: 1 for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    for e in rng.sample(graded_basis(d), 3):
        terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
    if domain is RATFUN:
        terms = {
            e: RatFun((Fraction(c), Fraction(rng.randint(-2, 2), rng.randint(1, 3))))
            for e, c in terms.items()
        }
    fiber = JacobianFiber.__new__(JacobianFiber)
    fiber._setup(HomPoly(d, terms, domain=domain))
    k = rng.randint(d - 1, 3 * d - 5 if d < 5 else 7)
    rows = []
    for _, cols, block in fiber._blocks(k).values():
        for row in block:
            rows.append([fiber._ring.zero] * monomial_count(k))
            for c, x in zip(cols, row):
                rows[-1][c] = x
    return rows, monomial_count(k)


@st.composite
def kernel_case_st(draw):
    """(rows, ncols) over Z or Z[t]: sparse matrices (2-20% dense), curve
    generator rows, low-rank products, LinearSolver's identity block past
    ncols, and a lazy block whose rows no pivot touches for many steps;
    then, at random, zero rows and columns with no pivot."""
    ring = draw(st.sampled_from(("Z", "Z[t]")))
    kind = draw(st.sampled_from(("sparse", "curve", "low rank", "solver", "lazy")))
    event(f"{ring} {kind}")
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ops, zero = (INT_OPS, 0) if ring == "Z" else (ZT_OPS, up.ZERO)
    mul, sub = ops[:2]
    if ring == "Z":
        bits = rng.choice((3, 20, 70))
        entry = lambda: rng.choice((-1, 1)) * rng.randint(1, 2**bits)  # noqa: E731
    else:  # nonzero, trimmed, degree 0-2
        entry = lambda: tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 2))) + (  # noqa: E731
            rng.choice((-3, -2, -1, 1, 2, 3)),
        )
    density = rng.uniform(0.02, 0.2)
    n, m = rng.randint(1, 20), rng.randint(1, 20)
    if kind == "curve":
        rows, ncols = _curve_rows(rng, RATIONAL if ring == "Z" else RATFUN)
    elif kind == "low rank":
        ncols = m
        a = _sparse_rows(rng, n, rng.randint(1, 4), entry, zero, 0.5)
        b = _sparse_rows(rng, len(a[0]), m, entry, zero, max(density, 0.3))
        add = lambda u, v: sub(u, sub(zero, v))  # noqa: E731
        rows = [[functools.reduce(add, map(mul, ra, col), zero) for col in zip(*b)] for ra in a]
    elif kind == "lazy":
        # k pivots that are not units (2x or t times an entry), so every
        # step rescales, over rows that are zero in their columns; those
        # rows are next touched by the column after the block, or only at
        # the end
        k = rng.randint(2, 8)
        ncols = k + m
        rows = []
        for i in range(k):
            row = [zero] * k + [entry() if rng.random() < 0.3 else zero for _ in range(m)]
            row[i] = mul(entry(), 2 if ring == "Z" else (0, 1))
            rows.append(row)
        for _ in range(n):
            late = rng.random() < 0.3
            row = [zero] * k + [entry() if not late and rng.random() < 0.3 else zero for _ in range(m)]
            row[k if not late else k + m - 1] = entry()
            rows.append(row)
        rng.shuffle(rows)
    else:
        ncols = m
        rows = _sparse_rows(rng, n, m + rng.randint(0, 3), entry, zero, density)
    if kind == "solver":
        one = 1 if ring == "Z" else (1,)
        for i, row in enumerate(rows):
            row.extend(one if j == i else zero for j in range(len(rows)))
    if rng.random() < 0.4:
        for row in rows:
            if rng.random() < 0.3:
                row[:] = [zero] * len(row)
    if rng.random() < 0.4:
        for j in rng.sample(range(ncols), rng.randint(1, max(1, ncols // 3))):
            for row in rows:
                row[j] = zero
    return ring, rows, ncols


def _position(objects, row):
    (k,) = [k for k, o in enumerate(objects) if o is row]
    return k


def _assert_primitive_rows(rows, ncols, got, dense):
    """ff_gauss_jordan_int's rows `got` from integer `rows`, against the
    dense fraction-free loop's rows `dense`: each is a nonzero rational
    multiple of the dense row, the pivot rows are L times the RREF rows, L
    the least common denominator of the RREF, and every row past the rank
    is primitive."""
    for g, d in zip(got, dense):
        j = next((j for j, x in enumerate(d) if x), None)
        assert (j is None) == (not any(g))
        if j is not None:
            assert [x * d[j] for x in g] == [y * g[j] for y in d]
    red, pivots = naive_rref(rows, ncols)
    rank = len(pivots)
    lcd = math.lcm(*(x.denominator for row in red[:rank] for x in row))
    assert got[:rank] == [[lcd * x for x in row] for row in red[:rank]]
    assert all(math.gcd(*row) <= 1 for row in got[rank:])


class TestSparseKernels:
    @settings(max_examples=200, deadline=None)
    @given(kernel_case_st())
    def test_kernels_match_the_dense_loop(self, case):
        ring, rows, ncols = case
        ops = INT_OPS if ring == "Z" else ZT_OPS
        kernels = [(ff_gauss_jordan_ring, ops)]
        if ring == "Z":
            kernels.append((ff_gauss_jordan_int, ()))
        want_rows = [list(r) for r in rows]
        want_objects = list(want_rows)
        want = naive_ff_gauss_jordan(want_rows, ncols, *ops)
        want_order = [_position(want_objects, r) for r in want_rows]
        for kernel, args in kernels:
            got_rows = [list(r) for r in rows]
            got_objects = list(got_rows)
            assert kernel(got_rows, ncols, *args) == want
            # the caller's row objects, swapped into the same places,
            # holding the same entries (the ring kernel) or primitive
            # multiples of them (the int kernel)
            assert [_position(got_objects, r) for r in got_rows] == want_order
            if kernel is ff_gauss_jordan_int:
                _assert_primitive_rows(rows, ncols, got_rows, want_rows)
            else:
                assert got_rows == want_rows


# ---------------------------------------------------------------------------
# the Z[t] cancel behind RatFun: heuristic gcd, verified, remainder
# sequence last


big_q_st = st.builds(
    Fraction,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=1, max_value=2**64),
)


def big_qpoly_st(max_deg):
    return st.lists(big_q_st, min_size=1, max_size=max_deg + 1).map(up.pnorm).filter(bool)


@st.composite
def gcd_pair_st(draw):
    """g * a and g * b over Q, degrees up to 30 and coefficients up to
    about 200 bits; the kinds cover a shared factor, coprime inputs, a
    constant input and equal inputs."""
    kind = draw(st.sampled_from(("shared", "shared", "coprime", "constant", "equal")))
    event(kind)
    g = draw(big_qpoly_st(10)) if kind != "coprime" else up.ONE
    a = draw(big_qpoly_st(0 if kind == "constant" else 20))
    b = a if kind == "equal" else draw(big_qpoly_st(20))
    if draw(st.booleans()):
        a, b = b, a
    return qpoly_mul(g, a), qpoly_mul(g, b)


def _qq_poly(coeffs):
    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], t, domain=sympy.QQ)


def _from_qq_poly(poly):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return up.pnorm(cs)


def _zpoly(coeffs):
    """A Q[t] polynomial times the lcm of its coefficient denominators."""
    q = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (q // c.denominator) for c in coeffs)


def _monic_gcd(a, b):
    """The monic gcd of nonzero Z[t] polynomials a and b, read off the
    cofactor zcancel leaves of a."""
    g = up.zdivexact(a, up.zcancel(a, b)[0])
    return tuple(Fraction(c, g[-1]) for c in g)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(up, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(up, name, spy)
    return calls


class TestPolynomialGcd:
    @settings(max_examples=60, deadline=None)
    @given(gcd_pair_st())
    def test_gcd_matches_sympy(self, pair):
        a, b = pair
        want = _from_qq_poly(_qq_poly(a).gcd(_qq_poly(b)).monic())
        assert _monic_gcd(_zpoly(a), _zpoly(b)) == want

    @settings(max_examples=40, deadline=None)
    @given(gcd_pair_st())
    def test_cancel_gives_lowest_terms(self, pair):
        a, b = _zpoly(pair[0]), _zpoly(pair[1])
        num, den = up.zcancel(a, b)
        assert den[-1] > 0 and math.gcd(*num, *den) == 1
        assert _qq_poly(num).gcd(_qq_poly(den)) == _qq_poly(up.ONE)
        assert up.zmul(num, b) == up.zmul(den, a)

    def test_zero_and_constant_inputs(self):
        f = (2, -4)
        with pytest.raises(ZeroDivisionError):
            up.zcancel(up.ZERO, up.ZERO)
        with pytest.raises(ZeroDivisionError):
            up.zcancel(f, up.ZERO)
        assert _monic_gcd((3,), f) == up.ONE
        assert up.zcancel((3,), f) == ((-3,), (-2, 4))
        assert up.zcancel(up.ZERO, f) == (up.ZERO, up.ONE)
        assert up.zcancel(f, (2,)) == ((1, -2), up.ONE)

    def test_euclid_fallback_when_every_heuristic_try_fails(self, monkeypatch):
        # t and t - N with every heuristic point dividing N: gcd(xi, xi - N)
        # is xi, which reads back as the candidate t, and t does not
        # divide t - N; the true gcd is 1
        fallback = _spy(monkeypatch, "_euclid_gcd")
        N = math.lcm(*range(1, 20001))
        a, b = (0, 1), (-N, 1)
        assert _monic_gcd(a, b) == up.ONE
        assert up.zcancel(a, b) == (a, b)
        assert len(fallback) == 2

    def test_heuristic_needs_no_fallback_on_random_inputs(self, monkeypatch):
        fallback = _spy(monkeypatch, "_euclid_gcd")
        rng = random.Random(31)
        for _ in range(50):
            g, a, b = (
                tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n))
                + (Fraction(1),)
                for n in (rng.randint(0, 6), rng.randint(1, 8), rng.randint(1, 8))
            )
            up.zcancel(_zpoly(qpoly_mul(g, a)), _zpoly(qpoly_mul(g, b)))
        assert fallback == []

    def test_acceptance_rejects_a_proper_divisor_of_the_gcd(self):
        # A = (t-1)(t-4)(t+1), B = (t-1)(t-4)(t+2): at xi = 5 the factor
        # t - 4 evaluates to 1, so the xi-adic digits of gcd(A(5), B(5))
        # spell t - 1 alone. It divides both, but the cofactors still
        # share t - 4, and the check must see it.
        G = up.zmul((-1, 1), (-4, 1))
        A, B = up.zmul(G, (1, 1)), up.zmul(G, (2, 1))
        candidate = up._balanced_digits(math.gcd(up.zeval(A, 5), up.zeval(B, 5)), 5)
        assert candidate == (-1, 1)
        up.zdivexact(A, candidate), up.zdivexact(B, candidate)  # divides both
        assert up._accept_gcd(A, B, candidate) is None
        assert up._accept_gcd(A, B, G) == (G, (1, 1), (2, 1))
        assert up.zcancel(A, B) == ((1, 1), (2, 1))
        assert _monic_gcd(A, B) == tuple(map(Fraction, G))

    @settings(max_examples=30, deadline=None)
    @given(gcd_pair_st())
    def test_remainder_sequence_alone_matches_sympy(self, pair):
        a, b = pair
        want = _from_qq_poly(_qq_poly(a).gcd(_qq_poly(b)).monic())
        with mock.patch.object(up, "_HEU_TRIES", 0):
            assert _monic_gcd(_zpoly(a), _zpoly(b)) == want

    def test_acceptance_rejects_a_non_divisor(self):
        assert up._accept_gcd((1, 0, 1), (2, 3, 1), (1, 1)) is None


# ---------------------------------------------------------------------------
# jet systems solved order by order


def _jet_solve(solver, b):
    """JetSystemSolver.try_solve on the dense jet vector b, one precision."""
    return solver.try_solve(b[0].precision, enumerate(b))


class TestJetSystems:
    def test_geometric_series_inverse(self):
        m = Matrix([[Jet((1, 1, 0))]])  # (1 + s) x = 1
        solver = JetSystemSolver(m)
        got, fail = _jet_solve(solver, (Jet((1, 0, 0)),))
        assert fail is None
        assert got == (Jet((1, -1, 1)),)
        assert solver.order0.rank == solver.ncols  # no order-0 kernel

    def test_upper_triangular_system(self):
        m = Matrix([[Jet((2, 0)), Jet((0, 1))], [Jet((0, 0)), Jet((1, 0))]])
        got, fail = _jet_solve(JetSystemSolver(m), (Jet((2, 1)), Jet((1, 0))))
        assert fail is None
        assert got == (Jet((1, 0)), Jet((1, 0)))

    def test_order0_kernel_is_lifted(self):
        # M(s) = (1, 2 + s): the kernel vector h0 = (-2, 1) of M_0 extends
        # to h0 + s x_1 in the kernel of M(s) mod s^2 by one solve on M_0,
        # M_0 x_1 = -M_1 h0, which is order 1 of the jet solve of
        # M(s) y = -M(s) h0
        m = Matrix([[Jet((1, 0)), Jet((2, 1))]])
        m0 = Matrix([[e.order0 for e in row] for row in m.rows])
        (h0,) = kernel_basis(m0)
        const = [Jet.from_fraction(h, 2) for h in h0]
        x1 = LinearSolver(m0).try_solve([-e.coeffs[1] for e in m.mul_vec(const)])
        assert h0 == (-2, 1) and x1 == (-1, 0)
        lift = [Jet((h, y)) for h, y in zip(h0, x1)]
        assert all(e.is_zero for e in m.mul_vec(lift))
        got, fail = _jet_solve(JetSystemSolver(m), [-e for e in m.mul_vec(const)])
        assert fail is None
        assert got == tuple(Jet((0, y)) for y in x1)

    def test_first_obstructed_order_is_reported(self):
        # s * x = s has the solution x = 1, but the order-0 pass pins the
        # free variable to zero, so the obstruction surfaces at order one
        m = Matrix([[Jet((0, 1))]])
        solver = JetSystemSolver(m)
        got, fail = _jet_solve(solver, (Jet((0, 1)),))
        assert got is None and fail == 1

    def test_prescribed_order0_value(self):
        # the order-0 kernel vector h0 = (0, 1) of diag(1, s) has M_1 h0 =
        # (0, 1) outside the image of M_0, so no first-order kernel section
        # extends it: the solve on M_0 has none, and the jet solve of
        # M(s) y = -M(s) h0 fails at order 1
        m = Matrix([[Jet((1, 0)), Jet((0, 0))], [Jet((0, 0)), Jet((0, 1))]])
        m0 = Matrix([[e.order0 for e in row] for row in m.rows])
        assert kernel_basis(m0) == ((0, 1),)
        assert LinearSolver(m0).try_solve([0, -1]) is None
        assert _jet_solve(JetSystemSolver(m), [Jet((0, 0)), Jet((0, -1))]) == (None, 1)

    def test_solves_to_the_rhs_precision(self):
        rows = [[Jet((1, 2, 3)), Jet((0, 1, 1))], [Jet((2, 0, 5)), Jet((1, 1, 0))]]
        top = JetSystemSolver(Matrix(rows))
        for m in (1, 2):
            low = JetSystemSolver(Matrix([[e.truncate(m) for e in row] for row in rows]))
            b = (Jet((1, -1)[:m]), Jet((3, 2)[:m]))
            assert _jet_solve(top, b) == _jet_solve(low, b)
            assert all(x.precision == m for x in _jet_solve(top, b)[0])
        with pytest.raises(PrecisionExhaustedError):
            _jet_solve(top, (Jet((1, 0, 0, 0)), Jet((0, 0, 0, 0))))

    def test_field_matrix_rejected(self):
        with pytest.raises(DomainMismatchError):
            JetSystemSolver(Matrix([[Fraction(1)]]))
        with pytest.raises(DomainMismatchError):
            LinearSolver(Matrix([[Jet((1, 0))]]))


# ---------------------------------------------------------------------------
# integer-row solvers against the order-by-order Fraction oracles


small_int_st = st.integers(min_value=-4, max_value=4)
big_fraction_st = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**15),
)


@st.composite
def deficient_matrix_st(draw):
    """Rational matrices whose extra rows and columns are combinations of
    the others, so the rank is below both dimensions and residual rows
    exist."""
    rank = draw(st.integers(min_value=0, max_value=3))
    nrows = rank + draw(st.integers(min_value=1, max_value=3))
    ncols = rank + draw(st.integers(min_value=0, max_value=3))
    left = [[draw(fractions_st) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(fractions_st) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum((lrow[k] * right[k][c] for k in range(rank)), Fraction(0)) for c in range(ncols)]
        for lrow in left
    ]
    if not ncols:
        return [[Fraction(0)] for _ in range(nrows)]
    return rows


class TestIntegerSolvesAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(deficient_matrix_st(), st.data())
    def test_rank_deficient_systems(self, rows, data):
        ncols = len(rows[0])
        solver = LinearSolver(Matrix(rows))
        assert solver.rank < len(rows)
        # a consistent right-hand side M x0, then an arbitrary one, which
        # is usually inconsistent and must be caught by a residual row
        x0 = data.draw(st.lists(fractions_st, min_size=ncols, max_size=ncols))
        consistent = [sum((a * b for a, b in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = data.draw(
            st.lists(big_fraction_st, min_size=len(rows), max_size=len(rows))
        )
        got = solver.try_solve(consistent)
        assert got is not None
        assert got == naive_solve(rows, consistent)
        assert solver.try_solve(arbitrary) == naive_solve(rows, arbitrary)

    @settings(max_examples=60, deadline=None)
    @given(matrix_st, st.data())
    def test_large_mixed_denominators(self, rows, data):
        rhs = data.draw(
            st.lists(
                st.one_of(big_fraction_st, small_int_st),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        assert LinearSolver(Matrix(rows)).try_solve(rhs) == naive_solve(rows, rhs)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_jet_solver_matches_order_by_order_oracle(
        self, precision, nrows, ncols, data
    ):
        m = data.draw(st.integers(min_value=1, max_value=precision))
        coeff = st.one_of(st.just(Fraction(0)), fractions_st)
        blocks = [
            [[data.draw(coeff) for _ in range(ncols)] for _ in range(nrows)]
            for _ in range(precision)
        ]
        if data.draw(st.booleans()):  # a repeated row makes M_0 singular
            for block in blocks:
                block[-1] = list(block[0])
        b_orders = [
            [data.draw(fractions_st) for _ in range(nrows)] for _ in range(m)
        ]
        matrix = Matrix(
            [
                [Jet(tuple(blocks[k][r][j] for k in range(precision))) for j in range(ncols)]
                for r in range(nrows)
            ]
        )
        rhs = tuple(Jet(tuple(b_orders[k][r] for k in range(m))) for r in range(nrows))
        got, fail = _jet_solve(JetSystemSolver(matrix), rhs)
        want, want_fail = naive_jet_solve(blocks, b_orders)
        assert fail == want_fail
        event("inconsistent" if want is None else "consistent")
        if want is None:
            assert got is None
        else:
            assert [tuple(x.coeffs[k] for x in got) for k in range(m)] == [
                tuple(x) for x in want
            ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_jet_solver_with_large_entries_to_precision_eight(
        self, precision, nrows, ncols, data
    ):
        # 100-bit numerators over 50-bit denominators at every order, so
        # each order's solution carries its own reduced denominator into
        # the right-hand sides of all the orders above it
        m = data.draw(st.integers(min_value=1, max_value=precision))
        coeff = st.one_of(st.just(Fraction(0)), small_int_st.map(Fraction), big_fraction_st)
        blocks = [
            [[data.draw(coeff) for _ in range(ncols)] for _ in range(nrows)]
            for _ in range(precision)
        ]
        if data.draw(st.booleans()):  # a repeated row makes M_0 singular
            for block in blocks:
                block[-1] = list(block[0])
        b_orders = [
            [data.draw(big_fraction_st) for _ in range(nrows)] for _ in range(m)
        ]
        matrix = Matrix(
            [
                [Jet(tuple(blocks[k][r][j] for k in range(precision))) for j in range(ncols)]
                for r in range(nrows)
            ]
        )
        rhs = tuple(Jet(tuple(b_orders[k][r] for k in range(m))) for r in range(nrows))
        got, fail = _jet_solve(JetSystemSolver(matrix), rhs)
        want, want_fail = naive_jet_solve(blocks, b_orders)
        assert fail == want_fail
        event("inconsistent" if want is None else "consistent")
        if want is None:
            assert got is None
        else:
            assert [tuple(x.coeffs[k] for x in got) for k in range(m)] == [
                tuple(x) for x in want
            ]
