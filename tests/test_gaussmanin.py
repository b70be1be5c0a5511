"""Derivatives of cohomology classes: witnesses, pole reduction, transport.

The quartic family Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2 is small enough to
work by hand; the expected values below were derived independently and
are asserted exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import flatunitary._univar as up
from flatunitary import exactcore, jacobian, polyring
from flatunitary.exactcore import (
    RATFUN,
    Jet,
    JetDomain,
    JetSystemSolver,
    LinearSolver,
    Matrix,
    PrecisionExhaustedError,
    RatFun,
)
from flatunitary.family import FamilySpec, generic_fibre, jet_expand, specialize, t_derivative
from flatunitary.gaussmanin import (
    NotKernelSectionError,
    Witness,
    gm_derivative,
    membership_witness,
    reduce_pole,
    theta_eval,
)
from flatunitary.jacobian import SingularFibreError, make_fiber
from flatunitary.polyring import HomPoly, graded_basis, monomial_count, poly_mul, poly_partial
from oracles import naive_jet_solve, reference_generators


@pytest.fixture(scope="module")
def generic_mix(mix):
    fiber = make_fiber(generic_fibre(mix))
    Ft = generic_fibre(t_derivative(mix))
    return fiber, Ft


def _mono(e, c, domain=None):
    return HomPoly.monomial(e, c, domain=domain)


def _rf(num, den=up.ONE):
    return RatFun(num, den)


class TestWitness:
    def test_hand_checked_witness_for_y0(self, generic_mix):
        # F_T * Y0 = Y0^3 Y1^2 decomposes against the partials as
        #   (Y1^2/(4 - t^2)) F_0 + (-t Y0 Y1 / (2(4 - t^2))) F_1
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        q = poly_mul(Ft, _mono((1, 0, 0), dom.one(), domain=dom))
        w = membership_witness(fiber, q)
        inv = _rf((1,), (4, 0, -1))  # 1/(4 - t^2)
        a0 = _mono((0, 2, 0), inv, domain=dom)
        a1 = _mono((1, 1, 0), _rf((0, -1), (8, 0, -2)), domain=dom)
        assert w.parts[0] == a0
        assert w.parts[1] == a1
        assert w.parts[2].is_zero

    def test_witness_reexpands_exactly(self, generic_mix):
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        rng = random.Random(3)
        for _ in range(10):
            # random section of the kernel: the span of Y0 and Y1 here
            p = HomPoly(
                1,
                {
                    (1, 0, 0): dom.coerce(Fraction(rng.randint(-3, 3))),
                    (0, 1, 0): dom.coerce(Fraction(rng.randint(-3, 3))),
                },
                domain=dom,
            )
            q = poly_mul(Ft, p)
            w = membership_witness(fiber, q)
            acc = HomPoly.zero(q.degree, domain=dom)
            for part, pf in zip(w.parts, partials):
                acc = acc + poly_mul(part, pf)
            assert acc == q

    def test_divergence_degree(self, generic_mix):
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        q = poly_mul(Ft, _mono((1, 0, 0), dom.one(), domain=dom))
        w = membership_witness(fiber, q)
        assert w.divergence().degree == 1


class TestThetaAndDerivative:
    def test_kernel_directions(self, generic_mix):
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        assert theta_eval(fiber, Ft, _mono((1, 0, 0), dom.one(), domain=dom)).is_zero
        assert theta_eval(fiber, Ft, _mono((0, 1, 0), dom.one(), domain=dom)).is_zero

    def test_y2_obstruction_value(self, generic_mix):
        # Y0^2 Y1^2 Y2 reduces to -(2/t) Y1^4 Y2 modulo the ideal
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        th = theta_eval(fiber, Ft, _mono((0, 0, 1), dom.one(), domain=dom))
        assert th.coords == (_rf(up.ZERO), _rf((-2,), (0, 1)), _rf(up.ZERO))

    def test_derivative_of_y0_over_function_field(self, generic_mix):
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        dp = gm_derivative(fiber, Ft, _mono((1, 0, 0), dom.one(), domain=dom))
        # D(Y0) = t/(2(4 - t^2)) * Y0
        want = _mono((1, 0, 0), _rf((0, 1), (8, 0, -2)), domain=dom)
        assert dp == want

    def test_derivative_of_y0_at_rational_point(self, mix):
        fiber = make_fiber(specialize(mix, Fraction(1)))
        Ft = specialize(t_derivative(mix), Fraction(1))
        dp = gm_derivative(fiber, Ft, _mono((1, 0, 0), Fraction(1)))
        assert dp == _mono((1, 0, 0), Fraction(1, 6))

    def test_derivative_of_y0_in_jets(self, mix):
        t0, n = Fraction(1), 3
        fiber = make_fiber(specialize(mix, t0)).thicken(jet_expand(mix, t0, n))
        Ft = jet_expand(t_derivative(mix), t0, n)
        dom = fiber.F.domain
        dp = gm_derivative(fiber, Ft, _mono((1, 0, 0), dom.one(), domain=dom))
        [(e, c)] = list(dp.terms.items())
        assert e == (1, 0, 0)
        assert c == Jet((Fraction(1, 6), Fraction(5, 18)))

    def test_non_kernel_section_rejected(self, generic_mix):
        fiber, Ft = generic_mix
        dom = fiber.F.domain
        with pytest.raises(NotKernelSectionError):
            gm_derivative(fiber, Ft, _mono((0, 0, 1), dom.one(), domain=dom))


class TestPoleReduction:
    def test_class_is_witness_independent(self, mix):
        # two witnesses for the same numerator differ by terms whose
        # divergence vanishes modulo the ideal
        rng = random.Random(9)
        fiber = make_fiber(specialize(mix, Fraction(1)))
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        top = 3 * 4 - 3
        for _ in range(10):
            q = HomPoly(
                top,
                {
                    e: Fraction(rng.randint(-4, 4))
                    for e in graded_basis(top)
                },
            )
            cls, w = reduce_pole(fiber, q)
            h = HomPoly(
                top - 2 * 3,
                {e: Fraction(rng.randint(-3, 3)) for e in graded_basis(top - 2 * 3)},
            )
            # Koszul relation: (h F_1) F_0 + (-h F_0) F_1 = 0
            tweaked = Witness(
                degree=w.degree,
                parts=(
                    w.parts[0] + poly_mul(h, partials[1]),
                    w.parts[1] - poly_mul(h, partials[0]),
                    w.parts[2],
                ),
            )
            cls2 = fiber.normal_form(tweaked.divergence().scale(Fraction(1, 2)))
            assert cls2.coords == cls.coords


class TestOneJetSolver:
    """Over jets one column solver per degree, on the generators and then
    the cobasis unit columns, serves normal forms and witnesses alike."""

    T0 = Fraction(1)

    @staticmethod
    def _fibre(mix, n):
        return (
            make_fiber(specialize(mix, TestOneJetSolver.T0)).thicken(
                jet_expand(mix, TestOneJetSolver.T0, n)
            ),
            jet_expand(t_derivative(mix), TestOneJetSolver.T0, n),
        )

    @staticmethod
    def _generator_blocks(fiber, k, n):
        """The order-0..n-1 coefficient matrices of the degree-k generator
        columns, in membership_witness's (i, m) order."""
        dom = fiber.F.domain
        gens = [
            poly_mul(_mono(m, dom.one(), domain=dom), poly_partial(fiber.F, i))
            for i in range(3)
            for m in graded_basis(k - fiber.d + 1)
        ]
        cols = [g.to_vector() for g in gens]
        return [
            [[col[r].coeffs[o] for col in cols] for r in range(len(cols[0]))]
            for o in range(n)
        ]

    @pytest.mark.parametrize("k", [None, 0, 1, 2, 3])
    def test_membership_matches_the_generator_solve(self, mix, k):
        n = 4
        fiber, Ft = self._fibre(mix, n)
        rng = random.Random(k)
        terms = {
            e: Jet(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)))
            for e in ((1, 0, 0), (0, 1, 0))
        }
        if k is not None:
            terms[(0, 0, 1)] = Jet(tuple(Fraction(int(o == k)) for o in range(n)))
        q = poly_mul(Ft, HomPoly(1, terms))
        blocks = self._generator_blocks(fiber, q.degree, n)
        b_orders = [[c.coeffs[o] for c in q.to_vector()] for o in range(n)]
        want, want_fail = naive_jet_solve(blocks, b_orders)
        assert want_fail == k
        if k is not None:
            with pytest.raises(NotKernelSectionError) as err:
                membership_witness(fiber, q)
            assert err.value.order == k
            return
        w = membership_witness(fiber, q)
        got = [c for part in w.parts for c in part.to_vector()]
        assert [tuple(c.coeffs[o] for c in got) for o in range(n)] == want

    def test_normal_form_and_derivative_share_one_solver(self, mix, monkeypatch):
        built = []
        real = JetSystemSolver.__init__

        def recording(self, *args):
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(JetSystemSolver, "__init__", recording)
        fiber, Ft = self._fibre(mix, 3)
        dom = fiber.F.domain
        y0 = _mono((1, 0, 0), dom.one(), domain=dom)
        fiber.normal_form(poly_mul(Ft, y0))
        gm_derivative(fiber, Ft, y0)
        assert built == [fiber.column_solver(5)]

    def test_pole_reduction_in_an_unprepared_degree(self, mix):
        fiber, _ = self._fibre(mix, 3)
        rational = make_fiber(specialize(mix, self.T0))
        rng = random.Random(5)
        q = HomPoly(
            9,
            {
                e: Jet(tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)))
                for e in graded_basis(9)
            },
        )
        cls, w = reduce_pole(fiber, q)
        cls0, w0 = reduce_pole(rational, q.map_coefficients(lambda c: c.order0))
        assert tuple(c.order0 for c in cls.coords) == cls0.coords
        for part, part0 in zip(w.parts, w0.parts):
            assert tuple(c.order0 for c in part.to_vector()) == part0.to_vector()


coef_st = st.builds(
    Fraction,
    st.sampled_from((1, -1, 2, -2, 3, -3)),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def jet_family_st(draw):
    """A degree 3-5 family a0 Y0^d + a1 Y1^d + a2 Y2^d plus one to three
    terms with coefficients c0 + c1 T + c2 T^2, every c with a denominator
    1-6, and a basepoint t0 with a denominator 1-5: the jet partials at t0
    then carry denominators at several s-orders, and different ones."""
    d = draw(st.integers(min_value=3, max_value=5))
    terms = {e: (draw(coef_st),) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    for e in draw(st.lists(st.sampled_from(graded_basis(d)), min_size=1, max_size=3)):
        terms[e] = (draw(coef_st), draw(coef_st), draw(coef_st))
    t0 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    return FamilySpec(d, terms), t0


def _reference_column_solve(fiber, q):
    """The degree-k jet column system rebuilt from reference_generators
    (poly_mul over jets) and the cobasis unit columns, solved order by
    order by naive_jet_solve to q's precision. Returns the generator part
    and the cobasis part of each order's solution."""
    k, m = q.degree, q.domain.precision
    gens = reference_generators(fiber.F, k)
    cob = [c[0] for c in fiber._data(k)]
    blocks = [
        [
            [g[r].coeffs[o] for g in gens] + [Fraction(int(o == 0 and r == c)) for c in cob]
            for r in range(monomial_count(k))
        ]
        for o in range(m)
    ]
    b_orders = [[c.coeffs[o] for c in q.to_vector()] for o in range(m)]
    xs, fail = naive_jet_solve(blocks, b_orders)
    assert fail is None  # the cobasis columns make every right-hand side solvable
    return [x[: len(gens)] for x in xs], [x[len(gens) :] for x in xs]


def _by_order(jets, m):
    return [tuple(c.coeffs[o] for c in jets) for o in range(m)]


class TestIntegerJetColumns:
    """Column solvers are built from the fibre's cleared partials (over
    jets, its integer jet partials); what they solve must be the system of
    the generator vectors."""

    @settings(max_examples=40, deadline=None)
    @given(jet_family_st(), st.integers(min_value=1, max_value=3), st.data())
    def test_normal_forms_and_witnesses_match_the_generator_oracle(self, case, n, data):
        fam, t0 = case
        try:
            fiber = make_fiber(specialize(fam, t0)).thicken(jet_expand(fam, t0, n))
        except SingularFibreError:
            event("singular")
            return
        d = fam.degree
        coeff = st.one_of(st.just(Fraction(0)), coef_st)

        def jet(m):
            return Jet(tuple(data.draw(coeff) for _ in range(m)))

        for k in (d, 2 * d - 3):
            m = data.draw(st.integers(min_value=1, max_value=n))
            terms = {e: jet(m) for e in graded_basis(k) if data.draw(st.booleans())}
            p = HomPoly(k, terms, domain=JetDomain(m))
            _, want = _reference_column_solve(fiber, p)
            assert _by_order(fiber.normal_form(p).coords, m) == want
        # a member of the ideal, plus s^j times a cobasis monomial that
        # takes it out of the ideal from order j on
        k = 2 * d - 3
        mult = graded_basis(k - d + 1)
        q = HomPoly.zero(k, fiber.domain)
        for i in range(3):
            terms = {e: jet(n) for e in mult if data.draw(st.booleans())}
            A = HomPoly(k - d + 1, terms, domain=fiber.domain)
            q = q + poly_mul(A, poly_partial(fiber.F, i))
        j = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        if j is not None:
            e = fiber.cobasis(k)[data.draw(st.integers(0, fiber.dim(k) - 1))]
            q = q + HomPoly(k, {e: Jet(tuple(Fraction(int(o == j)) for o in range(n)))})
        gen, cob = _reference_column_solve(fiber, q)
        fail = next((o for o, x in enumerate(cob) if any(x)), None)
        event(f"fails at order {fail}")
        if fail is not None:
            with pytest.raises(NotKernelSectionError) as err:
                membership_witness(fiber, q)
            assert err.value.order == fail
            return
        w = membership_witness(fiber, q)
        assert _by_order([c for part in w.parts for c in part.to_vector()], n) == gen

    @pytest.mark.parametrize("mode", ["rational", "ratfun", "jet"])
    def test_building_a_jet_column_solver_multiplies_no_polynomials(self, mix, mode, monkeypatch):
        base = make_fiber(generic_fibre(mix) if mode == "ratfun" else specialize(mix, Fraction(1, 2)))
        fiber = base.thicken(jet_expand(mix, Fraction(1, 2), 3)) if mode == "jet" else base
        built = []
        real_init = exactcore.Matrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        def no_poly_mul(*args):
            raise AssertionError("poly_mul called while building a column solver")

        solvers = []

        def counting_solver(columns):
            solvers.append(LinearSolver(columns))
            return solvers[-1]

        monkeypatch.setattr(exactcore.Matrix, "__init__", counting_init)
        monkeypatch.setattr(jacobian, "poly_mul", no_poly_mul)
        monkeypatch.setattr(polyring, "poly_mul", no_poly_mul)
        monkeypatch.setattr(jacobian, "LinearSolver", counting_solver)
        for k in (1, 3, 4, 5, 9):  # below, at and past the generator degree 3
            solver = fiber.column_solver(k)
            if mode == "jet":
                assert isinstance(solver, JetSystemSolver)
                continue
            # one block per torus class, every monomial in one class, and a
            # class's LinearSolver built on the first right-hand side that
            # is nonzero on it, exactly once, never for an untouched class
            rows = sorted(c for _, cols, _ in solver._blocks for c in cols)
            assert rows == list(range(monomial_count(k)))
            zero = (fiber.domain.zero(),) * monomial_count(k)
            solver.try_solve(zero)
            assert solver._solvers == {} and solvers == []
            touched = [0, len(solver._blocks) - 1]
            for i in touched + touched:
                b = list(zero)
                b[solver._blocks[i][1][0]] = fiber.domain.one()
                solver.try_solve(b)
            assert sorted(solver._solvers) == sorted(set(touched))
            assert sorted(map(id, solvers)) == sorted(map(id, solver._solvers.values()))
            solvers.clear()
        assert built == []


partial_coef_st = st.builds(
    Fraction,
    st.sampled_from((1, -1, 2, -2, 3, -3)),
    st.sampled_from((2, 3, 5)),
)


@st.composite
def scaled_family_st(draw):
    """A degree 3-5 family a0 Y0^d + a1 Y1^d + a2 Y2^d plus one or two
    terms c0 + c1 T, every coefficient with a denominator 2, 3 or 5, so
    the partials carry non-unit and different column scales."""
    d = draw(st.integers(min_value=3, max_value=5))
    terms = {e: (draw(partial_coef_st),) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    for e in draw(st.lists(st.sampled_from(graded_basis(d)), min_size=1, max_size=2)):
        terms[e] = (draw(partial_coef_st), draw(partial_coef_st))
    return FamilySpec(d, terms)


class TestScaledColumns:
    """Column solvers over Q and Q(t) on partials with denominators: each
    column carries its partial's scale, which every solution must undo."""

    @pytest.mark.parametrize("mode", ["rational", "ratfun"])
    @settings(max_examples=40, deadline=None)
    @given(fam=scaled_family_st(), data=st.data())
    def test_witnesses_reexpand_and_match_the_generator_matrix(self, mode, fam, data):
        d = fam.degree
        if mode == "rational":
            t0 = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=5))
            F = specialize(fam, t0)
        else:
            F = generic_fibre(fam)
        try:
            fiber = make_fiber(F)
        except SingularFibreError:
            event("singular")
            return
        dom = fiber.domain
        if dom == RATFUN:
            coeff = st.builds(
                RatFun,
                st.lists(partial_coef_st, min_size=1, max_size=2),
                st.lists(partial_coef_st, max_size=1).map(lambda cs: (*cs, Fraction(1))),
            )
        else:
            coeff = partial_coef_st
        k = data.draw(st.sampled_from((d - 1, d, 2 * d - 3)))
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        mult = graded_basis(k - d + 1)
        q = HomPoly.zero(k, dom)
        for pf in partials:
            terms = {e: data.draw(coeff) for e in mult if data.draw(st.booleans())}
            q = q + poly_mul(HomPoly(k - d + 1, terms, domain=dom), pf)
        outside = fiber.dim(k) > 0 and data.draw(st.booleans())
        if outside:  # a cobasis monomial takes q out of the ideal
            q = q + HomPoly.monomial(fiber.cobasis(k)[-1], dom.one(), domain=dom)
        event(f"outside the ideal: {outside}")
        gens = reference_generators(fiber.F, k)
        want = LinearSolver(Matrix(list(zip(*gens)), ncols=len(gens), domain=dom))
        got = fiber.column_solver(k).try_solve(q.to_vector())
        assert got == want.try_solve(q.to_vector())
        if outside:
            assert got is None
            with pytest.raises(NotKernelSectionError):
                membership_witness(fiber, q)
            return
        w = membership_witness(fiber, q)
        acc = HomPoly.zero(k, dom)
        for part, pf in zip(w.parts, partials):
            acc = acc + poly_mul(part, pf)
        assert acc == q


def _outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestPrecisionPrefix:
    """A jet fibre serves every precision below its own: the precision-m
    system is the prefix M_0..M_{m-1} of the top one, so each result must
    equal the one from a fibre built at precision m."""

    T0 = Fraction(1)
    TOP = 4

    @pytest.fixture(scope="class")
    def top(self, mix):
        return (
            make_fiber(specialize(mix, self.T0)).thicken(jet_expand(mix, self.T0, self.TOP)),
            jet_expand(t_derivative(mix), self.T0, self.TOP),
        )

    @staticmethod
    def _random_jet(rng, m):
        return Jet(tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)))

    def _random_jet_poly(self, rng, k, m):
        return HomPoly(k, {e: self._random_jet(rng, m) for e in graded_basis(k)})

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_results_match_the_fibre_built_at_m(self, mix, top, m):
        fiber, Ft = top
        own = make_fiber(specialize(mix, self.T0)).thicken(jet_expand(mix, self.T0, m))
        own_Ft = jet_expand(t_derivative(mix), self.T0, m)
        rng = random.Random(m)
        for k in (4, 5):
            p = self._random_jet_poly(rng, k, m)
            assert fiber.normal_form(p) == own.normal_form(p)
        p1 = self._random_jet_poly(rng, 1, m)
        assert theta_eval(fiber, Ft, p1) == theta_eval(own, own_Ft, p1)
        # a*Y0 + b*Y1 is killed by theta, so its derivative exists
        section = HomPoly(
            1, {(1, 0, 0): self._random_jet(rng, m), (0, 1, 0): self._random_jet(rng, m)}
        )
        got = _outcome(gm_derivative, fiber, Ft, section)
        assert got == _outcome(gm_derivative, own, own_Ft, section)
        if m > 1:
            assert got.domain.precision == m - 1

    def test_longer_rhs_exhausts_the_solver(self, top):
        fiber, _ = top
        solver = fiber.column_solver(5)
        with pytest.raises(PrecisionExhaustedError):
            solver.try_solve(self.TOP + 1, [])
