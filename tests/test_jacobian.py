"""Graded Jacobian-ring fibres: dimensions, normal forms, duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from flatunitary import exactcore, jacobian
from flatunitary.exactcore import RATFUN, Jet, LinearSolver, Matrix, RatFun
from flatunitary.family import (
    FamilySpec,
    NoSmoothFibreError,
    generic_fibre,
    jet_expand,
    parse_family,
    pick_basepoint,
    specialize,
    t_derivative,
)
from flatunitary.jacobian import (
    RingElement,
    SingularFibreError,
    genus_of_degree,
    make_fiber,
    standard_degrees,
)
from flatunitary.gaussmanin import theta_eval
from flatunitary.unitary import _jet_fibre, _torus_classes
from flatunitary.polyring import HomPoly, graded_basis, monomial_count, poly_mul, poly_partial
from oracles import (
    jacobian_quotient_dims,
    naive_inert_sections,
    naive_kernel_dim,
    naive_ratfun_corank,
    naive_ratfun_normal_form,
    naive_ratfun_rref,
    naive_rref,
    reference_generators,
    sym_trivariate,
)


def _fermat(d):
    one = Fraction(1)
    return HomPoly(d, {(d, 0, 0): one, (0, d, 0): one, (0, 0, d): one})


def _random_hompoly(rng, degree, bound=3):
    basis = graded_basis(degree)
    terms = {e: Fraction(rng.randint(-bound, bound)) for e in basis}
    if all(c == 0 for c in terms.values()):
        terms[basis[0]] = Fraction(1)
    return HomPoly(degree, terms)


class TestBasicInvariants:
    def test_genus_formula(self):
        assert [genus_of_degree(d) for d in (3, 4, 5, 6)] == [1, 3, 6, 10]

    def test_standard_degrees(self):
        assert standard_degrees(4) == (1, 4, 5, 6)
        assert standard_degrees(3) == (0, 3, 3, 3)

    def test_fermat_quartic_dimensions(self):
        # Hilbert series of the quotient is ((1 - q^3)/(1 - q))^3
        # = 1 + 3q + 6q^2 + 7q^3 + 6q^4 + 3q^5 + q^6
        fiber = make_fiber(_fermat(4))
        assert fiber.dim(1) == 3
        assert fiber.dim(4) == 6
        assert fiber.dim(5) == 3
        assert fiber.dim(6) == 1
        assert fiber.dim(7) == 0

    def test_dimensions_match_groebner_oracle(self):
        rng = random.Random(11)
        for _ in range(3):
            p = _random_hompoly(rng, 4)
            try:
                fiber = make_fiber(p)
            except SingularFibreError:
                continue
            want = jacobian_quotient_dims(sym_trivariate(p), (1, 4, 5, 6, 7))
            got = {k: fiber.dim(k) for k in (1, 4, 5, 6, 7)}
            assert got == want


class TestSingularityDetection:
    def test_cuspidal_cubic_rejected(self):
        p = HomPoly(3, {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1)})
        with pytest.raises(SingularFibreError):
            make_fiber(p)

    def test_mix_family_singular_values(self, mix):
        # the discriminant of the deformed Fermat quartic vanishes at t = 2
        for t0 in (Fraction(2), Fraction(-2)):
            with pytest.raises(SingularFibreError):
                make_fiber(specialize(mix, t0))
        make_fiber(specialize(mix, Fraction(1)))  # and not at t = 1

    def test_zero_fibre_is_singular(self):
        # every coefficient carries T, so the fibre at t = 0 is the zero
        # form: every point is singular and R_7 is all of degree 7
        fam = parse_family("T*Y0^4 + T*Y1^4 + T*Y2^4")
        with pytest.raises(SingularFibreError, match="dim R_7 = 36") as exc:
            make_fiber(specialize(fam, Fraction(0)))
        assert exc.value.degree == 7


class TestFunctionFieldCertificate:
    """Over Q(t) the certificate tests the Z[t] rows at a few integer
    points, then falls back to exact integer ranks at enough points to
    see every nonzero minor."""

    def test_generically_singular_family_is_refused(self):
        # singular at every t; the Z[t] rows have t-degree 2
        fam = parse_family("Y0^4 + T*Y1^4 + Y0^2*Y1*Y2 + T^2*Y1^2*Y2^2")
        with pytest.raises(SingularFibreError, match=r"\(dim R_7 = 3\)") as exc:
            make_fiber(generic_fibre(fam))
        assert exc.value.degree == 7

    def test_smooth_family_singular_at_every_test_point(self):
        # a cusp plus p(t) * (Y0^3 + Y2^3), p vanishing at each of the
        # points 1, -1, 2, -2, 3 the reduction test tries: generically
        # smooth, certified by the exact ranks
        assert all(a**5 - 3 * a**4 - 5 * a**3 + 15 * a**2 + 4 * a - 12 == 0
                   for a in jacobian._CERT_POINTS)
        fam = parse_family(
            "Y1^2*Y2 - Y0^3"
            " + T^5*Y0^3 - 3*T^4*Y0^3 - 5*T^3*Y0^3 + 15*T^2*Y0^3 + 4*T*Y0^3 - 12*Y0^3"
            " + T^5*Y2^3 - 3*T^4*Y2^3 - 5*T^3*Y2^3 + 15*T^2*Y2^3 + 4*T*Y2^3 - 12*Y2^3"
        )
        fiber = make_fiber(generic_fibre(fam))
        assert fiber.certificate == {"degree": 4, "dim": 0, "method": "exact"}


class TestNormalForm:
    def test_ideal_members_reduce_to_zero(self, mix):
        rng = random.Random(5)
        fiber = make_fiber(specialize(mix, Fraction(1)))
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        for _ in range(20):
            combo = HomPoly.zero(5)
            for i in range(3):
                combo = combo + poly_mul(_random_hompoly(rng, 2), partials[i].scale(
                    Fraction(rng.randint(-2, 2))
                ))
            assert fiber.normal_form(combo).is_zero

    def test_normal_form_is_ideal_invariant(self, mix):
        rng = random.Random(6)
        fiber = make_fiber(specialize(mix, Fraction(1)))
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        p = _random_hompoly(rng, 5)
        shifted = p
        for i in range(3):
            shifted = shifted + poly_mul(_random_hompoly(rng, 2), partials[i])
        assert fiber.normal_form(shifted).coords == fiber.normal_form(p).coords

    def test_representative_round_trip(self, mix):
        fiber = make_fiber(specialize(mix, Fraction(1)))
        for k in (1, 4, 5, 6):
            for idx in range(fiber.dim(k)):
                coords = tuple(
                    Fraction(1) if i == idx else Fraction(0)
                    for i in range(fiber.dim(k))
                )
                from flatunitary.jacobian import RingElement

                e = RingElement(k, coords)
                assert fiber.normal_form(fiber.representative(e)).coords == coords

    def test_jet_normal_form_specializes_at_order_zero(self, mix):
        t0 = Fraction(1)
        rfiber = make_fiber(specialize(mix, t0))
        jfiber = rfiber.thicken(jet_expand(mix, t0, 3))
        p = HomPoly(5, {(2, 2, 1): Fraction(1)})
        jp = p.map_coefficients(lambda c: Jet.from_fraction(c, 3), domain=jfiber.F.domain)
        jnf = jfiber.normal_form(jp)
        rnf = rfiber.normal_form(p)
        assert tuple(c.order0 for c in jnf.coords) == rnf.coords

    def test_thicken_checks_the_order0_part(self, mix):
        rfiber = make_fiber(specialize(mix, Fraction(1)))
        jfiber = rfiber.thicken(jet_expand(mix, Fraction(1), 3))
        assert jfiber.certificate is rfiber.certificate
        assert all(jfiber.dim(k) == rfiber.dim(k) for k in standard_degrees(4))
        with pytest.raises(ValueError):
            rfiber.thicken(jet_expand(mix, Fraction(-1), 3))
        with pytest.raises(ValueError):
            jfiber.thicken(jet_expand(mix, Fraction(1), 3))
        # thickening is the one way to a jet fibre
        with pytest.raises(ValueError, match="thickening"):
            make_fiber(jet_expand(mix, Fraction(1), 3))


class TestSoclePairing:
    def test_bilinear_in_both_slots(self, mix):
        from flatunitary.jacobian import RingElement

        rng = random.Random(7)
        fiber = make_fiber(specialize(mix, Fraction(1)))
        d = 4
        for _ in range(10):
            p = fiber.normal_form(_random_hompoly(rng, d - 3))
            p2 = fiber.normal_form(_random_hompoly(rng, d - 3))
            q = fiber.normal_form(_random_hompoly(rng, 2 * d - 3))
            r = fiber.normal_form(_random_hompoly(rng, 2 * d - 3))
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            q_plus = RingElement(
                2 * d - 3,
                tuple(a + lam * b for a, b in zip(q.coords, r.coords)),
            )
            assert fiber.socle_pairs((p,), q_plus)[0] == fiber.socle_pairs(
                (p,), q
            )[0] + lam * fiber.socle_pairs((p,), r)[0]
            p_plus = RingElement(
                d - 3,
                tuple(a + lam * b for a, b in zip(p.coords, p2.coords)),
            )
            pq, p2q = fiber.socle_pairs((p, p2), q)
            assert fiber.socle_pairs((p_plus,), q)[0] == pq + lam * p2q
            with pytest.raises(ValueError):
                fiber.socle_pairs((q,), p)

    def test_jet_fibre_has_no_socle_table(self, mix):
        jfiber = make_fiber(specialize(mix, Fraction(1))).thicken(jet_expand(mix, Fraction(1), 2))
        p = RingElement(1, (Jet((1, 0)),) * 3)
        q = RingElement(5, (Jet((0, 1)),) * 3)
        with pytest.raises(exactcore.DomainMismatchError):
            jfiber.socle_pairs((p,), q)

    def test_pairing_is_nondegenerate_on_fermat(self):
        # monomial bases of R_1 and R_5 pair into the socle Y0^2 Y1^2 Y2^2
        fiber = make_fiber(_fermat(4))
        kernel_rows = []
        for e1 in fiber.cobasis(1):
            row = []
            p = fiber.normal_form(HomPoly.monomial(e1, Fraction(1)))
            for e5 in fiber.cobasis(5):
                q = fiber.normal_form(HomPoly.monomial(e5, Fraction(1)))
                row.append(fiber.socle_pairs((p,), q)[0])
            kernel_rows.append(row)
        from oracles import naive_kernel_dim

        assert naive_kernel_dim(kernel_rows, fiber.dim(5)) == 0


@st.composite
def fermat_deformation_st(draw):
    """(fibre over Q, F_T) of a Fermat quartic or quintic deformed by one
    to three non-Fermat monomials, at a small rational t0."""
    d = draw(st.sampled_from((4, 5)))
    pool = [e for e in graded_basis(d) if max(e) < d]
    monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    Ft = HomPoly(d, {e: draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for e in monos})
    t0 = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    try:
        fiber = make_fiber(_fermat(d) + Ft.scale(t0))
    except SingularFibreError:
        assume(False)
    return fiber, Ft


class TestThetaSelfAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(fermat_deformation_st(), st.data())
    def test_theta_is_self_adjoint_for_the_socle_pairing(self, deformation, data):
        # lambda(a * theta(b)) = lambda(a * b * F_T) = lambda(theta(a) * b)
        fiber, Ft = deformation
        g = fiber.genus
        coords = st.lists(coef_st, min_size=g, max_size=g).map(tuple)
        a = RingElement(fiber.d - 3, data.draw(coords))
        b = RingElement(fiber.d - 3, data.draw(coords))
        left = fiber.socle_pairs((a,), theta_eval(fiber, Ft, b))[0]
        assert left == fiber.socle_pairs((b,), theta_eval(fiber, Ft, a))[0]
        event("nonzero" if left else "zero")


class TestHiggsField:
    def test_mix_generic_kernel(self, mix):
        from flatunitary.exactcore import kernel_basis

        fiber = make_fiber(generic_fibre(mix))
        Ft = generic_fibre(t_derivative(mix))
        H = fiber.higgs_matrix(fiber.delta_class(Ft))
        basis = kernel_basis(H)
        assert len(basis) == 2
        # the kernel is spanned by the first two coordinate directions
        order0 = sorted(tuple(1 if x == 1 else 0 for x in v) for v in basis)
        assert order0 == [(0, 1, 0), (1, 0, 0)]

    def test_degree_mismatch_rejected(self, mix):
        fiber = make_fiber(generic_fibre(mix))
        with pytest.raises(ValueError):
            fiber.delta_class(HomPoly.zero(3, domain=fiber.F.domain))


# ---------------------------------------------------------------------------
# integral rational fibres against a Fraction reference


coef_st = st.builds(
    Fraction,
    st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4)),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def rational_curve_st(draw):
    """A degree 3-5 curve a0 Y0^d + a1 Y1^d + a2 Y2^d + (a few terms),
    coefficient denominators 1-6, so the partials carry different scales.
    About one draw in three is singular by construction: no term Y_i^d or
    Y_i^(d-1) Y_j (singular at the i-th coordinate point), or no Y_i at
    all (the partial F_i is identically zero)."""
    d = draw(st.integers(min_value=3, max_value=5))
    basis = graded_basis(d)
    terms = {e: draw(coef_st) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    for e in draw(st.lists(st.sampled_from(basis), max_size=3)):
        terms[e] = draw(coef_st)
    kind = draw(st.sampled_from(("general", "point", "general", "no variable", "general")))
    event(kind)
    i = draw(st.integers(min_value=0, max_value=2))
    if kind == "point":
        terms = {e: c for e, c in terms.items() if e[i] < d - 1}
    elif kind == "no variable":
        terms = {e: c for e, c in terms.items() if e[i] == 0}
    return HomPoly(d, terms)


def _reference_normal_form(rref_rows, pivots, cobasis, p):
    v = p.to_vector()
    return tuple(
        v[j] - sum((v[c] * row[j] for row, c in zip(rref_rows, pivots)), Fraction(0))
        for j in cobasis
    )


def _random_form(draw, k):
    return HomPoly(k, {e: draw(coef_st) for e in graded_basis(k) if draw(st.booleans())})


class TestIntegralRationalFibre:
    @settings(max_examples=60, deadline=None)
    @given(rational_curve_st(), st.data())
    def test_matches_fraction_reference(self, F, data):
        d = F.degree
        top = 3 * d - 5
        dim_top = naive_kernel_dim(reference_generators(F, top), len(graded_basis(top)))
        if dim_top:
            event("singular")
            with pytest.raises(SingularFibreError) as err:
                make_fiber(F)
            assert err.value.degree == top
            assert f"(dim R_{top} = {dim_top})" in str(err.value)
            return
        fiber = make_fiber(F)
        reference = {}
        for k in standard_degrees(d):
            gens = reference_generators(F, k)
            rows, pivots = naive_rref(gens) if gens else ([], ())
            cobasis = tuple(j for j in range(len(graded_basis(k))) if j not in pivots)
            assert tuple(c[0] for c in fiber._data(k)) == cobasis
            assert fiber.cobasis(k) == tuple(graded_basis(k)[j] for j in cobasis)
            reference[k] = (rows[: len(pivots)], pivots, cobasis)
            for _ in range(2):
                p = _random_form(data.draw, k)
                assert fiber.normal_form(p).coords == _reference_normal_form(*reference[k], p)
        p = RingElement(d - 3, tuple(data.draw(coef_st) for _ in range(fiber.dim(d - 3))))
        q = RingElement(
            2 * d - 3, tuple(data.draw(coef_st) for _ in range(fiber.dim(2 * d - 3)))
        )
        product = poly_mul(fiber.representative(p), fiber.representative(q))
        want = _reference_normal_form(*reference[3 * d - 6], product)
        assert fiber.socle_pairs((p,), q)[0] == want[-1]


# ---------------------------------------------------------------------------
# generic fibres over Q(t) on Z[t] rows against sympy over QQ(t)


@st.composite
def ratfun_family_st(draw):
    """A degree 3-5 family: a0 Y0^d + a1 Y1^d + a2 Y2^d plus terms with T
    and T^2 coefficients (one to three; one at degree 5), all coefficients
    rational with denominators 1-6. About one draw in three is singular
    for every t, as in rational_curve_st; those are cubics and quartics.
    The limits at degree 5 keep the sympy reference, and the exact rank
    behind a failed certificate, to seconds rather than minutes."""
    kind = draw(st.sampled_from(("general", "point", "general", "no variable", "general")))
    event(kind)
    d = draw(st.integers(min_value=3, max_value=5 if kind == "general" else 4))
    basis = graded_basis(d)
    terms = {e: (draw(coef_st),) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    for e in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=1 if d == 5 else 3)):
        terms[e] = (Fraction(0), draw(coef_st), draw(coef_st))
    i = draw(st.integers(min_value=0, max_value=2))
    if kind == "point":
        terms = {e: c for e, c in terms.items() if e[i] < d - 1}
    elif kind == "no variable":
        terms = {e: c for e, c in terms.items() if e[i] == 0}
    return FamilySpec(d, terms)


def _ratfun_st():
    """A rational function with a t-denominator: a polynomial of degree
    at most 2 over t + c or t^2 + c t + c'."""
    num = st.lists(coef_st, min_size=1, max_size=3)
    den = st.lists(coef_st, min_size=1, max_size=2).map(lambda cs: (*cs, Fraction(1)))
    return st.builds(RatFun, num, den)


def _random_ratfun_form(draw, k):
    monomials = draw(st.lists(st.sampled_from(graded_basis(k)), max_size=4))
    return HomPoly(k, {e: draw(_ratfun_st()) for e in monomials}, domain=RATFUN)


def _pairs(entries):
    return [(e.num, e.den) for e in entries]


class TestGenericFibreOverZt:
    @settings(max_examples=15, deadline=None)
    @given(ratfun_family_st(), st.data())
    def test_matches_sympy_reference(self, fam, data):
        F = generic_fibre(fam)
        d = F.degree
        top = 3 * d - 5
        dim_top = naive_ratfun_corank([_pairs(g) for g in reference_generators(F, top)])
        if dim_top:
            event("singular")
            with pytest.raises(SingularFibreError) as err:
                make_fiber(F)
            assert err.value.degree == top
            assert f"(dim R_{top} = {dim_top})" in str(err.value)
            return
        fiber = make_fiber(F)
        reference = {}
        for k in standard_degrees(d):
            gens = reference_generators(F, k)
            rows, pivots = naive_ratfun_rref([_pairs(g) for g in gens]) if gens else ([], ())
            cobasis = tuple(j for j in range(len(graded_basis(k))) if j not in pivots)
            assert tuple(c[0] for c in fiber._data(k)) == cobasis
            assert fiber.cobasis(k) == tuple(graded_basis(k)[j] for j in cobasis)
            reference[k] = (rows[: len(pivots)], pivots, cobasis)
            p = _random_ratfun_form(data.draw, k)
            want = naive_ratfun_normal_form(*reference[k], _pairs(p.to_vector()))
            assert _pairs(fiber.normal_form(p).coords) == list(want)
        p = RingElement(d - 3, tuple(data.draw(_ratfun_st()) for _ in range(fiber.dim(d - 3))))
        q = RingElement(
            2 * d - 3, tuple(data.draw(_ratfun_st()) for _ in range(fiber.dim(2 * d - 3)))
        )
        product = poly_mul(fiber.representative(p), fiber.representative(q))
        want = naive_ratfun_normal_form(*reference[3 * d - 6], _pairs(product.to_vector()))
        got = fiber.socle_pairs((p,), q)[0]
        assert (got.num, got.den) == want[-1]

    def test_certifying_a_fibre_builds_no_matrix_and_no_rref(self, monkeypatch):
        built = []
        real_init = exactcore.Matrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        def no_rref(matrix):
            raise AssertionError("rref called while building a certified fibre")

        monkeypatch.setattr(exactcore.Matrix, "__init__", counting_init)
        monkeypatch.setattr(exactcore, "rref", no_rref)
        monkeypatch.setattr(jacobian, "rref", no_rref)
        fam = parse_family("Y0^5 + Y1^5 + Y2^5 + T*Y0^2*Y1^3 + 1/3*T^2*Y0*Y1^2*Y2^2")
        fiber = make_fiber(generic_fibre(fam))
        assert fiber.certificate["method"] == "reduction"
        p = RingElement(2, (RatFun((1,), (2, 1)),) * fiber.dim(2))
        q = RingElement(7, (RatFun((0, 1), (1,)),) * fiber.dim(7))
        fiber.socle_pairs((p,), q)
        assert built == []


# ---------------------------------------------------------------------------
# torus classes against the whole generator matrix


@st.composite
def class_case_st(draw):
    """(kind, family, F): a Fermat curve of degree 3-5 with T in one to
    three more monomials, and its fibre over Q(t) ("ratfun"), at a drawn
    t0 ("rational"), or at the root t0 of one monomial's T-coefficient
    c (T - t0) ("vanishing"): that fibre drops the monomial, so its lattice
    of exponent differences can be finer than the family's. Over Q(t) a
    quartic gets at most two more monomials and a quintic one, which keeps
    the whole-matrix reference to about a second."""
    kind = draw(st.sampled_from(("ratfun", "rational", "vanishing")))
    d = draw(st.integers(min_value=3, max_value=5))
    unit = st.sampled_from((1, -1, 2, -2, 3, -3))
    terms = {e: (Fraction(draw(unit)),) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    pool = [e for e in graded_basis(d) if max(e) < d]
    most = {4: 2, 5: 1}.get(d, 3) if kind == "ratfun" else 3
    monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique=True))
    for e in monos:
        terms[e] = (draw(coef_st), draw(coef_st))
    t0 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    if kind == "vanishing":
        c = draw(coef_st)
        terms[monos[0]] = (-c * t0, c)
    fam = FamilySpec(d, terms)
    return kind, fam, generic_fibre(fam) if kind == "ratfun" else specialize(fam, t0)


# the CI's generically singular quintic: no fibre is smooth
SINGULAR_QUINTIC = (
    "3/4*Y0^5 + T*Y0^4*Y1 - 3/5*T^2*Y0^4*Y1 + 1/4*T*Y0^2*Y1^2*Y2"
    " + 2/5*T^2*Y0^2*Y1^2*Y2 + 2/3*Y1^5 - T*Y1^5 + 4/3*T*Y1^2*Y2^3 + 1/2*T^2*Y1^2*Y2^3"
)


class TestClassesAgainstTheWholeMatrix:
    """A fibre row-reduces and solves one torus class at a time; the
    cobasis, normal forms, socle pairing and witnesses equal those of one
    exactcore.rref and one LinearSolver on the whole generator matrix."""

    @settings(max_examples=40, deadline=None)
    @given(class_case_st(), st.data())
    def test_classes_match_the_whole_matrix(self, case, data):
        kind, fam, F = case
        try:
            fiber = make_fiber(F)
        except SingularFibreError:
            event("singular")
            return
        d, dom = fiber.d, fiber.domain
        if kind == "vanishing":
            assert len(F.terms) < len(fam.terms)
        count = lambda key: len({key(x, y) for x, y, _ in graded_basis(2 * d - 3)})  # noqa: E731
        event(f"{kind}: finer lattice {count(fiber._key) > count(jacobian.class_key(fam.terms))}")
        coeff = _ratfun_st() if dom == RATFUN else coef_st

        def form(k):
            monos = data.draw(st.lists(st.sampled_from(graded_basis(k)), min_size=1, max_size=4))
            return HomPoly(k, {e: data.draw(coeff) for e in monos}, domain=dom)

        whole = {}
        for k in (d - 3, d - 1, d, 2 * d - 3, 3 * d - 6):
            n, gens = monomial_count(k), reference_generators(F, k)
            red = exactcore.rref(Matrix(gens, ncols=n, domain=dom)) if gens else None
            pivots = red.pivots if gens else ()
            cobasis = tuple(j for j in range(n) if j not in pivots)
            assert tuple(c[0] for c in fiber._data(k)) == cobasis
            rows = red.matrix.rows if gens else ()

            def normal_form(v):
                return tuple(
                    v[j] - sum((v[c] * row[j] for c, row in zip(pivots, rows)), dom.zero())
                    for j in cobasis
                )

            whole[k] = normal_form
            p = form(k)
            assert fiber.normal_form(p).coords == normal_form(p.to_vector())
            if not gens or k == 3 * d - 6:
                continue
            b = [dom.zero()] * n
            for g in data.draw(st.lists(st.sampled_from(range(len(gens))), min_size=1, max_size=4)):
                c = data.draw(coeff)
                b = [x + c * y for x, y in zip(b, gens[g])]
            if cobasis and data.draw(st.booleans()):
                b[cobasis[-1]] += dom.one()  # out of the ideal
            solver = LinearSolver(Matrix(list(zip(*gens)), ncols=len(gens), domain=dom))
            assert fiber.column_solver(k).try_solve(tuple(b)) == solver.try_solve(b)
        p = fiber.normal_form(form(d - 3))
        q = fiber.normal_form(form(2 * d - 3))
        product = poly_mul(fiber.representative(p), fiber.representative(q))
        assert fiber.socle_pairs((p,), q) == (whole[3 * d - 6](product.to_vector())[-1],)

    @pytest.mark.parametrize(
        "text,t0,detail",
        [
            ("Y1^2*Y2 - Y0^3", Fraction(3), "dim R_4 = 2"),  # the cusp fixture
            ("Y1^2*Y2 - Y0^3", None, "dim R_4 = 2"),
            (SINGULAR_QUINTIC, None, "dim R_10 = 4"),
            (SINGULAR_QUINTIC, Fraction(1, 2), "dim R_10 = 4"),
            # smooth over Q(t) and at t = 1, singular at t = 2
            ("Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2", Fraction(2), "dim R_7 = 6"),
        ],
        ids=["cusp", "cusp-generic", "quintic-generic", "quintic", "special-t0"],
    )
    def test_refusal_text_is_the_whole_matrix_corank(self, text, t0, detail):
        # over Q(t) the whole matrix is taken at t = 1/3: no specialization
        # has larger rank, and this one has the generic rank
        fam = parse_family(text)
        F = generic_fibre(fam) if t0 is None else specialize(fam, t0)
        top = 3 * fam.degree - 5
        n, G = monomial_count(top), specialize(fam, Fraction(1, 3) if t0 is None else t0)
        whole = exactcore.rref(Matrix(reference_generators(G, top), ncols=n))
        assert detail == f"dim R_{top} = {n - whole.rank}"
        with pytest.raises(SingularFibreError) as err:
            make_fiber(F)
        assert err.value.degree == top and str(err.value).endswith(f"({detail})")


# ---------------------------------------------------------------------------
# class dimensions from degree 2d-4 up by socle duality


@st.composite
def socle_case_st(draw, kinds):
    """(kind, family, seed): a Fermat curve of degree 3-6 plus c T^j
    (j = 1, 2 or 3) on one to three more monomials, a fibre kind of kinds
    and a basepoint-search seed. Over Q(t) and jets the degree stays at
    most 5 and a quintic over Q(t) gets at most two more monomials, which
    keeps a class-by-class Z[t] elimination of degrees 6-9 to about a
    second."""
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(min_value=3, max_value=6 if kind == "rational" else 5))
    unit = st.sampled_from((1, -1, 2, -2, 3, -3))
    terms = {e: (Fraction(draw(unit)),) for e in ((d, 0, 0), (0, d, 0), (0, 0, d))}
    pool = [e for e in graded_basis(d) if max(e) < d]
    most = 2 if (kind, d) == ("ratfun", 5) else 3
    for e in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique=True)):
        terms[e] = (Fraction(0),) * draw(st.integers(min_value=1, max_value=3)) + (draw(coef_st),)
    return kind, FamilySpec(d, terms), draw(st.integers(min_value=0, max_value=20))


class TestSocleDuality:
    """From degree 2d-4 up a class's dimension is a monomial count
    (socle_dual_dims); fibres row-reduce only the classes it counts, and
    _torus_classes finds the classes theta is blind to by the same count."""

    @settings(max_examples=40, deadline=None)
    @given(socle_case_st(("rational", "ratfun")))
    def test_counts_are_the_class_coranks(self, case):
        kind, fam, seed = case
        try:
            fiber = pick_basepoint(fam, seed).fiber if kind == "rational" else make_fiber(generic_fibre(fam))
        except (SingularFibreError, NoSmoothFibreError):
            event("singular")
            return
        d, e = fiber.d, next(iter(fiber.F.terms))
        assert jacobian.socle_dual_dims(fiber._key, e, 2 * d - 5) is None
        for k in range(2 * d - 4, 3 * d - 5):
            dims = jacobian.socle_dual_dims(fiber._key, e, k)
            blocks = fiber._blocks(k)
            assert set(dims) <= set(blocks)
            for c, (_, cols, rows) in blocks.items():
                assert dims[c] == len(cols) - len(exactcore.rref_rows(rows, len(cols), fiber._ring)[0])
            assert fiber.dim(k) == sum(dims.values())

    @settings(max_examples=25, deadline=None)
    @given(socle_case_st(("ratfun", "jet")))
    def test_inert_sections_match_the_cobasis_rule(self, case):
        kind, fam, seed = case
        Ft = t_derivative(fam)
        try:
            if kind == "ratfun":
                fiber, Ft = make_fiber(generic_fibre(fam)), generic_fibre(Ft)
            else:
                fiber, Ft = _jet_fibre(fam, (bp := pick_basepoint(fam, seed)).t0, bp.fiber, 2)
        except (SingularFibreError, NoSmoothFibreError):
            event("singular")
            return
        cobasis = fiber.cobasis(fam.degree - 3)
        classes = _torus_classes(fiber, Ft, cobasis)
        blind = sorted(j for seen, js in classes if not seen for j in js)
        event(f"{kind}: {len(blind)} theta-blind")
        assert sorted(j for _, js in classes for j in js) == list(range(len(cobasis)))
        assert blind == [j for j, inert in enumerate(naive_inert_sections(fiber, Ft, cobasis)) if inert]
