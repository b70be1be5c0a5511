"""Family parsing, printing, specialization, and basepoint search."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from flatunitary import family
from flatunitary.exactcore import Jet
from flatunitary.jacobian import SingularFibreError
from flatunitary.family import (
    _MAX_DEGREE,
    FamilyParseError,
    FamilySpec,
    NoSmoothFibreError,
    candidate_basepoints,
    jet_expand,
    parse_family,
    pick_basepoint,
    print_family,
    specialize,
    t_derivative,
)
from flatunitary.polyring import graded_basis
from oracles import (
    T,
    Y0,
    Y1,
    Y2,
    naive_parse_family,
    naive_print_family,
    sym_family,
    sym_trivariate,
)


class TestParsing:
    def test_coefficients_and_signs(self):
        fam = parse_family("2*Y0^3 - 1/2*Y1^2*Y2 + T^2*Y2^3 - T*Y0*Y1*Y2")
        assert fam.degree == 3
        assert fam.terms[(3, 0, 0)] == (Fraction(2),)
        assert fam.terms[(0, 2, 1)] == (Fraction(-1, 2),)
        assert fam.terms[(0, 0, 3)] == (Fraction(0), Fraction(0), Fraction(1))
        assert fam.terms[(1, 1, 1)] == (Fraction(0), Fraction(-1))

    def test_cancellation_removes_terms(self):
        fam = parse_family("Y0^3 + Y1^3 + Y2^3 + T*Y0^3 - T*Y0^3")
        assert fam.terms[(3, 0, 0)] == (Fraction(1),)

    @pytest.mark.parametrize(
        "text",
        [
            "Y0^4 + Y1^3",  # not homogeneous
            "Y0 + Y1 + Y2",  # degree below three
            "Y0^3 - Y0^3",  # the zero polynomial
            "Y0^3 + 3Y1^3",  # implicit product
            "Y3^3",  # unknown variable
            "Y0^3 +",  # dangling operator
            "",
        ],
    )
    def test_rejects_bad_input(self, text):
        with pytest.raises(FamilyParseError):
            parse_family(text)

    def test_error_carries_position(self):
        with pytest.raises(FamilyParseError) as exc:
            parse_family("Y0^3 + @")
        assert exc.value.pos == 7

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("Y0^3+Y1^3+Y2^\u00b2", 13),  # superscript two
            ("1" * 5000 + "*Y0^3+Y1^3+Y2^3", 0),  # past the int string limit
            ("Y0^3+Y1^3+1/" + "1" * 5000, 10),
            ("\u0663*Y0^3+Y1^3+Y2^3", 0),  # Arabic-Indic three
        ],
        ids=["superscript", "long-numerator", "long-denominator", "non-ascii-digit"],
    )
    def test_literals_outside_the_grammar_are_parse_errors(self, text, pos):
        with pytest.raises(FamilyParseError) as exc:
            parse_family(text)
        assert exc.value.pos == pos

    def test_t_power_is_capped_at_the_term(self):
        top = parse_family("Y0^3+Y1^3+Y2^3+T^1000*Y0^3")
        assert len(top.terms[(3, 0, 0)]) == 1001
        # the cap is on the term's total T power; the error names the term
        for text, pos in [
            ("Y0^3+Y1^3+Y2^3+T^1000000000*Y0^3", 15),
            ("Y0^3+Y1^3+Y2^3 - 2*T^500*Y0^2*T^501*Y1", 17),
        ]:
            with pytest.raises(FamilyParseError, match="T power .* is above 1000") as exc:
                parse_family(text)
            assert exc.value.pos == pos

    def test_curve_degree_is_capped(self):
        top = _MAX_DEGREE
        assert parse_family(f"Y0^{top}+Y1^{top}+T*Y2^{top}").degree == top
        # the whole curve is refused, so the error points at its start
        for degree in (top + 1, 100000):
            text = f"Y0^3*Y1^{degree - 3} + Y2^{degree}"
            with pytest.raises(FamilyParseError, match=f"curve degree {degree} is above {top}") as exc:
                parse_family(text)
            assert exc.value.pos == 0


@st.composite
def family_st(draw, degrees=(3,)):
    """{(Y exponents, T power): coefficient} of one drawn degree."""
    exps = graded_basis(draw(st.sampled_from(degrees)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return draw(
        st.dictionaries(
            st.tuples(st.sampled_from(exps), st.integers(min_value=0, max_value=2)),
            coeff,
            min_size=1,
            max_size=6,
        )
    )


@st.composite
def family_spec_st(draw):
    """FamilySpec of degree 0-6, zero coefficient lists included."""
    degree = draw(st.integers(min_value=0, max_value=6))
    coeffs = st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4
    )
    terms = draw(
        st.dictionaries(st.sampled_from(graded_basis(degree)), coeffs, max_size=5)
    )
    return FamilySpec(degree, terms)


def _well_formed_text(raw, sep=" + "):
    """The nonzero terms of a family_st draw as family text."""
    return sep.join(
        f"{q}*Y0^{a}*Y1^{b}*Y2^{c}" + (f"*T^{k}" if k else "")
        for ((a, b, c), k), q in raw.items()
        if q
    )


TOKEN_ALPHABET = [
    "Y0", "Y1", "Y2", "Y3", "Y", "T", "+", "-", "*", "^", "/", "/0", "/3",
    "0", "1", "2", "3", "12", "Y0^3", "Y1^3", "Y2^3", " ", "\t", "@", "x",
    "T^600",
]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FamilyParseError as exc:
        return str(exc), exc.pos


class TestAgainstTheTwoPassForm:
    """parse_family and print_family against the scanner, term loop,
    accumulation pass and chunk printer they replaced (tests/oracles.py).
    Non-ASCII decimal digits are the one deliberate difference: the old
    scanner read them as digits, the grammar is ASCII."""

    def _check(self, text):
        assume(not any(not ch.isascii() and ch.isdigit() for ch in text))
        assert _parse_outcome(parse_family, text) == _parse_outcome(
            naive_parse_family, text
        )

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_parse_any_text(self, text):
        self._check(text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=16).map("".join))
    def test_parse_token_strings(self, text):
        self._check(text)

    @settings(max_examples=100, deadline=None)
    @given(family_st(degrees=range(3, 8)), st.sampled_from([" + ", "+", " - "]))
    def test_parse_well_formed_families(self, raw, sep):
        self._check(_well_formed_text(raw, sep))

    @pytest.mark.parametrize(
        "text",
        [
            "Y0^3+Y1^3+Y2^3+T^1001*Y0^3",
            "Y0^3+Y1^3+Y2^3+T^1000*Y0^3",
            "Y0^3 + T^600*Y1^3*T^401 + Y2^3 @",
            "Y0^3 + T^9999*Y1^2 + Y2^",
            f"Y0^{_MAX_DEGREE}+Y1^{_MAX_DEGREE}",
            f"Y0^{_MAX_DEGREE + 1}+Y1^{_MAX_DEGREE + 1}",
            "Y0^1212 @",
        ],
    )
    def test_parse_capped_t_powers(self, text):
        assert _parse_outcome(parse_family, text) == _parse_outcome(
            naive_parse_family, text
        )

    @settings(max_examples=300, deadline=None)
    @given(family_spec_st())
    def test_print(self, fam):
        assert print_family(fam) == naive_print_family(fam)


class TestPrinting:
    @settings(max_examples=60, deadline=None)
    @given(family_st(degrees=range(3, 8)))
    def test_print_parse_round_trip(self, raw):
        text = _well_formed_text(raw)
        if not text:
            return
        try:
            fam = parse_family(text)
        except FamilyParseError:
            return  # cancellation may produce the zero polynomial
        assert parse_family(print_family(fam)) == fam

    def test_canonical_form(self, mix):
        assert print_family(mix) == "Y0^4 + T*Y0^2*Y1^2 + Y1^4 + Y2^4"
        fam = parse_family("-Y0^3 + 1/2*Y1^3 + Y2^3")
        assert print_family(fam) == "-Y0^3 + 1/2*Y1^3 + Y2^3"


class TestCalculus:
    @settings(max_examples=40, deadline=None)
    @given(family_st(), st.integers(min_value=1, max_value=2))
    def test_t_derivative_matches_sympy(self, raw, order):
        text = _well_formed_text(raw)
        if not text:
            return
        try:
            fam = parse_family(text)
        except FamilyParseError:
            return
        got = sym_family(t_derivative(fam, order))
        want = sympy.expand(sympy.diff(sym_family(fam), T, order))
        assert sympy.expand(got - want) == 0

    def test_specialize_matches_sympy(self, mix):
        t0 = Fraction(3, 2)
        got = sym_trivariate(specialize(mix, t0))
        want = sympy.expand(sym_family(mix).subs(T, sympy.Rational(3, 2)))
        assert sympy.expand(got - want) == 0

    def test_jet_expand_matches_taylor(self, mix):
        t0 = Fraction(1)
        jp = jet_expand(mix, t0, 3)
        s = sympy.Symbol("s")
        shifted = sympy.expand(sym_family(mix).subs(T, t0 + s))
        for e, c in jp.terms.items():
            assert isinstance(c, Jet) and c.precision == 3
            mono = Y0 ** e[0] * Y1 ** e[1] * Y2 ** e[2]
            for k in range(3):
                want = shifted.coeff(mono) if shifted.has(mono) else 0
                want_k = sympy.Poly(shifted.coeff(s, k), Y0, Y1, Y2).coeff_monomial(
                    mono
                )
                assert c.coeffs[k] == Fraction(int(want_k.p), int(want_k.q))

    def test_t_free_family_has_zero_derivative(self, tfree):
        assert sym_family(t_derivative(tfree)) == 0


class TestBasepoints:
    def test_candidates_are_seed_deterministic(self):
        a = candidate_basepoints(123)
        b = candidate_basepoints(123)
        c = candidate_basepoints(124)
        assert a == b
        assert a != c
        assert len(a) == 301
        assert all(abs(x) <= 100 for x in a)
        halves = [x for x in a if x.denominator == 2]
        assert len(halves) == 100

    def test_candidate_order_matches_the_appended_list(self):
        # the order of the list a seed's shuffle starts from, built one
        # value at a time
        for seed in range(51):
            values = [Fraction(0)]
            for n in range(1, 101):
                values += [Fraction(n), Fraction(-n)]
            for k in range(1, 100, 2):
                values += [Fraction(k, 2), Fraction(-k, 2)]
            random.Random(seed).shuffle(values)
            assert candidate_basepoints(seed) == values

    def test_pick_first_smooth_candidate(self, mix):
        assert pick_basepoint(mix, 0).t0 == Fraction(52)
        assert pick_basepoint(mix, 7).t0 == Fraction(21)

    def test_rejections_are_reported(self, hesse):
        # the cubic pencil degenerates at t = -3; find a seed ordering that
        # visits it first and check the rejection is carried along
        for seed in range(200):
            cands = candidate_basepoints(seed)
            if cands[0] == Fraction(-3):
                bp = pick_basepoint(hesse, seed)
                assert bp.t0 == cands[1]
                assert len(bp.rejected) == 1
                assert bp.rejected[0][0] == Fraction(-3)
                return
        pytest.skip("no seed below 200 visits t = -3 first")

    def test_no_smooth_fibre_raises_with_log(self):
        cusp = parse_family("Y1^2*Y2 - Y0^3")
        with pytest.raises(NoSmoothFibreError) as exc:
            pick_basepoint(cusp, 0)
        assert len(exc.value.rejected) == 301

    @pytest.fixture
    def certified(self, monkeypatch):
        """Fibres passed to make_fiber through family's binding."""
        calls = []
        real = family.make_fiber

        def spy(F):
            calls.append(F)
            return real(F)

        monkeypatch.setattr(family, "make_fiber", spy)
        return calls

    def test_constant_family_certified_once(self, certified):
        # every fibre of a T-free family is one polynomial
        cusp = parse_family("Y1^2*Y2 - Y0^3")
        with pytest.raises(NoSmoothFibreError) as exc:
            pick_basepoint(cusp, 0)
        assert len(exc.value.rejected) == 301
        assert {reason for _, reason in exc.value.rejected} == {
            "singular fibre: certificate failed in degree 4 (dim R_4 = 2)"
        }
        assert len(certified) == 1

    def test_even_family_reuses_the_rejection_at_minus_t0(self, certified):
        # F(t0) = F(-t0), and every fibre is singular at (0:0:1): the
        # search certifies 0 and one of each pair +-t0, and the other
        # sign reuses that fibre's reason
        even = parse_family("Y1^2*Y2 - Y0^3 + T^2*Y1^3")
        with pytest.raises(NoSmoothFibreError) as exc:
            pick_basepoint(even, 0)
        rejected = exc.value.rejected
        assert [t0 for t0, _ in rejected] == candidate_basepoints(0)
        reason = dict(rejected)
        assert all(reason[t0] == reason[-t0] for t0 in reason)
        assert len(certified) == 151
        assert len({frozenset(F.terms.items()) for F in certified}) == 151

    def test_pick_skips_singular_values(self, mix):
        # the quartic is singular at t = +-2 only; a seed that visits one
        # of them first picks the next candidate and logs the rejection
        for seed in range(400):
            cands = candidate_basepoints(seed)
            if cands[0] in (Fraction(2), Fraction(-2)):
                bp = pick_basepoint(mix, seed)
                assert bp.t0 == cands[1]
                assert bp.rejected == (
                    (cands[0], "singular fibre: certificate failed in degree 7 (dim R_7 = 6)"),
                )
                return
        pytest.fail("no seed below 400 visits t = +-2 first")

    def test_given_t0_certifies_that_fibre_alone(self, mix, certified):
        bp = pick_basepoint(mix, 5, t0=1)
        assert bp.t0 == Fraction(1) and type(bp.t0) is Fraction
        assert bp.rejected == () and certified == [specialize(mix, 1)]
        assert bp.fiber.F == specialize(mix, 1)
        with pytest.raises(SingularFibreError):
            pick_basepoint(mix, t0=Fraction(-2))
        assert len(certified) == 2
