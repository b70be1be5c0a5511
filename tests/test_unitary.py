"""Kernel-chain ranks, second-order pairings, and their diagnostics."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import flatunitary._univar as up
from flatunitary import exactcore, jacobian, unitary
from flatunitary.exactcore import (
    RATFUN,
    ExactCoreError,
    Jet,
    JetSystemSolver,
    Matrix,
    PrecisionExhaustedError,
    _Columns,
    kernel_basis,
)
from flatunitary.family import (
    candidate_basepoints,
    generic_fibre,
    jet_expand,
    parse_family,
    pick_basepoint,
    specialize,
    t_derivative,
)
from flatunitary.gaussmanin import gm_derivative, theta_eval
from flatunitary.jacobian import JacobianFiber, RingElement, SingularFibreError, make_fiber
from flatunitary.polyring import HomPoly, graded_basis
from flatunitary.unitary import (
    _inert_sections,
    _stacked_kernel,
    default_jet_order,
    eta2_on_K,
    filtration_ranks,
    mu_principal,
    mu_report,
    pointwise_kernel,
    unitary_rank,
)
from oracles import (
    naive_eta2_on_K,
    naive_mu_principal,
    naive_stacked_kernel,
    naive_walk_chain,
)


class TestPointwiseKernel:
    def test_mix_kernel_at_smooth_point(self, mix):
        pk = pointwise_kernel(mix, t0=Fraction(1))
        assert sorted(pk.basis) == [
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_jumping_point_has_larger_kernel(self, mix_tt):
        # at t0 = 0 both deformation terms vanish to first order in two
        # directions, so the pointwise kernel exceeds the generic one
        pk = pointwise_kernel(mix_tt, t0=Fraction(0))
        assert len(pk.basis) == 2
        generic = filtration_ranks(mix_tt)
        assert generic.ranks[0] == 0

    def test_seeded_search(self, mix):
        pk = pointwise_kernel(mix, seed=0)
        assert pk.t0 == Fraction(52)


class TestFiltrationRanks:
    def test_mix_over_function_field(self, mix):
        res = filtration_ranks(mix)
        assert res.ranks == (2, 2, 2)
        assert res.rank_u == 2
        assert res.mode == "ratfun"
        assert res.t0 is None and res.order is None
        # the stable sections are spanned by Y0 and Y1
        spans = sorted(tuple(sorted(p.terms)) for p in res.sections)
        assert spans == [(((0, 1, 0)),), (((1, 0, 0)),)]

    def test_mix_in_jets_agrees(self, mix):
        res = unitary_rank(mix, mode="jet", seed=0).primary
        assert res.ranks == (2, 2, 2)
        assert res.order == default_jet_order(3) == 10
        assert res.t0 == Fraction(52)

    def test_t_free_family_is_fully_flat(self, tfree):
        res = filtration_ranks(tfree)
        assert res.ranks == (3, 3, 3)
        jet = unitary_rank(tfree, mode="jet", seed=0).primary
        assert jet.ranks == (3, 3, 3)

    def test_cubic_pencil_has_empty_kernel(self, hesse):
        res = filtration_ranks(hesse)
        assert res.ranks == (0,)
        assert res.sections == ()

    def test_rank_zero_short_circuits(self, hesse):
        res = unitary_rank(hesse, mode="jet", seed=0, max_level=1).primary
        assert res.ranks == (0,)

    def test_jumping_point_ranks_stay_generic(self, mix_tt):
        # pointwise kernel is two-dimensional at t0 = 0, yet no direction
        # extends to a flat section: the chain collapses to zero
        res = unitary_rank(mix_tt, mode="jet", t0=Fraction(0)).primary
        assert res.ranks == (0, 0, 0)

    def test_chain_through_jumping_point(self, path_family):
        res = unitary_rank(path_family, mode="jet", t0=Fraction(0)).primary
        assert res.ranks == (2, 2, 2)

    def test_max_level_validation(self, mix, monkeypatch):
        with pytest.raises(ValueError):
            filtration_ranks(mix, max_level=0)
        # refused before any fibre is built, as in the test below
        built = _record_calls(monkeypatch, JacobianFiber, "__init__")
        with pytest.raises(ValueError, match="max_level 1000000 is above 10000"):
            filtration_ranks(mix, max_level=10**6)
        assert built == []

    @pytest.mark.parametrize("call", [unitary_rank, mu_report])
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"max_level": 10**6}, "max_level 1000000 is above 10000"),
            ({"mode": "jet", "order": 10**9}, "jet order 1000000000 is above 10000"),
        ],
    )
    def test_huge_chain_settings_refused_before_any_fibre(
        self, mix, monkeypatch, call, kwargs, message
    ):
        # every level is walked and every jet order expanded, so an
        # unbounded setting would run until memory ran out
        built = _record_calls(monkeypatch, JacobianFiber, "__init__")
        with pytest.raises(ValueError, match=message):
            call(mix, **kwargs)
        assert built == []

    def test_chain_settings_at_the_bound_accepted(self, mix):
        assert unitary._settings(mix, None, None, 10_000) == ("ratfun", None, 10_000)
        assert unitary._settings(mix, "jet", 10_000, 2) == ("jet", 10_000, 2)

    def test_order_must_cover_levels(self, mix):
        with pytest.raises(PrecisionExhaustedError):
            unitary_rank(mix, mode="jet", t0=Fraction(1), order=2, max_level=3)

    def test_unknown_mode_rejected(self, mix):
        with pytest.raises(ValueError):
            unitary_rank(mix, mode="symbolic")


def _chain_trajectory(fiber, Ft, p, depth):
    """Test oracle: [p, D p, ..., D^depth p], every step re-derived."""
    out = [p]
    for _ in range(depth):
        out.append(gm_derivative(fiber, Ft, out[-1]))
    return out


def _walk(fam, mode, t0=None, order=None, max_level=None, seed=0):
    """One chain walk: filtration_ranks over Q(t), or in jet mode the walk
    at t0 alone, without the generic chain unitary_rank certifies it by."""
    if mode == "ratfun":
        return filtration_ranks(fam, max_level)
    _, order, rmax = unitary._settings(fam, mode, order, max_level)
    bp = pick_basepoint(fam, seed, t0)
    return unitary._walk_chain(*unitary._jet_fibre(fam, bp.t0, bp.fiber, order), bp.t0, order, rmax)


def _walk_fibre(fam, res):
    """The fibre and F_T a filtration run res walked on, built afresh."""
    if res.mode == "ratfun":
        return make_fiber(generic_fibre(fam)), generic_fibre(t_derivative(fam))
    return unitary._jet_fibre(fam, res.t0, make_fiber(specialize(fam, res.t0)), res.order)


class TestHeldTrajectories:
    """The pass builds each active final section's trajectory by the
    Leibniz rule and verifies the trajectories it holds; re-deriving them
    step by step on a fresh fibre must give the same polynomials. Every
    final section, inert ones included, re-derived to depth max_level - 1
    must end in a zero theta value."""

    @pytest.mark.parametrize(
        "name,mode,t0,max_level,n_active",
        [
            ("mix", "ratfun", None, None, 0),
            ("mix", "jet", Fraction(1), None, 0),
            ("path_family", "jet", Fraction(0), None, 0),
            ("tfree", "ratfun", None, None, 0),
            ("tfree", "jet", None, None, 0),
            ("septic", "ratfun", None, 2, 2),
        ],
        ids=[
            "mix-ratfun-None",
            "mix-jet-t01",
            "path_family-jet-t02",
            "tfree-ratfun-None",
            "tfree-jet-None",
            "septic-ratfun-level2",
        ],
    )
    def test_match_the_rederived_chain(
        self, request, monkeypatch, name, mode, t0, max_level, n_active
    ):
        fam = request.getfixturevalue(name)
        held = []
        real = unitary._verify_chain

        def capture(fiber, Ft, trajectories):
            held.append(trajectories)
            real(fiber, Ft, trajectories)

        monkeypatch.setattr(unitary, "_verify_chain", capture)
        res = _walk(fam, mode, t0=t0, max_level=max_level)
        fiber, Ft = _walk_fibre(fam, res)
        # _verify_chain runs once, on the active final trajectories, if any
        assert [len(t) for t in held] == ([n_active] if n_active else [])
        trajs = held[0] if held else []
        heads = [t[0] for t in trajs]
        assert res.sections and heads == [p for p in res.sections if p in heads]
        for traj in trajs:
            assert traj == _chain_trajectory(fiber, Ft, traj[0], res.max_level - 1)
        for p in res.sections:
            want = _chain_trajectory(fiber, Ft, p, res.max_level - 1)
            assert theta_eval(fiber, Ft, want[-1]).is_zero

    def test_verify_rejects_a_nonzero_final_theta(self, mix):
        fiber = make_fiber(specialize(mix, Fraction(1)))
        Ft = specialize(t_derivative(mix), Fraction(1))
        y0 = HomPoly.monomial((1, 0, 0), 1)
        y2 = HomPoly.monomial((0, 0, 1), 1)  # outside the Higgs kernel at t = 1
        unitary._verify_chain(fiber, Ft, [[y0]])
        with pytest.raises(ExactCoreError):
            unitary._verify_chain(fiber, Ft, [[y0], [y2]])


def _coeff_cols(cols):
    return [[e.coeffs for e in col] for col in cols]


def _pick_coeffs(picks):
    return [tuple(c.coeffs for c in pick) for pick in picks]


@st.composite
def jet_column_system_st(draw):
    """(cols, m): J columns of nrows jets of precision m, some columns
    being jet multiples of the first so the kernel reaches past order 0."""
    m = draw(st.integers(min_value=1, max_value=4))
    J = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=4))
    coeff = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    cols = [
        [Jet([draw(coeff) for _ in range(m)]) for _ in range(nrows)] for _ in range(J)
    ]
    for j in range(1, J):
        if draw(st.booleans()):
            scalar = Jet([draw(coeff) for _ in range(m)])
            cols[j] = [scalar * e for e in cols[0]]
    return cols, m


@st.composite
def expansion_column_system_st(draw):
    """(cols, m) shaped like a jet expansion at t0 = p/q: precision up to
    10, order-k coefficients over q^k, some jet multiples of the first
    column, and rows and columns that are identically zero."""
    m = draw(st.integers(min_value=1, max_value=10))
    J = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=5))
    q = draw(st.integers(min_value=1, max_value=7))
    num = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))

    def jet():
        return Jet([Fraction(draw(num), q**k) for k in range(m)])

    cols = [[jet() for _ in range(nrows)] for _ in range(J)]
    for j in range(1, J):
        if draw(st.booleans()):
            scalar = jet()
            cols[j] = [scalar * e for e in cols[0]]
    zero = Jet([0] * m)
    for r in draw(st.sets(st.integers(min_value=0, max_value=nrows - 1))):
        for col in cols:
            col[r] = zero
    for j in draw(st.sets(st.integers(min_value=0, max_value=J - 1))):
        cols[j] = [zero] * nrows
    return cols, m


@st.composite
def block_column_system_st(draw):
    """(cols, m): two or three blocks of a jet column system, their rows
    and columns shuffled together, plus zero columns. A block's W_0 is
    invertible, singular with nonzero higher orders, or random; block i
    has its order-k coefficients over q_i^k."""
    m = draw(st.integers(min_value=2, max_value=4))
    num = st.integers(min_value=-4, max_value=4)
    blocks = []  # (order-k coefficient matrices W[k][r][i], denominator)
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=3))
        kind = draw(st.sampled_from(("invertible", "singular", "random")))
        nrows = n if kind == "invertible" else draw(st.integers(min_value=1, max_value=3))
        W = [[[draw(num) for _ in range(n)] for _ in range(nrows)] for _ in range(m)]
        if kind == "invertible":  # unit lower-triangular
            for r in range(n):
                W[0][r][r:] = [1] + [0] * (n - 1 - r)
        elif kind == "singular":  # last column 0 at order 0, not above
            for r in range(nrows):
                W[0][r][n - 1] = 0
            W[draw(st.integers(min_value=1, max_value=m - 1))][0][n - 1] = draw(
                st.integers(min_value=1, max_value=4)
            )
        blocks.append((W, draw(st.integers(min_value=1, max_value=5))))
    # (block, its column) per global column, None for a zero column
    col_of = [(b, i) for b, (W, _) in enumerate(blocks) for i in range(len(W[0][0]))]
    col_of += [None] * draw(st.integers(min_value=0, max_value=2))
    col_of = draw(st.permutations(col_of))
    row_of = [(b, r) for b, (W, _) in enumerate(blocks) for r in range(len(W[0]))]
    row_of = draw(st.permutations(row_of))

    def entry(rb, cb):
        if cb is None or cb[0] != rb[0]:
            return Jet([0] * m)
        W, q = blocks[rb[0]]
        return Jet([Fraction(W[k][rb[1]][cb[1]], q**k) for k in range(m)])

    return [[entry(rb, cb) for rb in row_of] for cb in col_of], m


def _free_column(pick):
    # a canonical kernel vector is nonzero only at its free column and at
    # pivot columns to the left of it, so its free column b*J + j is the
    # last one with a nonzero entry
    J = len(pick)
    return max(b * J + j for j, c in enumerate(pick) for b, x in enumerate(c.coeffs) if x)


class TestStackedKernel:
    """_stacked_kernel eliminates integer rows and reads the canonical
    kernel vectors off the fraction-free echelon form; the picks must be
    those of the textbook Fraction construction."""

    @settings(max_examples=120, deadline=None)
    @given(jet_column_system_st())
    def test_matches_the_fraction_oracle(self, system):
        cols, m = system
        got = _stacked_kernel(cols, m)
        assert _pick_coeffs(got) == naive_stacked_kernel(_coeff_cols(cols), m)
        assert all(c.precision == m for pick in got for c in pick)

    @settings(max_examples=60, deadline=None)
    @given(expansion_column_system_st())
    def test_matches_the_fraction_oracle_on_expansions(self, system):
        # the block-Toeplitz shape whose row scalings swelled Bareiss rows
        cols, m = system
        got = _stacked_kernel(cols, m)
        assert _pick_coeffs(got) == naive_stacked_kernel(_coeff_cols(cols), m)
        assert all(c.precision == m for pick in got for c in pick)

    def test_matches_the_oracle_on_a_filtration_run(self, mix, monkeypatch):
        seen = []

        def checked(cols, m):
            got = _stacked_kernel(cols, m)
            assert _pick_coeffs(got) == naive_stacked_kernel(_coeff_cols(cols), m)
            seen.append(len(got))
            return got

        monkeypatch.setattr(unitary, "_stacked_kernel", checked)
        res = unitary_rank(mix, mode="jet", t0=Fraction(1), order=6).primary
        assert tuple(seen) == res.ranks

    @settings(max_examples=120, deadline=None)
    @given(block_column_system_st())
    def test_matches_the_fraction_oracle_on_shuffled_blocks(self, system):
        cols, m = system
        got = _stacked_kernel(cols, m)
        assert _pick_coeffs(got) == naive_stacked_kernel(_coeff_cols(cols), m)
        frees = [_free_column(pick) for pick in got]
        assert frees == sorted(frees)

    @staticmethod
    def _count_eliminations(monkeypatch):
        widths = []
        real = exactcore.ff_gauss_jordan_int

        def counting(rows, ncols):
            widths.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(exactcore, "ff_gauss_jordan_int", counting)
        return widths

    def test_full_rank_order0_runs_no_elimination(self, monkeypatch):
        # W_0 = I certifies full column rank: no free column, nothing
        # eliminated
        widths = self._count_eliminations(monkeypatch)
        cols = [[Jet((1, 2)), Jet((0, 1))], [Jet((0, 3)), Jet((1, 0))]]
        assert _stacked_kernel(cols, 2) == []
        assert widths == []

    def test_inconclusive_certificate_still_eliminates(self, monkeypatch):
        # W_0 = (P) has full rank over Q but not modulo the certificate's
        # prime P: the stacked system is eliminated, has no free column
        # and needs no order-0 elimination
        widths = self._count_eliminations(monkeypatch)
        cols = [[Jet((exactcore._CERT_PRIME, 1, 0))]]
        assert _stacked_kernel(cols, 3) == []
        assert widths == [3]

    def test_singular_order0_with_no_extendable_vector(self, monkeypatch):
        # W(s) = (s): W_0 is singular, so the stacked system keeps a free
        # column (c = s), but no solution is nonzero at order 0
        widths = self._count_eliminations(monkeypatch)
        cols = [[Jet((0, 1))]]
        assert _stacked_kernel(cols, 2) == []
        assert widths == [2, 1]

    def test_builds_no_fraction_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_stacked_kernel built a Fraction matrix")

        monkeypatch.setattr(unitary, "Matrix", refuse)
        monkeypatch.setattr(unitary, "kernel_basis", refuse)
        cols = [[Jet((1, 2, 0))], [Jet((2, 4, 1))]]
        assert len(_stacked_kernel(cols, 3)) == 1


QUINTIC = "Y0^5 + Y1^5 + Y2^5 + T*Y0^2*Y1^3"
TWO_MONOMIAL_QUINTIC = "Y0^5 + Y1^5 + Y2^5 + 2/3*T*Y1^4*Y2 + 3*T*Y1^3*Y2^2"
SEXTIC = "Y0^6 + Y1^6 + Y2^6 + T*Y0^3*Y1^3"


class TestInertSplit:
    """The walk never differentiates an inert section; it must still give
    the plain walk's ranks and sections."""

    @pytest.mark.parametrize("mode", ["ratfun", "jet"])
    @pytest.mark.parametrize(
        "name",
        [
            "mix", "tfree", "hesse", "mix_tt", "path_family",
            QUINTIC, TWO_MONOMIAL_QUINTIC, SEXTIC,
        ],
    )
    def test_matches_the_plain_walk(self, request, name, mode):
        fam = parse_family(name) if "^" in name else request.getfixturevalue(name)
        res = unitary_rank(fam, mode=mode).primary
        fiber, Ft = _walk_fibre(fam, res)
        assert naive_walk_chain(fiber, Ft, res.order, res.max_level) == (
            res.ranks,
            res.sections,
        )

    @pytest.mark.parametrize(
        "text,inert",
        [
            (QUINTIC, 3),
            (TWO_MONOMIAL_QUINTIC, 3),
            (SEXTIC, 6),
            ("Y0^7 + Y1^7 + Y2^7 + T*Y0^3*Y1^4", 5),
            ("Y0^8 + Y1^8 + Y2^8 + T*Y0^3*Y1^5", 6),
            ("Y0^6 + Y1^6 + Y2^6 + T*Y0^5*Y1 + 2*T^2*Y1^3*Y2^3 - 3*T*Y0*Y1^2*Y2^3", 0),
        ],
    )
    def test_inert_dimensions(self, text, inert):
        fam = parse_family(text)
        fiber = make_fiber(generic_fibre(fam))
        Ft = generic_fibre(t_derivative(fam))
        assert sum(_inert_sections(fiber, Ft, fiber.cobasis(fam.degree - 3))) == inert


class TestCensusSlice:
    """The paper's non-triviality check on Fermat curves deformed by one
    T-monomial: the generic chain ranks, the inert dimension as a lower
    bound on rank_u, and the families where the level-2 condition cuts."""

    @pytest.mark.parametrize(
        "degree,monomial,ranks",
        [
            (4, "Y0^2*Y1^2", (2, 2, 2)),
            (4, "Y0^2*Y1*Y2", (0, 0, 0)),
            (5, "Y0^2*Y1^3", (4, 3, 3, 3, 3, 3)),
            (5, "Y0^3*Y1*Y2", (1,) + (0,) * 5),
            (5, "Y0*Y1^2*Y2^2", (0,) * 6),
            (6, "Y0^3*Y1^3", (6,) * 10),
            (6, "Y0^2*Y1^2*Y2^2", (0,) * 10),
            (6, "Y0^4*Y1*Y2", (3,) + (0,) * 9),
            (7, "Y0^3*Y1^4", (9, 7, 6) + (5,) * 12),
            (7, "Y0^2*Y1^2*Y2^3", (1,) + (0,) * 14),
        ],
    )
    def test_ranks_meet_the_inert_bound(self, degree, monomial, ranks):
        d = degree
        fam = parse_family(f"Y0^{d} + Y1^{d} + Y2^{d} + T*{monomial}")
        res = unitary_rank(fam, mode="ratfun")
        assert res.ranks == ranks
        fiber = make_fiber(generic_fibre(fam))
        Ft = generic_fibre(t_derivative(fam))
        assert res.rank_u >= sum(_inert_sections(fiber, Ft, fiber.cobasis(d - 3)))

    @pytest.mark.parametrize(
        "text",
        [
            "Y0^5 + Y1^5 + Y2^5 + T*Y0^2*Y1^3",
            "Y0^6 + Y1^6 + Y2^6 + T*Y0^4*Y1*Y2",
            "Y0^7 + Y1^7 + Y2^7 + T*Y0^3*Y1^4",
        ],
    )
    def test_level_two_condition_cuts(self, text):
        ranks = unitary_rank(parse_family(text), mode="ratfun").ranks
        assert ranks[1] < ranks[0]


def _character_classes(F):
    """Class of each monomial (of any degree) modulo the lattice of
    exponent differences of F, a Fermat deformation of degree d: that
    lattice holds d times the coordinate-sum-0 lattice, so a class is
    the degree and a coset, in (Z/d)^2, of the subgroup the differences
    generate."""
    d = F.degree
    (x0, y0, _), *rest = F.terms
    gens = [((x - x0) % d, (y - y0) % d) for x, y, _ in rest]
    group, grown = {(0, 0)}, True
    while grown:
        new = {((a + u) % d, (b + v) % d) for a, b in group for u, v in gens}
        grown = not new <= group
        group |= new

    def cls(e):
        return sum(e), frozenset(((e[0] + a) % d, (e[1] + b) % d) for a, b in group)

    return cls


@st.composite
def fermat_deformation_st(draw):
    """Y0^d + Y1^d + Y2^d + T * (1 to 3 monomials), d = 4 or 5."""
    d = draw(st.integers(min_value=4, max_value=5))
    mons = draw(
        st.lists(st.sampled_from(graded_basis(d)), min_size=1, max_size=3, unique=True)
    )
    coeffs = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=len(mons), max_size=len(mons))
    )
    text = f"Y0^{d} + Y1^{d} + Y2^{d}" + "".join(
        f" + {c}*T*Y0^{a}*Y1^{b}*Y2^{e}" for c, (a, b, e) in zip(coeffs, mons)
    )
    return parse_family(text)


def _support_classes(cls, poly):
    return {cls(e) for e in poly.terms}


class TestCharacterGrading:
    """On a single-class input, D keeps its class, theta adds [F] and a
    normal form stays in the class: what makes a section inert."""

    @settings(max_examples=15, deadline=None)
    @given(fermat_deformation_st(), st.data())
    def test_single_class_inputs_stay_in_one_class(self, fam, data):
        fiber = make_fiber(generic_fibre(fam))
        Ft = generic_fibre(t_derivative(fam))
        d = fam.degree
        cls = _character_classes(fiber.F)
        shift = next(iter(fiber.F.terms))
        cob = fiber.cobasis(d - 3)
        for chi in {cls(e) for e in cob}:
            block = [e for e in cob if cls(e) == chi]
            thetas = [
                theta_eval(fiber, Ft, HomPoly.monomial(e, 1, domain=RATFUN)) for e in block
            ]
            (target,) = {cls(tuple(a + b for a, b in zip(e, shift))) for e in block}
            for th in thetas:
                assert _support_classes(cls, fiber.representative(th)) <= {target}
            matrix = Matrix(list(zip(*(th.coords for th in thetas))), domain=RATFUN)
            for v in kernel_basis(matrix):
                p = HomPoly(d - 3, dict(zip(block, v)), domain=RATFUN)
                assert _support_classes(cls, gm_derivative(fiber, Ft, p)) <= {chi}
        # a normal form: any single-class polynomial of a degree the walk
        # reduces in
        k = data.draw(st.sampled_from([d - 3, d, 2 * d - 3]))
        e = data.draw(st.sampled_from(graded_basis(k)))
        chi = cls(e)
        same = [f for f in graded_basis(k) if cls(f) == chi]
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=len(same), max_size=len(same))
        )
        p = HomPoly(k, dict(zip(same, coeffs)), domain=RATFUN)
        assert _support_classes(cls, fiber.representative(fiber.normal_form(p))) <= {chi}


class TestUnitaryRank:
    def test_function_field_mode_is_stable_by_construction(self, mix):
        rk = unitary_rank(mix, mode="ratfun")
        assert rk.stable and rk.checks == ()
        assert rk.rank_u == 2

    def test_jet_mode_is_certified_by_the_generic_chain(self, mix):
        rk = unitary_rank(mix, mode="jet", seed=0)
        assert rk.stable
        (generic,) = rk.checks
        assert generic.mode == "ratfun" and generic.t0 is None and generic.order is None
        assert generic.ranks == rk.primary.ranks

        # oracle: the primary run is an independent jet run and its one
        # check the generic chain to the same depth
        for seed, t0, max_level in ((0, None, None), (3, Fraction(1), 2)):
            rk = unitary_rank(mix, mode="jet", t0=t0, seed=seed, max_level=max_level)
            assert rk.primary == _walk(mix, "jet", t0=t0, seed=seed, max_level=max_level)
            assert rk.checks == (filtration_ranks(mix, max_level),)

    def test_sextic_over_the_function_field(self):
        # degree 6 over Q(t): genus 10, every level keeps the six sections
        sextic = parse_family("Y0^6 + Y1^6 + Y2^6 + T*Y0^3*Y1^3")
        rk = unitary_rank(sextic, mode="ratfun")
        assert rk.ranks == (6,) * 10
        assert rk.stable and rk.checks == ()

    def test_default_mode_tracks_degree(self, mix):
        assert unitary_rank(mix).primary.mode == "ratfun"
        sextic = parse_family("Y0^6 + Y1^6 + Y2^6 + T*Y0^3*Y1^3")
        rk = unitary_rank(sextic)
        assert rk.primary.mode == "ratfun" and rk.primary.order is None
        assert rk.ranks == (6,) * 10

    @pytest.mark.parametrize("call", [unitary_rank, mu_report])
    def test_order_in_ratfun_mode_raises(self, mix, call):
        with pytest.raises(ValueError, match="mode 'jet'"):
            call(mix, order=8)
        with pytest.raises(ValueError, match="mode 'jet'"):
            call(mix, mode="ratfun", order=8)

    @pytest.mark.parametrize("call", [unitary_rank])
    def test_basepoint_in_ratfun_mode_raises(self, mix, call):
        # Q(t) has no basepoint to honour: t = 1 would otherwise be dropped
        with pytest.raises(ValueError, match="a basepoint needs mode 'jet'"):
            call(mix, t0=1)
        with pytest.raises(ValueError, match="a basepoint needs mode 'jet'"):
            call(mix, mode="ratfun", t0=Fraction(1))

    @pytest.mark.parametrize(
        "text",
        [
            "Y0^5 + Y1^5 + Y2^5 + T*Y0^2*Y1^3",
            "Y0^6 + Y1^6 + Y2^6 + T*Y0^5*Y1 + 2*T^2*Y1^3*Y2^3 - 3*T*Y0*Y1^2*Y2^3",
        ],
    )
    def test_function_field_walk_prepares_only_the_higgs_degrees(self, text, monkeypatch):
        # the chain reads R_{d-3} and R_{2d-3} only; R_d and R_{3d-6}, the
        # widest Z[t] elimination, are never row-reduced
        fam = parse_family(text)
        prepared = set()
        real = JacobianFiber._prepare_degree

        def spy(fiber, k):
            prepared.add(k)
            return real(fiber, k)

        monkeypatch.setattr(JacobianFiber, "_prepare_degree", spy)
        res = filtration_ranks(fam)
        assert res.ranks[0] > 0
        d = fam.degree
        assert prepared == {d - 3, 2 * d - 3}

    def test_function_field_mode_runs_on_zt_only(self, mix, monkeypatch):
        # every RatFun is a Z[t] pair: the polynomial sums and products
        # RatFun arithmetic calls see int coefficients only
        operands = []
        for name in ("zadd", "zmul"):
            real = getattr(up, name)

            def spy(a, b, real=real):
                operands.extend((a, b))
                return real(a, b)

            monkeypatch.setattr(up, name, spy)
        rk = unitary_rank(mix, mode="ratfun")
        assert rk.ranks == (2, 2, 2) and rk.stable
        assert operands
        assert all(type(c) is int for poly in operands for c in poly)


def _record_calls(monkeypatch, owner, name):
    """Patch owner.name to log the first argument of every call."""
    seen = []
    real = getattr(owner, name)

    def recording(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return seen


class TestOneFibrePerBasepoint:
    """A jet call certifies the one basepoint it uses once and thickens
    one jet fibre there; the generic fibre of its certifying chain is no
    basepoint."""

    @pytest.fixture
    def record(self, monkeypatch):
        return {
            "certified": _record_calls(
                monkeypatch, JacobianFiber, "_smoothness_certificate"
            ),
            "thickened": _record_calls(monkeypatch, JacobianFiber, "thicken"),
            "solvers": _record_calls(monkeypatch, JetSystemSolver, "__init__"),
        }

    @staticmethod
    def certified_t0s(record, fam):
        """The candidate t0 of every certified rational fibre, in order;
        the generic fibre over Q(t) is skipped."""
        values = candidate_basepoints(0)
        by_fibre = {specialize(fam, t): t for t in values}
        return [by_fibre[fib.F] for fib in record["certified"] if fib.domain is not RATFUN]

    def test_seeded_jet_rank(self, mix, record):
        rk = unitary_rank(mix, mode="jet", seed=0)
        assert rk.stable
        assert rk.checks == (filtration_ranks(mix, mix.genus),)
        assert self.certified_t0s(record, mix) == [Fraction(52)]
        assert len(record["thickened"]) == 1
        assert len(record["solvers"]) == 1

    def test_given_t0(self, mix, record):
        unitary_rank(mix, mode="jet", t0=Fraction(1))
        assert self.certified_t0s(record, mix) == [Fraction(1)]

    def test_walk_resumes_past_rejections(self, mix, record):
        # seed 418 visits the singular fibre at t = 2 first, then 57
        assert candidate_basepoints(418)[:2] == [2, 57]
        rk = unitary_rank(mix, mode="jet", seed=418)
        assert rk.primary.t0 == 57
        assert self.certified_t0s(record, mix) == [2, 57]

    @pytest.mark.parametrize(
        "kwargs,want", [({"t0": Fraction(1)}, [1]), ({"seed": 418}, [2, 57])]
    )
    def test_mu_report_ranks_on_the_pointwise_fibre(self, mix, record, kwargs, want):
        rep = mu_report(mix, mode="jet", **kwargs)
        assert rep.rank_stable and rep.ranks == (2, 2, 2)
        assert self.certified_t0s(record, mix) == want


class TestEta2:
    def test_obstructed_extensions_are_flagged(self, mix_tt):
        eta = eta2_on_K(mix_tt, t0=Fraction(0))
        assert eta.flags == (0, 1)
        assert eta.matrix == (None, None)

    def test_partial_obstruction(self, path_family):
        eta = eta2_on_K(path_family, t0=Fraction(0))
        assert eta.flags == (2,)
        assert eta.matrix[0] == (0, 0, 0)
        assert eta.matrix[1] == (0, 0, 0)
        assert eta.matrix[2] is None

    def test_extension_choice_does_not_matter(self, path_family):
        # the jet-path oracle differentiates each extension, tweaked by a
        # kernel vector; eta2_on_K builds the rows that choice cannot move
        base = eta2_on_K(path_family, t0=Fraction(0))
        rng = random.Random(17)
        pk = pointwise_kernel(path_family, t0=Fraction(0))
        k = len(pk.basis)
        for _ in range(5):
            tweaks = {}
            for i in range(k):
                if rng.random() < 0.5:
                    continue
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
                vec = [
                    sum(c * v[j] for c, v in zip(coeffs, pk.basis))
                    for j in range(len(pk.basis[0]))
                ]
                tweaks[i] = tuple(vec)
            assert naive_eta2_on_K(path_family, pk, tweaks) == (base.matrix, base.flags)

    def test_pairing_runs_on_the_certified_kernel_fibre(self, mix, monkeypatch):
        pk = pointwise_kernel(mix, t0=Fraction(1))
        certified = []
        real = JacobianFiber._smoothness_certificate

        def counting(self, degree):
            certified.append(degree)
            return real(self, degree)

        monkeypatch.setattr(JacobianFiber, "_smoothness_certificate", counting)
        eta = eta2_on_K(mix, t0=Fraction(1), _pk=pk)
        assert eta.flags == () and eta.matrix == ((0, 0), (0, 0))
        assert certified == []

    def test_reuses_the_pointwise_higgs_matrix(self, mix, path_family, monkeypatch):
        # each lift is one solve on the pointwise Higgs matrix, and every
        # step runs on the rational fibre: no Higgs matrix, no jet fibre
        # and no jet system
        kernels = [(mix, pointwise_kernel(mix, t0=Fraction(1)))]
        kernels.append((path_family, pointwise_kernel(path_family, t0=Fraction(0))))
        built = _record_calls(monkeypatch, JacobianFiber, "higgs_matrix")
        thickened = _record_calls(monkeypatch, JacobianFiber, "thicken")
        systems = _record_calls(monkeypatch, JetSystemSolver, "__init__")
        for fam, pk in kernels:
            eta2_on_K(fam, _pk=pk)
            mu_principal(fam, _pk=pk)
        assert built == [] and thickened == [] and systems == []

    def test_socle_table_is_built_once_per_fibre(self, path_family, monkeypatch):
        pk = pointwise_kernel(path_family, t0=Fraction(0))
        prepared = []
        real = JacobianFiber._prepare_degree

        def spy(fiber, *args):
            prepared.append(args)
            return real(fiber, *args)

        reduced, real_rref = [], jacobian.rref_rows
        monkeypatch.setattr(JacobianFiber, "_prepare_degree", spy)
        monkeypatch.setattr(jacobian, "rref_rows", lambda *a: reduced.append(1) or real_rref(*a))
        # eta2 reads no pairing: its extendable rows are 0 by proof
        eta2_on_K(path_family, _pk=pk)
        assert pk.fiber._socle is None and prepared == []
        assert mu_principal(path_family, _pk=pk)[1] == ((0, 0, 0), (0, 0, 0), (0, 0, 2))
        table = pk.fiber._socle
        assert mu_principal(path_family, _pk=pk)[1] == ((0, 0, 0), (0, 0, 0), (0, 0, 2))
        assert table is not None and pk.fiber._socle is table
        # R_{3d-6}, the one degree the pointwise kernel left unread, and in
        # it only the class of the Hessian, 3 e_F - (2, 2, 2)
        d, (x, y, _) = path_family.degree, next(iter(pk.fiber.F.terms))
        assert prepared == [(3 * d - 6,)] and len(reduced) == 1
        ((j, *_),) = pk.fiber._data(3 * d - 6)
        socle = graded_basis(3 * d - 6)[j]
        assert pk.fiber._key(socle[0], socle[1]) == pk.fiber._key(3 * x - 2, 3 * y - 2)

    def test_empty_kernel_gives_empty_result(self, hesse):
        eta = eta2_on_K(hesse, t0=Fraction(1))
        assert eta.basis == () and eta.matrix == () and eta.flags == ()


# seeded pointwise-sweep families (degrees 4 to 6) with nonempty kernels
# and their basepoints; every row of the first is flagged
SWEEP_FAMILIES = [
    ("Y0^4 + 3*T^2*Y0^2*Y1*Y2 - 2*T^2*Y0*Y1*Y2^2 + Y1^4 + Y2^4", 0),
    ("Y0^4 - T*Y0*Y2^3 + Y1^4 + T^2*Y1*Y2^3 + Y2^4", -57),
    ("Y0^5 - 3*T^2*Y0^2*Y1^3 + 3*T*Y0*Y1^4 + Y1^5 + Y2^5", 10),
    ("Y0^6 - 2*T*Y0^5*Y1 + T*Y0^4*Y1^2 + T^2*Y0*Y1^5 + Y1^6 + Y2^6", -7),
]
# a quartic whose one kernel row extends only with the witness term of
# H_1 v: with its sign flipped, that row would be flagged
WITNESS_TERM_FAMILY = ("Y0^4 + Y1^4 + Y2^4 + 2*T*Y0*Y1^2*Y2 + T^2*Y0^2*Y2^2", 1)


def _fixture_or_text(request, source):
    return parse_family(source) if "Y0" in source else request.getfixturevalue(source)


class TestAgainstTheJetPath:
    """eta2_on_K and mu_principal on the rational fibre against the jet
    path they replaced and a normal form per pairing (tests/oracles.py)."""

    CASES = [
        ("mix", 1), ("mix_tt", 0), ("path_family", 0), ("hesse", 1),
        *SWEEP_FAMILIES, WITNESS_TERM_FAMILY,
    ]

    @pytest.mark.parametrize("source,t0", CASES)
    def test_matches_the_jet_path(self, source, t0, request):
        fam = _fixture_or_text(request, source)
        pk = pointwise_kernel(fam, t0=Fraction(t0))
        eta = eta2_on_K(fam, _pk=pk)
        assert (eta.matrix, eta.flags) == naive_eta2_on_K(fam, pk)
        assert mu_principal(fam, _pk=pk)[1] == naive_mu_principal(fam, pk)

    @pytest.mark.parametrize("source,t0", CASES)
    def test_tweaked_extensions_match_the_jet_path(self, source, t0, request):
        # the oracle differentiates each extension, x_1 tweaked by a kernel
        # vector; eta2_on_K's rows cannot depend on that choice
        fam = _fixture_or_text(request, source)
        pk = pointwise_kernel(fam, t0=Fraction(t0))
        eta = eta2_on_K(fam, _pk=pk)
        rng = random.Random(5)
        k = len(pk.basis)
        for _ in range(3):
            tweaks = {}
            for i in range(k):
                coeffs = [rng.randint(-3, 3) for _ in range(k)]
                tweaks[i] = tuple(
                    sum(c * v[j] for c, v in zip(coeffs, pk.basis))
                    for j in range(len(pk.basis[0]))
                )
            assert (eta.matrix, eta.flags) == naive_eta2_on_K(fam, pk, tweaks)


@st.composite
def fermat_family_st(draw):
    """(family, t0): the Fermat quartic or quintic plus one to three T- or
    T^2-monomials, with a small rational t0. Half the draws take their
    monomials in Y0 and Y1 alone, which keeps the Higgs kernel nonempty."""
    d = draw(st.sampled_from((4, 5)))
    if draw(st.booleans()):
        pool = [(a, d - a, 0) for a in range(1, d)]
    else:
        pool = [e for e in graded_basis(d) if max(e) < d]
    text = f"Y0^{d} + Y1^{d} + Y2^{d}"
    for a, b, c in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)):
        coef = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        tpow = draw(st.sampled_from(("T", "T^2")))
        text += f" {'-' if coef < 0 else '+'} {abs(coef)}*{tpow}*Y0^{a}*Y1^{b}*Y2^{c}"
    t0 = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    return parse_family(text), t0


def _nonempty_kernel(fam, t0):
    try:
        pk = pointwise_kernel(fam, t0=t0)
    except SingularFibreError:
        assume(False)
    assume(pk.basis)
    return pk


def _assert_theta_image_pairs_to_zero(pk):
    """lambda(p_j * F_T * m) = 0 for every kernel vector p_j and cobasis
    monomial m of R_{d-3}: F_T p_j lies in the Jacobian ideal."""
    fiber, d = pk.fiber, pk.fiber.d
    images = [
        theta_eval(fiber, pk.Ft, HomPoly.monomial(m, Fraction(1)))
        for m in fiber.cobasis(d - 3)
    ]
    for v in pk.basis:
        p = RingElement(d - 3, v)
        assert all(fiber.socle_pairs((p,), q)[0] == 0 for q in images)


class TestZeroRows:
    """The identity an extendable eta2 row rests on, and eta2_on_K's zero
    rows against the jet path that differentiates every extension."""

    @pytest.mark.parametrize("source,t0", TestAgainstTheJetPath.CASES)
    def test_theta_image_pairs_to_zero_on_fixtures(self, source, t0, request):
        fam = _fixture_or_text(request, source)
        _assert_theta_image_pairs_to_zero(pointwise_kernel(fam, t0=Fraction(t0)))

    @settings(max_examples=30, deadline=None)
    @given(fermat_family_st())
    def test_theta_image_pairs_to_zero_on_random_deformations(self, family):
        _assert_theta_image_pairs_to_zero(_nonempty_kernel(*family))

    @settings(max_examples=30, deadline=None)
    @given(fermat_family_st())
    def test_matches_the_jet_path_on_random_families(self, family):
        fam, t0 = family
        pk = _nonempty_kernel(fam, t0)
        eta = eta2_on_K(fam, _pk=pk)
        assert (eta.matrix, eta.flags) == naive_eta2_on_K(fam, pk)


class TestCertifiedJetRanks:
    """The comparison at _walk_chain: at a smooth basepoint each jet level
    rank is at least the generic one (proved there for level 1, checked
    here at every level), and unitary_rank calls the ranks stable exactly
    when the two sequences are equal."""

    @settings(max_examples=25, deadline=None)
    @given(fermat_family_st(), st.sampled_from((None, Fraction(0))))
    def test_jet_ranks_bound_the_generic_ranks(self, family, t0):
        fam, _ = family
        try:
            rk = unitary_rank(fam, mode="jet", t0=t0)
        except SingularFibreError:
            assume(False)
        (generic,) = rk.checks
        assert generic == filtration_ranks(fam)
        assert all(j >= q for j, q in zip(rk.ranks, generic.ranks))
        assert rk.stable == (rk.ranks == generic.ranks)


class TestMuPrincipal:
    def test_second_derivative_pairing_on_jumping_kernel(self, mix_tt):
        _, rows = mu_principal(mix_tt, t0=Fraction(0))
        assert rows == ((0, 2), (2, 0))

    def test_zero_when_family_is_linear_in_t(self, mix):
        _, rows = mu_principal(mix, t0=Fraction(1))
        assert all(all(x == 0 for x in row) for row in rows)

    def test_partial_jump_pairing(self, path_family):
        _, rows = mu_principal(path_family, t0=Fraction(0))
        assert rows == ((0, 0, 0), (0, 0, 0), (0, 0, 2))


class TestMuReport:
    def test_jumping_point_report(self, mix_tt):
        rep = mu_report(mix_tt, t0=Fraction(0))
        assert rep.kernel_dim == 2
        assert rep.eta2_flags == (0, 1)
        assert rep.principal == ((0, 2), (2, 0))
        # no extendable row: nothing to fit, nothing in the derivative
        # pairing's kernel
        assert rep.c is None and rep.kernel_dim - len(rep.eta2_flags) == 0
        assert rep.rank_u == 0 and rep.ranks == (0, 0, 0)
        assert rep.rank_stable and rep.inclusion_ok

    def test_partial_jump_report(self, path_family):
        rep = mu_report(path_family, t0=Fraction(0))
        assert rep.kernel_dim == 3
        assert rep.eta2_flags == (2,)
        # the principal form vanishes on the usable rows, leaving no
        # scale to fit, and the derivative pairing is exactly zero there
        assert rep.c is None
        eta = eta2_on_K(path_family, t0=Fraction(0))
        assert eta.flags == rep.eta2_flags
        assert all(row == (0, 0, 0) for i, row in enumerate(eta.matrix) if i not in eta.flags)
        assert rep.kernel_dim - len(rep.eta2_flags) == 2
        assert rep.rank_u == 2
        assert rep.inclusion_ok

    def test_smooth_point_report(self, mix):
        rep = mu_report(mix, t0=Fraction(1))
        assert rep.kernel_dim == 2
        assert rep.eta2_flags == ()
        assert eta2_on_K(mix, t0=Fraction(1)).matrix == ((0, 0), (0, 0))
        assert rep.principal == ((0, 0), (0, 0))
        assert rep.c is None  # zero principal pairing leaves no scale to fit
        assert rep.kernel_dim - len(rep.eta2_flags) == 2
        assert rep.rank_u == 2 and rep.inclusion_ok

    def test_principal_pairing_nonzero_on_an_extendable_row(self):
        # the principal pairing need not vanish where eta2 provably does:
        # no row is flagged and entry (5, 5) is 6/85, so the closest
        # multiple is the scale 0
        fam = parse_family("Y0^6+Y1^6+Y2^6+3*T*Y0^4*Y1^2+3*T^2*Y0^2*Y1^4")
        rep = mu_report(fam, t0=Fraction(-85))
        assert rep.kernel_dim == 7 and rep.eta2_flags == ()
        nonzero = {(i, j) for i, row in enumerate(rep.principal) for j, x in enumerate(row) if x}
        assert nonzero == {(5, 5)} and rep.principal[5][5] == Fraction(6, 85)
        assert rep.c == 0


# ---------------------------------------------------------------------------
# basepoints are exact: a Fraction or an int, never a float or a string


def _entry_points(fam):
    return {
        "specialize": lambda t0: specialize(fam, t0),
        "jet_expand": lambda t0: jet_expand(fam, t0, 2),
        "pointwise_kernel": lambda t0: pointwise_kernel(fam, t0=t0),
        "unitary_rank": lambda t0: unitary_rank(fam, mode="jet", t0=t0),
        "eta2_on_K": lambda t0: eta2_on_K(fam, t0=t0),
        "mu_principal": lambda t0: mu_principal(fam, t0=t0),
        "mu_report": lambda t0: mu_report(fam, t0=t0),
        "RatFun.evaluate": lambda t0: generic_fibre(fam).terms[(2, 2, 0)].evaluate(t0),
    }


class TestExactBasepoints:
    @pytest.mark.parametrize("entry", sorted(_entry_points(None)))
    @pytest.mark.parametrize("t0", [0.1, "1/2"])
    def test_inexact_basepoint_is_refused(self, mix, entry, t0):
        with pytest.raises(TypeError):
            _entry_points(mix)[entry](t0)

    def test_ints_and_fractions_are_kept_exact(self, mix):
        assert specialize(mix, 2) == specialize(mix, Fraction(2))
        assert jet_expand(mix, 2, 3) == jet_expand(mix, Fraction(2), 3)
        pk = pointwise_kernel(mix, t0=1)
        assert type(pk.t0) is Fraction and pk.t0 == 1
        assert pointwise_kernel(mix, t0=Fraction(1, 2)).t0 == Fraction(1, 2)
