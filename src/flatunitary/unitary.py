"""The flat unitary piece of the weight-one Hodge bundle.

For a one-parameter family of smooth plane curves the holomorphic forms
that stay holomorphic under repeated differentiation along the parameter
cut out a descending chain of subspaces of the degree-(d-3) part of the
Jacobian ring:

    V_1 = ker(theta),    V_{r+1} = { P in V_r : theta(D^r P) = 0 },

where theta multiplies by the deformation class F_T and D is the
parameter derivative corrected by pole reduction. The chain stabilizes
by level g and its stable rank is the rank of the flat unitary
subbundle. Conditions at level r+1 are linear over the scalar field
because every lower theta-condition vanishes on V_r, so each level is
one exact kernel computation. One pass walks the chain: each section of
V_r keeps its trajectory [p, D p, ..., D^r p], and the Leibniz rule
passes these on to the sections of V_{r+1}, so no derivative is taken
twice. The diagonal torus that scales every monomial of F(t) by one
factor splits the cobasis into character classes; a cobasis section
whose class theta maps to an empty block of R_{2d-3} is inert: it lies
in every V_r, holds only [p] and is never differentiated.

Two computation modes share the level logic. Over the rational-function
field (filtration_ranks) the kernels are taken over Q(t) and the answer
is the generic (bundle) rank directly. In jet mode, which unitary_rank
alone runs, everything happens at a chosen rational basepoint t0 in
truncated power series in s = t - t0: each level solves the
block-triangular rational system coupling all s-orders at once, block by
block (one connected block of its columns at a time), the level rank is
the dimension of order-0 values of solutions, and one order of
s-precision is spent per level. A jet answer is certified by the generic
chain: `stable` means that its rank sequence equals the one over Q(t),
which is exact (see _walk_chain for how the two compare).

The second-order data lives here too, on the certified rational fibre
alone: which kernel vectors of the pointwise Higgs kernel extend to
first order (eta2_on_K), the principal part given by the second
T-derivative of the family (mu), read through the fibre's socle table,
and the report comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactcore import (
    ExactCoreError,
    Jet,
    JetDomain,
    LinearSolver,
    Matrix,
    PrecisionExhaustedError,
    RATIONAL,
    _as_fraction,
    _clear_jet_rows,
    _is_zero,
    _kernel_vector,
    _ring,
    full_column_rank_int,
    kernel_basis,
)
from .family import (
    FamilySpec,
    generic_fibre,
    jet_expand,
    pick_basepoint,
    specialize,
    t_derivative,
)
from .gaussmanin import _precision, _truncate_poly, gm_derivative, membership_witness, theta_eval
from .jacobian import JacobianFiber, RingElement, class_key, make_fiber, socle_dual_dims
from .polyring import HomPoly, poly_mul, poly_partial


_MAX_CHAIN_SETTING = 10_000  # levels and jet orders are walked one by one


def default_jet_order(genus: int) -> int:
    """Default s-precision: comfortably past the stabilization depth."""
    return 2 * genus + 4


# ---------------------------------------------------------------------------
# pointwise kernel data


@dataclass(frozen=True)
class PointKernel:
    """The Higgs kernel at one certified-smooth rational basepoint."""

    t0: Fraction
    fiber: JacobianFiber
    Ft: HomPoly
    higgs: Matrix
    basis: tuple  # rational coordinate vectors over the degree-(d-3) cobasis
    rejected: tuple


def pointwise_kernel(fam: FamilySpec, t0=None, seed: int = 0) -> PointKernel:
    """Kernel of the Higgs matrix at a single fibre, over the rationals.

    This is the pointwise kernel K(t0); on a jumping parameter value it
    can be strictly larger than the rank of the kernel bundle nearby.
    """
    t0, fiber, rejected = _certified_fibre(fam, t0, seed)
    Ft = specialize(t_derivative(fam), t0)
    H = fiber.higgs_matrix(fiber.delta_class(Ft))
    return PointKernel(t0, fiber, Ft, H, kernel_basis(H), rejected)


def _certified_fibre(fam: FamilySpec, t0, seed: int):
    """(t0, its certified rational fibre, rejected candidates); seeded if t0 is None."""
    if t0 is None:
        bp = pick_basepoint(fam, seed)
        return bp.t0, bp.fiber, bp.rejected
    t0 = _as_fraction(t0)
    return t0, make_fiber(specialize(fam, t0)), ()


# ---------------------------------------------------------------------------
# stacked jet kernels


def _stacked_kernel(cols, m: int):
    """Extendable kernel of a jet column system, solved over Q exactly,
    one connected block at a time.

    cols: J coordinate vectors of jets (precision at least m). Couples all
    jet orders of Sum_j c_j(s) cols_j(s) = 0 (mod s^m). Each row of W(s),
    truncated to order m, is cleared by _clear_jet_rows, one lcm over all
    of its orders. Column j and row r are linked when entry (r, j) is a
    nonzero jet. Of the connected blocks, one with no rows (a zero column)
    picks its order-0 unit vector; one whose order-0 integers
    full_column_rank_int certifies of full column rank picks nothing (its
    stacked system is block lower-triangular with W_0 on the diagonal);
    any other is eliminated on its own (_block_picks). Returns kernel
    vectors c (tuples of precision-m jets) whose order-0 parts are
    independent and span the order-0 values of all solutions, chosen
    greedily from the canonical kernel basis (one vector per free column
    f: 1 at f, 0 at the other free columns); their number is the level
    rank. Merged in increasing free column b*J + j (order b of column j),
    the picks are those of one elimination of the whole system: its RREF
    is unique, a canonical vector lies inside its free column's block, and
    the order-0 pick matrix splits by block.
    """
    J = len(cols)
    W = [[col[r].truncate(m) for col in cols] for r in range(len(cols[0]))]
    # label[j]: the block of column j; a row joins the blocks it reaches
    support = [[j for j, e in enumerate(row) if any(e.coeffs)] for row in W]
    label = list(range(J))
    for js in support:
        for j in js[1:]:
            old, new = label[j], label[js[0]]
            label = [new if x == old else x for x in label]
    zero = Jet._of((Fraction(0),) * m)
    picks = []  # (free column b * J + j, pick)
    for block in set(label):
        js = [j for j in range(J) if label[j] == block]
        n = len(js)
        # the block's rows, each over one scale for all of its orders
        rows = [[row[j] for j in js] for row, s in zip(W, support) if s and label[s[0]] == block]
        rows = _clear_jet_rows(rows, [])
        if not rows:  # a zero column: its order-0 unit vector
            found = [(0, [Fraction(1)] + [Fraction(0)] * (m - 1))]
        elif full_column_rank_int([[e[0] for e in row] for row in rows], n):
            continue
        else:
            found = _block_picks(rows, m)
        for f, v in found:
            pick = [zero] * J
            for i, j in enumerate(js):
                pick[j] = Jet._of(tuple(v[b * n + i] for b in range(m)))
            picks.append((f // n * J + js[f % n], tuple(pick)))
    return [pick for _, pick in sorted(picks, key=lambda p: p[0])]


def _block_picks(rows, m: int):
    """(free column b*n + i, canonical kernel vector) of each greedy pick
    of one block, rows holding its n cleared entries each: one elimination
    of the block-Toeplitz system that stacks every order."""
    n = len(rows[0])
    width = m * n
    # block column b of row block a holds the order a - b coefficients,
    # b = 0..a; each stacked row keeps its row's scale, which keeps the
    # RREF, and the elimination (ff_gauss_jordan_int) keeps its rows
    # primitive, which divides out what that shared scale leaves over
    work = [
        [e[k] for k in range(a, -1, -1) for e in row] + [0] * ((m - 1 - a) * n)
        for a in range(m)
        for row in rows
    ]
    z = _ring(RATIONAL)
    pivots = z.eliminate(work, width)
    pivot_set = set(pivots)
    free = [f for f in range(width) if f not in pivot_set]
    if not free:
        return []
    # The order-0 parts of the canonical vectors, one column per free
    # column, form a matrix whose rows are, up to nonzero scaling, the
    # free entries of each echelon row with its pivot in block 0 and a
    # unit row for each free column in block 0. The greedy picks are its
    # pivot columns.
    order0 = [[row[f] for f in free] for row, c in zip(work, pivots) if c < n]
    order0 += [[int(f == j) for f in free] for j in range(n) if j not in pivot_set]
    return [(f, _kernel_vector(work, pivots, f, width, z)) for f in
            (free[i] for i in z.eliminate(order0, len(free)))]


# ---------------------------------------------------------------------------
# the filtration engine


@dataclass(frozen=True)
class FiltrationResult:
    """Ranks of the kernel chain and a basis of its stable part.

    ranks[r-1] is the rank of the level-r subspace; rank_u is the last
    entry, the flat unitary rank once the chain has stabilized. sections
    are the final basis sections (polynomials over the mode's scalars).
    """

    mode: str
    degree: int
    genus: int
    t0: Fraction | None
    order: int | None
    max_level: int
    ranks: tuple
    sections: tuple

    @property
    def rank_u(self) -> int:
        return self.ranks[-1]


def _settings(fam: FamilySpec, mode, order, max_level, t0=None):
    """(mode, order, max_level) with the defaults filled in and checked:
    mode "ratfun", order 2*genus + 4 in jet mode (None over Q(t), where a
    given order or basepoint t0 is an error), max_level the genus. A
    max_level or order above _MAX_CHAIN_SETTING is an error."""
    if mode is None:
        mode = "ratfun"
    if mode not in ("ratfun", "jet"):
        raise ValueError(f"unknown mode {mode!r}")
    rmax = fam.genus if max_level is None else max_level
    if rmax < 1:
        raise ValueError("max_level must be >= 1")
    if rmax > _MAX_CHAIN_SETTING:
        raise ValueError(f"max_level {rmax} is above {_MAX_CHAIN_SETTING}")
    if mode == "ratfun":
        if order is not None:
            raise ValueError("a jet order needs mode 'jet'")
        if t0 is not None:
            raise ValueError("a basepoint needs mode 'jet'")
        return mode, None, rmax
    if order is None:
        order = default_jet_order(fam.genus)
    if order < 1:
        raise ValueError("jet order must be >= 1")
    if order > _MAX_CHAIN_SETTING:
        raise ValueError(f"jet order {order} is above {_MAX_CHAIN_SETTING}")
    if order - (rmax - 1) < 1:
        raise PrecisionExhaustedError(
            f"jet order {order} cannot support {rmax} levels; need at least {rmax}"
        )
    return mode, order, rmax


def filtration_ranks(fam: FamilySpec, max_level: int = None) -> FiltrationResult:
    """Compute the generic kernel chain ranks over Q(t) down to max_level
    (default: genus); the jet chain at a basepoint is unitary_rank's.

    The chain never stops early except on hitting rank zero, so
    stabilization is observed rather than assumed. Inert sections, those
    theta cannot see on any derivative (_inert_sections), are carried as
    they are; the active sections the pass ends with are checked against
    the last theta-condition.
    """
    _, _, rmax = _settings(fam, "ratfun", None, max_level)
    fiber = make_fiber(generic_fibre(fam))
    return _walk_chain(fiber, generic_fibre(t_derivative(fam)), None, None, rmax)


def _jet_fibre(fam: FamilySpec, t0: Fraction, base: JacobianFiber, order: int):
    """The jet fibre of that order over base, the certified fibre at t0, and F_T there."""
    fiber = base.thicken(jet_expand(fam, t0, order))
    return fiber, jet_expand(t_derivative(fam), t0, order)


def _walk_chain(fiber: JacobianFiber, Ft: HomPoly, t0, order, rmax: int):
    """One pass down the kernel chain on one fibre: over Q(t) when order
    is None, else over jets of that order at t0.

    Level r+1 extends the held trajectory of each active basis section p
    of V_r (cobasis unit sections at level 1) to D^r p by one
    gm_derivative step, takes the kernel of theta on the D^r p (precision
    order - r over jets) and builds the new trajectories by the Leibniz
    rule. An inert section (_inert_sections) holds only [p] and gives a
    zero theta column; it is never differentiated.

    Jet against generic ranks, at a smooth t0 and any order N. R_{d-3}
    has one frame, every monomial, in both modes. Clear a Q(t) basis of
    V_r to a saturated Q[t] lattice L_r, a direct summand of Q[t]^g, so
    its values at t0 stay independent. The witness of F_T p in degree
    2d-3 is unique over Q(t) and at t0 (only Koszul syzygies, of higher
    degree), so Cramer's rule on a minor nonzero at t0 makes it regular
    there: D and theta commute with Taylor expansion in s = t - t0, and
    the expansions of L_r meet every condition of levels 1..r to every
    order. Level 1 solves over the whole frame, so there the jet rank is
    at least the generic rank. A deeper level solves over combinations of
    the held picks, and a pick may differ from an expansion by s^e u with
    theta(u) of order N - e at t0 (a jump of the pointwise kernel), which
    the next condition need not kill: there the bound is not proved.
    unitary_rank needs none of it: it calls jet ranks stable only when
    they equal the exact generic ranks.
    """
    d = fiber.d
    dom = fiber.domain if order is None else JetDomain(order)
    cobasis = fiber.cobasis(d - 3)
    inert = _inert_sections(fiber, Ft, cobasis)
    trajs = [[HomPoly.monomial(e, dom.one(), domain=dom)] for e in cobasis]
    zero = (dom.zero(),) * fiber.genus
    ranks = []
    for r in range(rmax):
        active = [traj for traj, idle in zip(trajs, inert) if not idle]
        if r:
            for traj in active:
                traj.append(gm_derivative(fiber, Ft, traj[-1]))
        wcols = [
            zero if idle else theta_eval(fiber, Ft, traj[-1]).coords
            for traj, idle in zip(trajs, inert)
        ]
        if order is None:
            combos = kernel_basis(Matrix(list(zip(*wcols)), domain=dom))
        else:
            # pad the precision-(order - r) kernel vectors back to order
            combos = [
                tuple(Jet._of(c.coeffs + (Fraction(0),) * r) for c in cv)
                for cv in _stacked_kernel(wcols, order - r)
            ]
        # an inert column is zero, hence free: its kernel vector is its unit
        # vector, which carries [p], and every other vector is 0 on it
        held, held_inert = [], []
        for c in combos:
            j, *rest = (j for j, x in enumerate(c) if not _is_zero(x))
            idle = not rest and inert[j]
            if idle:
                held.append(trajs[j])
            else:
                held.append(_leibniz(active, [x for x, i in zip(c, inert) if not i]))
            held_inert.append(idle)
        trajs, inert = held, held_inert
        ranks.append(len(trajs))
        if not trajs:
            break
    ranks.extend([0] * (rmax - len(ranks)))

    result = FiltrationResult(
        mode="ratfun" if order is None else "jet",
        degree=d,
        genus=fiber.genus,
        t0=t0,
        order=order,
        max_level=rmax,
        ranks=tuple(ranks),
        sections=tuple(traj[0] for traj in trajs),
    )
    active = [traj for traj, idle in zip(trajs, inert) if not idle]
    if active:
        _verify_chain(fiber, Ft, active)
    return result


def _inert_sections(fiber: JacobianFiber, Ft: HomPoly, cobasis):
    """Flags the cobasis sections of R_{d-3} that theta cannot see.

    Let L be the lattice of differences of the exponents of F and F_T.
    The Jacobian ideal, theta and D respect the grading of monomials by
    their class modulo L, and theta adds the class [F] of F's monomials.
    A section is inert when R_{2d-3} has dimension 0 in its class plus
    [F], counted by socle duality (socle_dual_dims): theta vanishes on
    every derivative of it, so it lies in every level of the chain. The
    classes are taken modulo L rather than the fibre's own lattice,
    because F at a basepoint can drop a monomial that F_T keeps.
    """
    key, e = class_key((*fiber.F.terms, *Ft.terms)), next(iter(fiber.F.terms))
    targets = socle_dual_dims(key, e, 2 * fiber.d - 3)
    return [key(m[0] + e[0], m[1] + e[1]) not in targets for m in cobasis]


def _leibniz(trajs, coeffs):
    """The trajectory of Sum_j c_j p_j from those of the p_j by
    D^k(Sum_j c_j p_j) = Sum_i C(k, i) Sum_j c_j^(i) D^(k-i) p_j; over
    jets each term is cut to the precision of D^k p_j."""
    derivs = [coeffs]
    for _ in range(len(trajs[0]) - 1):
        derivs.append([c.derivative() for c in derivs[-1]])
    out = []
    for k, first in enumerate(trajs[0]):
        n = _precision(first)
        total = HomPoly.zero(first.degree, first.domain)
        for i in range(k + 1):
            for c, traj in zip(derivs[i], trajs):
                if _is_zero(c):
                    continue
                if n is not None:
                    c = c.truncate(n)
                total = total + _truncate_poly(traj[k - i], n).scale(comb(k, i) * c)
        out.append(total)
    return out


def _verify_chain(fiber: JacobianFiber, Ft: HomPoly, trajectories):
    """Check theta(D^(L-1) p) = 0 on each held trajectory [p, .., D^(L-1) p]
    of an active final section, L = max_level. The lower conditions hold
    already: the entries combine ones gm_derivative was applied to, which
    raises unless theta kills them."""
    for traj in trajectories:
        if not theta_eval(fiber, Ft, traj[-1]).is_zero:
            raise ExactCoreError(
                "filtration invariant violated: final theta-condition nonzero"
            )


# ---------------------------------------------------------------------------
# certified rank with diagnostics


@dataclass(frozen=True)
class UnitaryRank:
    """A filtration run plus the check that certifies it.

    In jet mode checks holds one run, the generic chain over Q(t) to the
    same depth, and `stable` records whether its ranks equal the jet
    ranks. Over Q(t) the computation is generic and stable by fiat.
    """

    primary: FiltrationResult
    checks: tuple
    stable: bool

    @property
    def rank_u(self) -> int:
        return self.primary.rank_u

    @property
    def ranks(self) -> tuple:
        return self.primary.ranks


def unitary_rank(
    fam: FamilySpec,
    mode: str = None,
    t0=None,
    order: int = None,
    max_level: int = None,
    seed: int = 0,
    _pk: PointKernel = None,
) -> UnitaryRank:
    """Rank of the flat unitary subbundle, certified.

    In jet mode the chain runs once at t0 (seeded when None; _pk's when
    the caller holds its pointwise kernel) and once over Q(t), and the
    jet ranks are stable when they equal the generic ones. Over Q(t)
    there is no basepoint: a t0 or an order given there raises
    ValueError.
    """
    mode, order, rmax = _settings(fam, mode, order, max_level, t0)
    if mode == "ratfun":
        return UnitaryRank(primary=filtration_ranks(fam, rmax), checks=(), stable=True)
    if _pk is not None:
        t0, base = _pk.t0, _pk.fiber
    else:
        t0, base, _ = _certified_fibre(fam, t0, seed)
    primary = _walk_chain(*_jet_fibre(fam, t0, base, order), t0, order, rmax)
    generic = filtration_ranks(fam, rmax)
    return UnitaryRank(primary, checks=(generic,), stable=primary.ranks == generic.ranks)


# ---------------------------------------------------------------------------
# second-order pairings on the pointwise kernel


@dataclass(frozen=True)
class Eta2Result:
    """The derivative pairing on the pointwise Higgs kernel.

    matrix[i][j] pairs the order-0 theta-value of the derivative of the
    extended kernel vector i against kernel vector j (sign: minus the
    theta of the derivative), which is 0 for every extendable row (see
    eta2_on_K). Rows of non-extendable vectors are None and their
    indices are listed in flags. The zero rows are kept only because the
    benchmark's pointwise-sweep workload checks the matrix's shape, until
    ROADMAP item 1 frees perfbench/ to change."""

    t0: Fraction
    basis: tuple
    matrix: tuple
    flags: tuple


def eta2_on_K(
    fam: FamilySpec,
    t0=None,
    seed: int = 0,
    _pk: PointKernel = None,
) -> Eta2Result:
    """Second-order pairing via first-order extensions of kernel vectors,
    on the certified rational fibre alone.

    With F(t0 + s) = F + s F_T and F_T(t0 + s) = F_T + s F_TT mod s^2 (F,
    F_T, F_TT at t0), a kernel vector v with representative p extends to
    a kernel section v + s x_1 of H_0 + s H_1 exactly when H_0 x_1 = -H_1 v
    is solvable on the pointwise Higgs matrix, where H_1 v = [F_TT p -
    Sum_i A_i dF_T/dY_i] and F_T p = Sum_i A_i dF/dY_i (the membership
    witness A). The solve fails exactly on jumping parameter values, and
    such rows are flagged. Row i pairs minus the theta value of the
    extension's derivative e_i with every kernel vector p_j by the socle
    pairing, and that row is 0 whatever e_i is: the entry is
    -lambda(p_j F_T e_i), F_T p_j lies in the Jacobian ideal J because
    v_j is in ker theta, so the product lies in J_{3d-6}, where lambda
    is 0. An extendable row is therefore built as zeros.
    """
    pk = _pk if _pk is not None else pointwise_kernel(fam, t0, seed)
    k = len(pk.basis)
    d = fam.degree
    if k == 0:
        return Eta2Result(t0=pk.t0, basis=(), matrix=(), flags=())

    fiber, Ft = pk.fiber, pk.Ft
    Ftt = specialize(t_derivative(fam, 2), pk.t0)
    dFt = [poly_partial(Ft, i) for i in range(3)]
    solver = LinearSolver(pk.higgs)
    zero_row = (Fraction(0),) * k
    rows = []
    flags = []
    for i, v in enumerate(pk.basis):
        p = fiber.representative(RingElement(d - 3, v))
        w = membership_witness(fiber, poly_mul(Ft, p))
        h1 = poly_mul(Ftt, p) - sum(map(poly_mul, w.parts, dFt), HomPoly.zero(2 * d - 3))
        if solver.try_solve([-c for c in fiber.normal_form(h1).coords]) is None:
            flags.append(i)
            rows.append(None)
        else:
            rows.append(zero_row)
    # the witness solver serves this call alone; the fibre outlives it in pk
    fiber._column_solvers.pop(2 * d - 3, None)
    return Eta2Result(
        t0=pk.t0, basis=pk.basis, matrix=tuple(rows), flags=tuple(flags)
    )


def mu_principal(fam: FamilySpec, t0=None, seed: int = 0, _pk: PointKernel = None):
    """Pairing of kernel vectors through the second T-derivative of the
    family: entry (i, j) is the socle coefficient of a_i * F_TT * a_j,
    the socle pairing of a_j with the class of F_TT * a_i."""
    pk = _pk if _pk is not None else pointwise_kernel(fam, t0, seed)
    k = len(pk.basis)
    d = fam.degree
    if k == 0:
        return pk, ()
    Ftt = specialize(t_derivative(fam, 2), pk.t0)
    if Ftt.is_zero:
        zero = Fraction(0)
        return pk, tuple(tuple(zero for _ in range(k)) for _ in range(k))
    fiber = pk.fiber
    elts = [RingElement(d - 3, tuple(v)) for v in pk.basis]
    rows = []
    for a in elts:
        u = fiber.normal_form(poly_mul(Ftt, fiber.representative(a)))
        rows.append(fiber.socle_pairs(elts, u))
    return pk, tuple(rows)


# ---------------------------------------------------------------------------
# the comparison report


@dataclass(frozen=True)
class MuReport:
    """Second-order pairings at one basepoint, compared.

    eta2_flags lists the kernel vectors that do not extend to first
    order; the derivative pairing is 0 on every other row (eta2_on_K).
    c, the least-squares multiple of the principal pairing closest to it
    on those rows, is 0 when the principal pairing is nonzero there and
    None otherwise. inclusion_ok records that the computed flat unitary
    rank does not exceed the number of extendable kernel vectors."""

    t0: Fraction
    degree: int
    genus: int
    kernel_dim: int
    basis: tuple
    eta2_flags: tuple
    principal: tuple
    c: Fraction | None
    rank_u: int
    ranks: tuple
    rank_stable: bool
    inclusion_ok: bool


def mu_report(
    fam: FamilySpec,
    t0=None,
    seed: int = 0,
    mode: str = None,
    order: int = None,
    max_level: int = None,
) -> MuReport:
    """Assemble the second-order comparison at one basepoint t0, which the
    pointwise kernel reads in either mode; mode, order and max_level are
    unitary_rank's, checked before any fibre is built."""
    _settings(fam, mode, order, max_level)
    pk = pointwise_kernel(fam, t0, seed)
    flags = eta2_on_K(fam, _pk=pk).flags
    _, principal = mu_principal(fam, _pk=pk)
    k = len(pk.basis)

    usable = [i for i in range(k) if i not in flags]
    fitted = any(principal[i][j] != 0 for i in usable for j in range(k))
    rk = unitary_rank(
        fam, mode=mode, order=order, max_level=max_level, seed=seed, _pk=pk
    )

    return MuReport(
        t0=pk.t0,
        degree=fam.degree,
        genus=fam.genus,
        kernel_dim=k,
        basis=pk.basis,
        eta2_flags=flags,
        principal=principal,
        c=Fraction(0) if fitted else None,
        rank_u=rk.rank_u,
        ranks=rk.ranks,
        rank_stable=rk.stable,
        inclusion_ok=rk.rank_u <= len(usable),
    )
