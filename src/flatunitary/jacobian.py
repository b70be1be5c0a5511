"""Artinian Jacobian rings of plane curves, one graded degree at a time.

For a degree-d form F in Y0, Y1, Y2 with partial derivatives F0, F1, F2,
the degree-k piece of the Jacobian ideal is spanned by the monomial
multiples Y^m * F_i with deg m = k - (d-1); the quotient R_k is presented
by the non-pivot monomials (the cobasis) of the reduced echelon form of
that span. Building a fibre runs only its exact smoothness certificate:
dim R_{3d-5} = 0, which holds exactly when the partials share no projective
zero. On a smooth fibre dim R_{d-3} = dim R_{2d-3} = (d-1)(d-2)/2 and
dim R_{3d-6} = 1; the one-dimensional top piece carries the socle pairing,
read off its echelon data into one table per fibre.
Each graded piece R_k is row-reduced the first time anything reads degree
k (its dimension, cobasis, a normal form, a column solver) and then
cached, so a fibre pays only for the degrees its caller uses.

Fibres work over the rationals, over rational functions of t (the generic
fibre of a family), or over jets at a basepoint. A jet fibre reuses only
its order-0 fibre's cobasis and certificate; the column solver of each
degree eliminates its own order-0 block over Z, so only integer
elimination ever runs.

Over the rationals, over Q(t) and over jets no scalar matrix is built for
a fibre, its normal forms or its column solvers. Each partial F_i is
cleared once into the fibre's ring (Z or Z[t] from exactcore's table;
over jets, over all its s-coefficients), and every generator row
Y^m * F_i is F_i's cleared coefficients at the monomial indices of Y^m
times its terms. That row lies in one torus class: the class of m plus
an exponent of F_i modulo the lattice of differences of F's exponents
(class_key). Every Macaulay matrix of a fibre is thus block diagonal, and
over a field the certificate, the echelon data and the column solver (a
LinearSolver per class, built when a right-hand side first touches it)
run fraction-free elimination (rref_rows) on each class alone;
eliminated together, each block's entries would carry the pivots of the
blocks before it. From degree 2d-4 up socle duality makes a class's
dimension a monomial count (socle_dual_dims), so only the classes with a
cobasis monomial are row-reduced. Over Q(t) the certificate tests a
block at integer points of the t-line, by ranks modulo one prime at a
few and, when those fall short, by exact integer ranks at enough points
that a nonzero minor cannot vanish at all of them. Over jets a degree's
column solver is one JetSystemSolver; every solver takes its matrix
cleared by columns, one scale per partial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import _univar as up
from .exactcore import (
    RATIONAL,
    DomainMismatchError,
    ExactCoreError,
    JetDomain,
    JetSystemSolver,
    LinearSolver,
    Matrix,
    RationalDomain,
    full_column_rank_int,
    rref,  # unused here; perfbench's binding-site check expects it bound
    rref_rows,
    _Columns,
    _clear_jet_rows,
    _is_zero,
    _ring,
)
from .polyring import (
    HomPoly,
    graded_basis,
    monomial_count,
    monomial_index,
    poly_mul,
    poly_partial,
)


# points of the t-line at which the Z[t] rows of a Q(t) certificate are tested
_CERT_POINTS = (1, -1, 2, -2, 3)


class SingularFibreError(ExactCoreError, ValueError):
    """The smoothness certificate failed; carries the offending degree."""

    def __init__(self, degree: int, detail: str = ""):
        self.degree = degree
        msg = f"singular fibre: certificate failed in degree {degree}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class RingElement:
    """Coordinates of a residue class over the cobasis of its degree."""

    degree: int
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coords)


def genus_of_degree(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def standard_degrees(d: int):
    """The graded degrees of the Hodge-theoretic pipeline: d-3, d, 2d-3, 3d-6."""
    return (d - 3, d, 2 * d - 3, 3 * d - 6)


class _DegreeData:
    """Echelon data of one graded piece over a field domain, row-reduced
    one torus class at a time (rref_rows over the fibre's ring), from
    degree 2d-4 up only those socle_dual_dims counts. RREF row k of a
    class is its echelon row k over the class's pivot value: over Z the
    least common denominator of the class's RREF, over Z[t] its last
    Bareiss pivot, 1 for a class without generators. cols[i] = (j, heads,
    entries, pv) for the i-th cobasis monomial j: its class's pivot
    columns, those echelon rows' entries in column j and the pivot value."""

    __slots__ = ("cobasis_idx", "cols")

    def __init__(self, cols):
        self.cols = tuple(sorted(cols))  # by monomial index, each one once
        self.cobasis_idx = tuple(c[0] for c in self.cols)


class JacobianFiber:
    """One fibre (or jet/generic-fibre thickening) of a Jacobian ring."""

    def __init__(self, F: HomPoly):
        if isinstance(F.domain, JetDomain):
            raise ValueError("build a jet fibre by thickening its order-0 fibre")
        self._setup(F)
        self.certificate = self._smoothness_certificate(3 * self.d - 5)

    def _setup(self, F: HomPoly):
        if F.degree < 3:
            raise ValueError(f"curve degree must be >= 3, got {F.degree}")
        self.F = F
        self.d = F.degree
        self.genus = genus_of_degree(self.d)
        self.domain = F.domain
        self.partials = tuple(poly_partial(F, i) for i in range(3))
        if isinstance(F.domain, JetDomain):
            self._ring, clear = None, _clear_jet_rows
        else:
            self._ring = _ring(F.domain)
            clear = self._ring.clear
            self._key = class_key(F.terms)
        self._int_partials = tuple(_integer_terms(P, clear) for P in self.partials)
        self._degree_data = {}
        self._column_solvers = {}
        self._socle = None
        self._order0 = None

    def thicken(self, F: HomPoly) -> "JacobianFiber":
        """The jet fibre of F. It shares this rational fibre's certificate
        and its echelon data, which either fibre prepares on first use; F's
        order-0 part must be this fibre's polynomial."""
        if not isinstance(F.domain, JetDomain) or _order0_part(F) != self.F:
            raise ValueError("F is not a jet thickening of this rational fibre")
        jet = JacobianFiber.__new__(JacobianFiber)
        jet._setup(F)
        jet._order0, jet.certificate = self, self.certificate
        return jet

    # -- construction internals ------------------------------------------

    def _blocks(self, k: int, at=None, only=None):
        """Degree k's generator rows by torus class (only those in only when
        given): {class: (gens, cols, rows)}, cols the class's monomial
        indices in increasing order, gens the (i, m)-order positions of the
        generators Y^m * F_i in it (the class of m plus an exponent of F_i)
        and rows their rows over cols, made of the partials' cleared terms,
        over Q(t) evaluated at t = at when given."""
        key, zero, blocks, where = self._key, self._ring.zero, {}, {}
        partials = [terms for _, terms in self._int_partials]
        if at is not None:
            partials, zero = [[(e, up.zeval(x, at)) for e, x in terms] for terms in partials], 0
        for j, c in enumerate(key(x, y) for x, y, _ in graded_basis(k)):
            if only is None or c in only:
                cols = blocks.setdefault(c, ([], [], []))[1]
                where[j] = len(cols)
                cols.append(j)
        mults = graded_basis(k - (self.d - 1))
        for i, terms in enumerate(partials):
            for n, (m0, m1, m2) in enumerate(mults if terms else (), i * len(mults)):
                (a, b, _), _ = terms[0]
                if block := blocks.get(key(m0 + a, m1 + b)):
                    row = [zero] * len(block[1])
                    for (a, b, c), x in terms:
                        row[where[monomial_index((m0 + a, m1 + b, m2 + c))]] = x
                    block[0].append(n)
                    block[2].append(row)
        return blocks

    def _smoothness_certificate(self, k: int):
        """dim R_k = 0, certified one torus class at a time."""
        ratfun, todo = not isinstance(self.domain, RationalDomain), None
        # over Q(t) a specialization t = a never has larger rank than the
        # rows, so full rank at one point certifies a class's block
        for a in _CERT_POINTS if ratfun else (None,):
            blocks = self._blocks(k, a)
            todo = [c for c in todo or blocks
                    if not full_column_rank_int(blocks[c][2], len(blocks[c][1]))]
            if not todo:
                return {"degree": k, "dim": 0, "method": "reduction"}
        # a nonzero minor of a block of width w, of t-degree at most w D
        # for the partials' t-degree D, is nonzero at one of any w D + 1
        # points, so the largest rank there is the rank over Q(t)
        D = ratfun and max((len(x) - 1 for _, t in self._int_partials for _, x in t), default=0)
        corank = 0
        for c in todo:
            w, rank = len(blocks[c][1]), 0
            for a in range(w * D + 1) if ratfun else (None,):
                rank = max(rank, len(rref_rows(self._blocks(k, a, (c,))[c][2], w, _ring(RATIONAL))[0]))
                if rank == w:
                    break
            corank += w - rank
        if corank:
            raise SingularFibreError(k, f"dim R_{k} = {corank}")
        return {"degree": k, "dim": 0, "method": "exact"}

    def _data(self, k: int) -> _DegreeData:
        """The echelon data of degree k, prepared the first time anything
        reads degree k and then cached; a jet fibre reads its order-0
        fibre's."""
        if self._order0 is not None:
            return self._order0._data(k)
        if k not in self._degree_data:
            self._degree_data[k] = self._prepare_degree(k)
        return self._degree_data[k]

    def _prepare_degree(self, k: int) -> _DegreeData:
        """Degree k's echelon data; from 2d-4 up only the classes that
        socle_dual_dims says hold a cobasis monomial are row-reduced."""
        cols, only = [], socle_dual_dims(self._key, next(iter(self.F.terms)), k)
        for _, idx, rows in self._blocks(k, only=only).values():
            pivots, pv = rref_rows(rows, len(idx), self._ring)
            heads, free = tuple(idx[c] for c in pivots), set(range(len(idx))) - set(pivots)
            cols += [(idx[c], heads, [row[c] for row in rows[: len(pivots)]], pv) for c in free]
        return _DegreeData(cols)

    # -- public queries ---------------------------------------------------

    def dim(self, k: int) -> int:
        return len(self._data(k).cols)

    def cobasis(self, k: int):
        """Exponent triples of the representing monomials of R_k."""
        data = self._data(k)
        basis = graded_basis(k)
        return tuple(basis[i] for i in data.cobasis_idx)

    def normal_form(self, p: HomPoly) -> RingElement:
        """Canonical cobasis coordinates of p's residue class.

        Over jets this is the cobasis part of the degree's column_solver
        solve, and p may have any precision up to the fibre's; the result
        carries p's precision."""
        lower_jet = (
            self._order0 is not None
            and isinstance(p.domain, JetDomain)
            and p.domain.precision <= self.domain.precision
        )
        if p.domain != self.domain and not lower_jet:
            raise DomainMismatchError(
                f"polynomial domain {p.domain} does not match fibre domain {self.domain}"
            )
        data = self._data(p.degree)
        if self._order0 is not None:
            solver = self.column_solver(p.degree)
            n = solver.ncols
            terms = (p.domain.precision, [(monomial_index(e), c) for e, c in p.terms.items()])
            x, _ = solver.try_solve(None, _columns=range(n - len(data.cols), n), _terms=terms)
            return RingElement(p.degree, x)
        # coordinate j is p_j - sum_k p_{pivot k} * (RREF row k)_j over
        # j's class, with p cleared to b / scale and RREF row k the echelon
        # row over the class's pivot value pv
        ring, zero, scales = self._ring, self.domain.zero(), []
        (cleared,) = ring.clear([list(p.terms.values())], scales)
        b = [ring.zero] * monomial_count(p.degree)
        for e, x in zip(p.terms, cleared):
            b[monomial_index(e)] = x

        def coord(j, heads, col, pv):
            num = ring.sub(ring.mul(b[j], pv), ring.dot(col, [b[c] for c in heads]))
            return ring.frac(num, ring.mul(pv, scales[0])) if num else zero

        return RingElement(p.degree, tuple(coord(*c) for c in data.cols))

    def representative(self, elt: RingElement) -> HomPoly:
        """The canonical polynomial representative, supported on the cobasis."""
        cob = self.cobasis(elt.degree)
        if len(cob) != len(elt.coords):
            raise ValueError("coordinate length does not match the cobasis")
        return HomPoly(elt.degree, dict(zip(cob, elt.coords)), domain=self.domain)

    def column_solver(self, k: int):
        """The one solver of degree k, for writing vectors in the ideal
        generators (columns in the fixed (i, m) order).

        Generator column (i, m) is F_i's cleared terms, over their one
        scale, at the monomial indices of Y^m times those terms. Over field
        domains the solver is a _ClassSolver. Over jets it is one
        JetSystemSolver on the generators followed by the unit columns of
        the degree-k cobasis, so every right-hand side solves: normal_form
        reads the cobasis part and membership_witness the generator part,
        and a form leaves the ideal at the first s-order where the cobasis
        part is nonzero; that cobasis is the order-0 fibre's."""
        if k in self._column_solvers:
            return self._column_solvers[k]
        mults, scales, entries = graded_basis(k - (self.d - 1)), [], []
        if self._order0 is None:
            scales = [scale for scale, _ in self._int_partials for _ in mults]
            solver = _ClassSolver(self.domain, scales, list(self._blocks(k).values()))
        else:
            for scale, terms in self._int_partials:
                for m0, m1, m2 in mults:
                    scales.append(scale)
                    entries.append(tuple(
                        (monomial_index((m0 + a, m1 + b, m2 + c)), x) for (a, b, c), x in terms
                    ))
            for r in self._data(k).cobasis_idx:
                scales.append(1)
                entries.append(((r, (1,)),))
            solver = JetSystemSolver(_Columns(monomial_count(k), self.domain, scales, entries))
        self._column_solvers[k] = solver
        return solver

    def delta_class(self, p: HomPoly) -> RingElement:
        """Image of a degree-d form in R_d: the first-order deformation
        class of the fibre in the direction of p."""
        if p.degree != self.d:
            raise ValueError(f"delta_class needs degree {self.d}, got {p.degree}")
        return self.normal_form(p)

    def higgs_matrix(self, xi: RingElement) -> Matrix:
        """Multiplication by xi in R_d as a map R_{d-3} -> R_{2d-3}.

        Columns follow the cobasis of R_{d-3}, rows the cobasis of
        R_{2d-3}."""
        if xi.degree != self.d:
            raise ValueError(f"higgs_matrix needs a degree-{self.d} class")
        rep = self.representative(xi)
        cols = []
        for m in self.cobasis(self.d - 3):
            prod = poly_mul(HomPoly.monomial(m, 1, domain=self.domain), rep)
            cols.append(self.normal_form(prod).coords)
        nrows = self.dim(2 * self.d - 3)
        rows = [tuple(col[r] for col in cols) for r in range(nrows)]
        return Matrix(rows, ncols=len(cols), domain=self.domain)

    def _socle_table(self):
        """(pv, S), S[a][b] over pv the socle coordinate of m_a * m'_b
        (cobasis monomials of R_{d-3} and R_{2d-3}), built once from the
        echelon data of R_{3d-6}, whose one row-reduced class is the
        Hessian's: pv at the socle monomial, minus the socle column's entry
        of echelon row k at row k's pivot, 0 elsewhere."""
        if self._socle is None:
            ring, ((j, heads, col, pv),) = _ring(self.domain), self._data(3 * self.d - 6).cols
            value = {c: ring.sub(ring.zero, e) for c, e in zip(heads, col)}
            value[j] = pv
            self._socle = pv, tuple(
                [value.get(monomial_index((a + x, b + y, c + z)), ring.zero)
                 for x, y, z in self.cobasis(2 * self.d - 3)]
                for a, b, c in self.cobasis(self.d - 3)
            )
        return self._socle

    def socle_pairs(self, ps, q: RingElement) -> tuple:
        """The pairing R_{d-3} x R_{2d-3} -> Q or Q(t) of each p in ps with
        q: the coefficient of the last cobasis monomial of degree 3d-6 in
        the product's normal form, canonical up to one global nonzero
        scalar. It is bilinear, so it is p^T S q / pv with the socle table
        S; over the fibre's ring p and q are cleared, S q is taken once and
        there is one division per p."""
        d, scales, (pv, table) = self.d, [], self._socle_table()
        if (q.degree, len(q.coords)) != (2 * d - 3, len(table[0])) or any(
            (p.degree, len(p.coords)) != (d - 3, len(table)) for p in ps
        ):
            raise ValueError(f"socle_pairs needs cobasis coordinates in degrees {d - 3}, {2 * d - 3}")
        ring = self._ring
        cq, *cps = ring.clear([list(q.coords)] + [list(p.coords) for p in ps], scales)
        sq = [ring.dot(row, cq) for row in table]
        den = ring.mul(pv, scales[0])
        return tuple(ring.frac(ring.dot(cp, sq), ring.mul(den, s)) for cp, s in zip(cps, scales[1:]))


class _ClassSolver:
    """A degree's column solver over a field: a LinearSolver per torus
    class. The system is block diagonal, so b (domain elements) solves when
    each class's part does, and the solution with free variables 0 is the
    classes' side by side; a class whose part of b is zero is not solved,
    and its LinearSolver (on the fibre's (gens, cols, rows) block, with the
    generators' scales) is built when b is first nonzero on it."""

    def __init__(self, domain, scales, blocks):
        self._domain, self._scales, self._blocks, self._solvers = domain, scales, blocks, {}

    def try_solve(self, b):
        """Particular solution of M x = b with free variables 0, or None."""
        x = [self._domain.zero()] * len(self._scales)
        for i, (gens, cols, rows) in enumerate(self._blocks):
            if not all(_is_zero(b[c]) for c in cols):
                if i not in self._solvers:
                    scales = [self._scales[g] for g in gens]
                    sparse = [tuple((c, a) for c, a in enumerate(row) if a) for row in rows]
                    self._solvers[i] = LinearSolver(_Columns(len(cols), self._domain, scales, sparse))
                y = self._solvers[i].try_solve([b[c] for c in cols])
                if y is None:
                    return None
                for j, v in zip(gens, y):
                    x[j] = v
        return tuple(x)


def class_key(exponents):
    """key(x, y), the class of a monomial with first exponents x, y modulo
    the lattice L of differences of the given exponents: differences have
    coordinate sum 0, so in one degree the Hermite form Z(a, b) + Z(0, c)
    of L on the first two coordinates gives each class a canonical key."""
    (x0, y0, _), a, b, c = next(iter(exponents), (0, 0, 0)), 0, 0, 0
    for e in exponents:
        x, y = e[0] - x0, e[1] - y0
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        c = gcd(c, y)
    a, b = (-a, -b) if a < 0 else (a, b)

    def key(x, y):
        if a:
            x, y = x % a, y - x // a * b
        return x, y % c if c else y

    return key


def socle_dual_dims(key, e, k: int):
    """{class: dim} of R_k of a smooth curve from k = 2d-4 up (None below);
    e is an exponent of F, key a class key whose lattice holds F's exponent
    differences. The socle pairing into R_{3d-6}, of the Hessian's class
    sigma = 3 e - (2, 2, 2), is perfect and graded (Carlson-Griffiths) and
    R_j = S_j below d-1, so dim c = #monomials of S_{3d-6-k} in sigma - c."""
    d, (a, b, _) = sum(e), e
    if k >= 2 * d - 4:
        return Counter(key(3 * a - 2 - x, 3 * b - 2 - y) for x, y, _ in graded_basis(3 * d - 6 - k))
    return None


def _integer_terms(P: HomPoly, clear):
    """(L, terms): P's coefficients cleared as one row by clear (a ring's,
    or the jets' over every s-coefficient), L the lcm of their
    denominators (an int over Q and jets, a Z[t] polynomial over Q(t)) and
    terms P's (exponent, cleared coefficient) pairs."""
    scales = []
    (row,) = clear([list(P.terms.values())], scales)
    return scales[0], tuple(zip(P.terms, row))


def _order0_part(F: HomPoly) -> HomPoly:
    return F.map_coefficients(lambda c: c.order0, domain=RATIONAL)


def make_fiber(F: HomPoly) -> JacobianFiber:
    """Build a fibre: run its smoothness certificate in degree 3d-5 and
    raise SingularFibreError when it fails. No graded degree is prepared
    until it is read. A jet polynomial gets its order-0 fibre built, then
    thickened."""
    if isinstance(F.domain, JetDomain):
        return JacobianFiber(_order0_part(F)).thicken(F)
    return JacobianFiber(F)
