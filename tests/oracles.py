"""Independent reference implementations used only to check results.

Everything here is deliberately naive or delegated to sympy so that a
bug in the package cannot hide in its own oracle.
"""

from fractions import Fraction
from math import comb

import sympy
from sympy.polys.matrices import DomainMatrix

from flatunitary import _univar as up
from flatunitary.exactcore import RATFUN, Jet, JetDomain, LinearSolver, Matrix, _is_zero, kernel_basis
from flatunitary.family import _MAX_T_POWER, FamilyParseError, FamilySpec, specialize, t_derivative
from flatunitary.gaussmanin import _precision, _truncate_poly, gm_derivative, theta_eval
from flatunitary.polyring import (
    HomPoly,
    graded_basis,
    monomial_sort_key,
    poly_mul,
    poly_partial,
)
from flatunitary.jacobian import RingElement, class_key
from flatunitary.unitary import _jet_fibre, _stacked_kernel

Y0, Y1, Y2, T = sympy.symbols("Y0 Y1 Y2 T")
QT = sympy.QQ.frac_field(T)


# ---------------------------------------------------------------------------
# plain-Fraction Gauss-Jordan with the same pinned pivot rule


def naive_rref(rows, ncols=None):
    """Textbook reduced row echelon form over Fraction.

    Pivot rule: scan columns left to right, take the first nonzero entry
    at or below the next pivot row, swap it up. Returns (rows, pivots).
    Given ncols, pivots are searched in the first ncols columns only and
    the columns past them are carried along (augmented columns).
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return rows, ()
    nrows, ncols = len(rows), len(rows[0]) if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


def naive_ff_gauss_jordan(rows, ncols, mul, sub, divexact, is_zero):
    """Dense single-step fraction-free Gauss-Jordan, in place.

    The loop the sparse kernels in flatunitary._kernels replaced: every
    row other than the pivot row is updated at every step, entry by entry,
    as (p * row - row[c] * pivot_row) / q, with q the previous pivot.
    Same pivot rule and augmented-column convention as the kernels; the
    ring operations are passed in (divexact must raise when inexact).
    Returns the pivot columns.
    """
    nrows = len(rows)
    width = len(rows[0]) if nrows else ncols
    pivots = []
    prev = None  # the ring's 1: the first step divides by nothing
    piv_r = 0
    for c in range(ncols):
        if piv_r == nrows:
            break
        r = piv_r
        while r < nrows and is_zero(rows[r][c]):
            r += 1
        if r == nrows:
            continue
        rows[r], rows[piv_r] = rows[piv_r], rows[r]
        piv_row = rows[piv_r]
        p = piv_row[c]
        for i in range(nrows):
            if i == piv_r:
                continue
            row = rows[i]
            x = row[c]
            for j in range(width):
                v = sub(mul(p, row[j]), mul(x, piv_row[j]))
                row[j] = v if prev is None else divexact(v, prev)
        prev = p
        pivots.append(c)
        piv_r += 1
    return pivots


def naive_solve(rows, rhs):
    """Particular solution with every free variable set to zero.

    Returns None when the system is inconsistent.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    aug, _ = naive_rref([list(row) + [b] for b, row in zip(rhs, rows)])
    x = [Fraction(0)] * ncols
    for row in aug:
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        if lead == ncols:
            return None
        x[lead] = row[ncols]
    return tuple(x)


def naive_jet_solve(blocks, b_orders):
    """Order-by-order solve of M(s) x(s) = b(s) through naive_solve.

    blocks[k] is the rational matrix M_k (as many as the solver has
    orders), b_orders[k] the order-k right-hand side. Each order solves
    M_0 x_k = b_k - Sum_{i=1..k} M_i x_{k-i}. Returns (xs, None), xs[k]
    the order-k solution, or (None, k) for the first unsolvable order k.
    """
    xs = []
    for k, b in enumerate(b_orders):
        rhs = [
            Fraction(b[r])
            - sum(
                Fraction(blocks[i][r][j]) * xs[k - i][j]
                for i in range(1, k + 1)
                for j in range(len(xs[0]))
            )
            for r in range(len(b))
        ]
        x = naive_solve(blocks[0], rhs)
        if x is None:
            return None, k
        xs.append(x)
    return xs, None


def naive_stacked_kernel(cols, m):
    """Extendable kernel of a jet column system, the textbook way.

    cols[j][r] lists the s-coefficients of entry r of column j (at least
    m of them). Writes every order of Sum_j c_j(s) cols_j(s) = 0 (mod s^m)
    as one block-Toeplitz Fraction matrix, takes its kernel basis from
    naive_rref (one vector per free column, 1 there and 0 at the other
    free columns) and keeps, greedily, the vectors whose order-0 parts
    raise the rank. Returns each pick as J tuples of m coefficients.
    """
    J = len(cols)
    nrows = len(cols[0])
    big = []
    for a in range(m):
        for r in range(nrows):
            row = []
            for b in range(m):
                k = a - b
                for j in range(J):
                    row.append(Fraction(cols[j][r][k]) if k >= 0 else Fraction(0))
            big.append(row)
    red, pivots = naive_rref(big)
    free = [f for f in range(m * J) if f not in pivots]
    reduced = []
    picks = []
    for f in free:
        v = [Fraction(0)] * (m * J)
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        head = v[:J]
        for lead, row in reduced:
            if head[lead] != 0:
                g = head[lead]
                head = [a - g * b for a, b in zip(head, row)]
        lead = next((i for i, a in enumerate(head) if a != 0), None)
        if lead is None:
            continue
        reduced.append((lead, [x / head[lead] for x in head]))
        picks.append(tuple(tuple(v[b * J + j] for b in range(m)) for j in range(J)))
    return picks


def naive_canonical_kernel(red, pivots, ncols, zero, one, neg):
    """The canonical kernel basis read off a reduced row echelon form
    (red, pivots): for each free column f, in increasing order, the vector
    with one at f, zero at the other free columns and neg((red row k)[f])
    at pivot column pivots[k]."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(red, pivots):
            v[c] = neg(row[f])
        basis.append(tuple(v))
    return basis


def naive_kernel_dim(rows, ncols):
    red, pivots = naive_rref([list(r) for r in rows]) if rows else ([], ())
    return ncols - len(pivots)


# ---------------------------------------------------------------------------
# polynomials over Q: Fraction coefficient tuples, ascending powers, no
# trailing zeros


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def qpoly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def qpoly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def qpoly_divexact(a, b):
    """a / b over Q by long division; ArithmeticError on a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + len(b) - 1] / b[-1]
        quo[k] = q
        for j, cb in enumerate(b):
            rem[k + j] -= q * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _trim(quo)


# ---------------------------------------------------------------------------
# elimination over Q(t), delegated to sympy


def _qq(c):
    c = Fraction(c)
    return sympy.QQ(c.numerator, c.denominator)


def _frac_ratfun(entry):
    """A (num, den) entry as an element of sympy's field QQ(t), whose
    arithmetic keeps every value cancelled; no expression trees."""

    def poly(coeffs):
        return QT.field(QT.field.ring.from_dict({(k,): _qq(c) for k, c in enumerate(coeffs) if c}))

    num, den = entry
    return poly(num) / poly(den)


def _frac_pair(x):
    """An element of QQ(t) as (num, den) Fraction tuples in ascending
    powers: coprime, monic denominator, zero as ((), (1,))."""

    def coeffs(poly):
        cs = [Fraction(0)] * (max((k for (k,) in poly), default=-1) + 1)
        for (k,), c in poly.items():
            cs[k] = Fraction(int(c.numerator), int(c.denominator))
        return cs

    num, den = coeffs(dict(x.numer)), coeffs(dict(x.denom))
    lc = den[-1]
    num = [c / lc for c in num]
    while num and num[-1] == 0:
        num.pop()
    return tuple(num), tuple(c / lc for c in den)


def naive_ratfun_rref(rows):
    """Reduced row echelon form over Q(t) by sympy's rref in the field
    QQ(t), whose arithmetic keeps each entry cancelled. Entries are
    (numerator, denominator) coefficient sequences in ascending powers of
    t. Returns (rows of _frac_pair entries, pivots)."""
    entries = [[_frac_ratfun(e) for e in row] for row in rows]
    m = DomainMatrix(entries, (len(rows), len(rows[0])), QT)
    red, pivots = m.rref()
    return [[_frac_pair(x) for x in row] for row in red.to_list()], tuple(pivots)


def naive_ratfun_corank(rows, points=(Fraction(1, 3), Fraction(-2, 7))):
    """Column corank over QQ(t) of (numerator, denominator) rows. A
    specialization t = a never has larger rank, so full column rank at
    one of the points settles it by sympy's rank over QQ; otherwise the
    corank comes from naive_ratfun_rref."""
    ncols = len(rows[0])

    def at(coeffs, a):
        return sum(Fraction(c) * a**k for k, c in enumerate(coeffs))

    for a in points:
        values = [[(at(num, a), at(den, a)) for num, den in row] for row in rows]
        if any(den == 0 for row in values for _, den in row):
            continue  # a pole: t = a is no specialization
        m = DomainMatrix([[_qq(num / den) for num, den in row] for row in values], (len(rows), ncols), sympy.QQ)
        if m.rank() == ncols:
            return 0
    return ncols - len(naive_ratfun_rref(rows)[1])


def naive_ratfun_solve(rows, rhs):
    """Particular solution over Q(t) with every free variable zero, as
    _frac_pair entries; None when the system is inconsistent."""
    ncols = len(rows[0])
    red, pivots = naive_ratfun_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [((), (Fraction(1),))] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return tuple(x)


def naive_ratfun_normal_form(rref_rows, pivots, cobasis, vector):
    """Cobasis coordinates v_j - Sum_k v_{pivot k} * (RREF row k)_j over
    QQ(t) by sympy, for rref_rows and pivots from naive_ratfun_rref and
    vector a sequence of (numerator, denominator) entries; returns
    _frac_pair entries."""
    v = [_frac_ratfun(e) for e in vector]
    return tuple(
        _frac_pair(
            v[j] - sum((v[c] * _frac_ratfun(row[j]) for row, c in zip(rref_rows, pivots)), QT.zero)
        )
        for j in cobasis
    )


# ---------------------------------------------------------------------------
# Jacobian generators as polynomial products


def reference_generators(F, k):
    """The degree-k ideal generators Y^m * dF/dY_i as coefficient vectors,
    each one product of polynomials over F's domain; dF/dY_0 block first,
    multiplier monomials in graded order inside each block. Fibres build
    the same vectors from their cleared partials and must agree."""
    return [
        list(poly_mul(HomPoly.monomial(m, 1, domain=F.domain), poly_partial(F, i)).to_vector())
        for i in range(3)
        for m in graded_basis(k - F.degree + 1)
    ]


# ---------------------------------------------------------------------------
# sympy bridges


def sym_trivariate(p):
    """A package homogeneous polynomial as a sympy expression."""
    expr = sympy.Integer(0)
    for (a, b, c), coeff in p.terms.items():
        expr += sympy.Rational(coeff) * Y0**a * Y1**b * Y2**c
    return sympy.expand(expr)


def sym_family(fam):
    expr = sympy.Integer(0)
    for (a, b, c), tcoeffs in fam.terms.items():
        for k, q in enumerate(tcoeffs):
            expr += sympy.Rational(q) * T**k * Y0**a * Y1**b * Y2**c
    return sympy.expand(expr)


def jacobian_quotient_dims(fexpr, degrees):
    """Graded dimensions of C[Y]/(dF/dY0, dF/dY1, dF/dY2) via a Groebner
    basis: count the degree-k standard monomials."""
    gens = [sympy.diff(fexpr, v) for v in (Y0, Y1, Y2)]
    gb = sympy.groebner(gens, Y0, Y1, Y2, order="grevlex")
    leads = [sympy.Poly(g, Y0, Y1, Y2).LM(order="grevlex") for g in gb.exprs]
    lead_exps = [m.as_expr().as_poly(Y0, Y1, Y2).monoms()[0] for m in leads]

    def standard(k):
        count = 0
        for a in range(k + 1):
            for b in range(k - a + 1):
                e = (a, b, k - a - b)
                if not any(all(e[i] >= le[i] for i in range(3)) for le in lead_exps):
                    count += 1
        return count

    return {k: standard(k) for k in degrees}


# ---------------------------------------------------------------------------
# the kernel chain without the inert split


def naive_walk_chain(fiber, Ft, order, rmax):
    """(ranks, sections) of the kernel chain, walked the plain way: every
    section keeps its whole trajectory [p, D p, ..., D^r p], every one is
    differentiated and theta-evaluated at every level, and each kernel
    vector's trajectory is built by the Leibniz rule over all of them.
    Over Q(t) when order is None, else over jets of that order; the
    final trajectories are checked against the last theta-condition."""
    def leibniz(trajs, coeffs):
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

    dom = fiber.domain if order is None else JetDomain(order)
    trajs = [
        [HomPoly.monomial(e, dom.one(), domain=dom)] for e in fiber.cobasis(fiber.d - 3)
    ]
    ranks = []
    for r in range(rmax):
        if r:
            for traj in trajs:
                traj.append(gm_derivative(fiber, Ft, traj[-1]))
        wcols = [theta_eval(fiber, Ft, traj[-1]).coords for traj in trajs]
        if order is None:
            combos = kernel_basis(Matrix(list(zip(*wcols)), domain=dom))
        else:
            combos = [
                tuple(Jet._of(c.coeffs + (Fraction(0),) * r) for c in cv)
                for cv in _stacked_kernel(wcols, order - r)
            ]
        trajs = [leibniz(trajs, c) for c in combos]
        ranks.append(len(trajs))
        if not trajs:
            break
    ranks.extend([0] * (rmax - len(ranks)))
    for traj in trajs:
        assert theta_eval(fiber, Ft, traj[-1]).is_zero, "final theta-condition nonzero"
    return tuple(ranks), tuple(traj[0] for traj in trajs)


def naive_inert_sections(fiber, Ft, cobasis):
    """unitary._inert_sections read off a cobasis: a section is inert when
    no cobasis monomial of R_{2d-3} lies in its class plus [F], classes
    taken modulo the differences of F's and F_T's exponents. The cobasis
    is the non-pivot columns of the whole generator matrix of the fibre
    (of its order-0 fibre over jets), row-reduced over Fraction or by
    sympy over QQ(t)."""
    F = fiber.F if fiber._order0 is None else fiber._order0.F
    k = 2 * F.degree - 3
    gens = reference_generators(F, k)
    if F.domain == RATFUN:
        pivots = naive_ratfun_rref([[(e.num, e.den) for e in g] for g in gens])[1]
    else:
        pivots = naive_rref(gens)[1]
    key, (x0, y0, _) = class_key((*fiber.F.terms, *Ft.terms)), next(iter(fiber.F.terms))
    targets = {key(f[0], f[1]) for j, f in enumerate(graded_basis(k)) if j not in pivots}
    return [key(e[0] + x0, e[1] + y0) not in targets for e in cobasis]


# ---------------------------------------------------------------------------
# second-order pairings through a precision-2 jet fibre


def _naive_socle(fiber, p, q):
    """The socle coordinate of p * q: the last coordinate of the normal
    form of the product of the representatives in degree 3d-6."""
    nf = fiber.normal_form(poly_mul(fiber.representative(p), fiber.representative(q)))
    return nf.coords[-1] if nf.coords else Fraction(0)


def naive_eta2_on_K(fam, pk, extension_tweaks=None):
    """(matrix, flags) of eta2_on_K computed the jet way: the kernel
    vectors extended on the precision-2 jet fibre over pk's fibre, the
    extension differentiated there by gm_derivative and its theta value
    read at order 0; each pairing is a normal form in degree 3d-6."""
    d = fam.degree
    tweaks = extension_tweaks or {}
    fib2, Ft2 = _jet_fibre(fam, pk.t0, pk.fiber, 2)
    solver = LinearSolver(pk.higgs)
    basis_elts = [RingElement(d - 3, v) for v in pk.basis]
    rows, flags = [], []
    for i, v in enumerate(pk.basis):
        # H(s) v = theta(v): the order-1 part of theta at v held constant
        # is H_1 v, and H_0 x_1 = -H_1 v gives the order-1 part x_1
        v2 = RingElement(d - 3, tuple(Jet.from_fraction(x, 2) for x in v))
        h1 = [-c.coeffs[1] for c in theta_eval(fib2, Ft2, v2).coords]
        x1 = solver.try_solve(h1)
        if x1 is None:
            flags.append(i)
            rows.append(None)
            continue
        gamma = tweaks.get(i, (0,) * len(v))
        x = tuple(Jet((v[j], x1[j] + gamma[j])) for j in range(len(v)))
        ext = fib2.representative(RingElement(d - 3, x))
        dext = gm_derivative(fib2, Ft2, ext)
        th = theta_eval(fib2, Ft2, dext)
        minus_th0 = RingElement(2 * d - 3, tuple(-c.coeffs[0] for c in th.coords))
        rows.append(tuple(_naive_socle(pk.fiber, a, minus_th0) for a in basis_elts))
    return tuple(rows), tuple(flags)


def naive_mu_principal(fam, pk):
    """mu_principal's matrix with every entry a normal form in degree
    3d-6: the socle coordinate of a_i * F_TT * a_j."""
    Ftt = specialize(t_derivative(fam, 2), pk.t0)
    reps = [pk.fiber.representative(RingElement(fam.degree - 3, v)) for v in pk.basis]
    return tuple(
        tuple(
            pk.fiber.normal_form(poly_mul(poly_mul(ri, Ftt), rj)).coords[-1]
            for rj in reps
        )
        for ri in reps
    )


# ---------------------------------------------------------------------------
# the family text form, scanned and printed in two passes


def _naive_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            num = int(text[start:i])
            if i < n and text[i] == "/":
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                if dstart == i:
                    raise FamilyParseError("expected digits after '/'", dstart)
                den = int(text[dstart:i])
                if den == 0:
                    raise FamilyParseError("zero denominator", dstart)
                tokens.append(("num", Fraction(num, den), start))
            else:
                tokens.append(("num", Fraction(num), start))
            continue
        if ch == "Y":
            if i + 1 < n and text[i + 1] in "012":
                tokens.append(("var", "Y" + text[i + 1], i))
                i += 2
                continue
            raise FamilyParseError("expected Y0, Y1, or Y2", i)
        if ch == "T":
            tokens.append(("var", "T", i))
            i += 1
            continue
        raise FamilyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def naive_parse_family(text):
    """The family parser as a scanner, a peek/advance term loop and a
    second accumulation pass over the raw terms. Non-ASCII decimal
    digits pass its str.isdigit scan."""
    var_index = {"Y0": 0, "Y1": 1, "Y2": 2}
    tokens = _naive_tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_exponent(default=1):
        nonlocal pos
        if peek()[0] == "^":
            advance()
            kind, value, p = advance()
            if kind != "num" or value.denominator != 1 or value < 0:
                raise FamilyParseError("exponent must be a nonnegative integer", p)
            return int(value)
        return default

    raw_terms = []
    sign = 1
    kind, _, p = peek()
    if kind in "+-":
        sign = -1 if kind == "-" else 1
        advance()
    while True:
        coef = Fraction(sign)
        tpow = 0
        exps = [0, 0, 0]
        saw_factor = False
        term_pos = peek()[2]
        while True:
            kind, value, p = peek()
            if kind == "num":
                advance()
                coef *= value
                saw_factor = True
            elif kind == "var":
                advance()
                k = parse_exponent()
                if value == "T":
                    tpow += k
                else:
                    exps[var_index[value]] += k
                saw_factor = True
            else:
                break
            if peek()[0] == "*":
                advance()
                if peek()[0] not in ("num", "var"):
                    raise FamilyParseError("expected a factor after '*'", peek()[2])
            else:
                break
        if not saw_factor:
            raise FamilyParseError("expected a term", term_pos)
        if tpow > _MAX_T_POWER:
            raise FamilyParseError(f"T power {tpow} is above {_MAX_T_POWER}", term_pos)
        raw_terms.append((tuple(exps), tpow, coef))
        kind, _, p = advance()
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise FamilyParseError(f"unexpected {kind!r}", p)

    degrees = {sum(e) for e, _, _ in raw_terms}
    if len(degrees) > 1:
        raise FamilyParseError(
            f"non-homogeneous input: term degrees {sorted(degrees)}", 0
        )
    degree = degrees.pop()
    if degree < 3:
        raise FamilyParseError(f"curve degree must be >= 3, got {degree}", 0)
    acc = {}
    for e, tpow, coef in raw_terms:
        bucket = acc.setdefault(e, {})
        bucket[tpow] = bucket.get(tpow, Fraction(0)) + coef
    terms = {}
    for e, bucket in acc.items():
        width = max(bucket) + 1
        cs = [bucket.get(k, Fraction(0)) for k in range(width)]
        cs = up.pnorm(cs)
        if cs:
            terms[e] = cs
    fam = FamilySpec(degree, terms)
    if fam.is_zero:
        raise FamilyParseError("the terms cancel to the zero polynomial", 0)
    return fam


def _naive_format_fraction(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _naive_format_monomial(e):
    parts = []
    for name, k in zip(("Y0", "Y1", "Y2"), e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def naive_print_family(fam):
    """Canonical text form, one chunk per nonzero coefficient, then the
    chunks joined with their signs in a second loop."""
    if fam.is_zero:
        return "0"
    chunks = []
    for e in sorted(fam.terms, key=monomial_sort_key):
        cs = fam.terms[e]
        for k, c in enumerate(cs):
            if c == 0:
                continue
            factors = []
            if abs(c) != 1:
                factors.append(_naive_format_fraction(abs(c)))
            if k == 1:
                factors.append("T")
            elif k > 1:
                factors.append(f"T^{k}")
            mono = _naive_format_monomial(e)
            if mono:
                factors.append(mono)
            if not factors:
                factors.append(_naive_format_fraction(abs(c)))
            chunks.append((c < 0, "*".join(factors)))
    out = []
    for i, (neg, body) in enumerate(chunks):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)
