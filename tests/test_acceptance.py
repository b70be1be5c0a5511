"""Acceptance suite: one check per release criterion.

Each criterion is a plain function that raises on failure and returns a
one-line summary. Run under pytest for one pass/fail line per criterion,
or standalone:

    python3 tests/test_acceptance.py
"""

import json
import os
import random
import sys
import time
from fractions import Fraction

from flatunitary import cli, fixture_path
from flatunitary.family import (
    generic_fibre,
    parse_family,
    specialize,
    t_derivative,
)
from flatunitary.gaussmanin import membership_witness, reduce_pole
from flatunitary.jacobian import (
    SingularFibreError,
    genus_of_degree,
    make_fiber,
)
from flatunitary.polyring import HomPoly, graded_basis, poly_mul, poly_partial
from flatunitary.unitary import (
    eta2_on_K,
    filtration_ranks,
    mu_principal,
    mu_report,
    pointwise_kernel,
    unitary_rank,
)

MIX = "Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2"
TFREE = "Y0^4 + Y1^4 + Y2^4"
HESSE = "Y0^3 + Y1^3 + Y2^3 + T*Y0*Y1*Y2"
MIX_TT = "Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2 + T^2*Y0*Y1*Y2^2"
PATH = "Y0^4 + Y1^4 + Y2^4 + T*Y0^3*Y1 + T^2*Y0^2*Y1^2"

RANK_FIXTURES = ((MIX, (2, 2, 2)), (HESSE, (0,)), (TFREE, (3, 3, 3)))


def _random_hompoly(rng, degree, bound=3):
    basis = graded_basis(degree)
    terms = {e: Fraction(rng.randint(-bound, bound)) for e in basis}
    if all(c == 0 for c in terms.values()):
        terms[basis[0]] = Fraction(1)
    return HomPoly(degree, terms)


def _random_smooth_fiber(rng, d):
    while True:
        try:
            return make_fiber(_random_hompoly(rng, d))
        except SingularFibreError:
            continue


def _assert(cond, message):
    if not cond:
        raise AssertionError(message)


# ---------------------------------------------------------------------------


def criterion_1_jacobian_dimensions():
    """Graded quotient dimensions over random smooth fibres, d = 3..6."""
    rng = random.Random(2024)
    for d in (3, 4, 5, 6):
        g = genus_of_degree(d)
        for _ in range(2):
            started = time.monotonic()
            fiber = _random_smooth_fiber(rng, d)
            _assert(fiber.dim(d - 3) == g, f"d={d}: dim in degree {d - 3} != {g}")
            _assert(fiber.dim(2 * d - 3) == g, f"d={d}: dim in degree {2 * d - 3} != {g}")
            _assert(fiber.dim(3 * d - 6) == 1, f"d={d}: one-dimensional top expected")
            _assert(fiber.dim(3 * d - 5) == 0, f"d={d}: degree {3 * d - 5} not zero")
            elapsed = time.monotonic() - started
            if d == 6:
                _assert(elapsed < 10, f"d=6 fibre took {elapsed:.1f}s (budget 10s)")
    return "dimensions (g, g, 1, 0) hold on random smooth fibres for d = 3..6"


def criterion_2_fixture_ranks():
    """Exact kernel-chain ranks over the function field, per fixture."""
    for text, want in RANK_FIXTURES:
        started = time.monotonic()
        rk = unitary_rank(parse_family(text), mode="ratfun")
        elapsed = time.monotonic() - started
        _assert(rk.ranks == want, f"{text}: ranks {rk.ranks} != {want}")
        _assert(rk.rank_u == want[-1], f"{text}: rank {rk.rank_u} != {want[-1]}")
        _assert(elapsed < 60, f"{text}: took {elapsed:.1f}s (budget 60s)")
    return "function-field ranks: mix (2,2,2), cubic pencil (0,), constant (3,3,3)"


def criterion_3_mode_agreement():
    """Jet mode at two seeds and two truncation orders matches criterion 2."""
    for text, want in RANK_FIXTURES:
        fam = parse_family(text)
        order = 2 * fam.genus + 4
        for seed in (0, 1):
            for n in (order, order + 2):
                res = unitary_rank(fam, mode="jet", order=n, seed=seed).primary
                _assert(
                    res.ranks == want,
                    f"{text} seed {seed} order {n}: jet ranks {res.ranks} != {want}",
                )
            # unitary_rank certifies the jet ranks by the generic chain
            rk = unitary_rank(fam, mode="jet", order=order, seed=seed)
            _assert(rk.stable, f"{text} seed {seed}: jet ranks not certified")
            _assert(
                [c.ranks for c in rk.checks] == [want],
                f"{text} seed {seed}: generic check ranks disagree",
            )
    return "jet ranks agree with function-field ranks at 2 seeds x 2 orders"


def criterion_4_witness_soundness():
    """Witness identities re-expand exactly; pole reduction is
    independent of the chosen witness."""
    rng = random.Random(41)
    cases = []

    mix = parse_family(MIX)
    gen_fiber = make_fiber(generic_fibre(mix))
    gen_Ft = generic_fibre(t_derivative(mix))
    gen_dom = gen_fiber.F.domain
    kernel_exps = ((1, 0, 0), (0, 1, 0))
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in kernel_exps]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        p = HomPoly(
            1,
            {e: gen_dom.coerce(c) for e, c in zip(kernel_exps, coeffs)},
            domain=gen_dom,
        )
        cases.append((gen_fiber, gen_Ft, p))

    for text, t0, count in ((MIX, 1, 20), (MIX_TT, 0, 20), (PATH, 0, 20)):
        fam = parse_family(text)
        pk = pointwise_kernel(fam, t0=Fraction(t0))
        exps = pk.fiber.cobasis(1)
        for _ in range(count):
            coords = [Fraction(0)] * len(exps)
            for v in pk.basis:
                c = Fraction(rng.randint(-4, 4))
                coords = [a + c * b for a, b in zip(coords, v)]
            if not any(coords):
                coords = list(pk.basis[0])
            p = HomPoly(1, dict(zip(exps, coords)))
            cases.append((pk.fiber, pk.Ft, p))

    _assert(len(cases) == 100, "expected one hundred witness cases")
    for fiber, Ft, p in cases:
        dom = fiber.F.domain
        q = poly_mul(Ft, p)
        w = membership_witness(fiber, q)
        partials = [poly_partial(fiber.F, i) for i in range(3)]
        acc = HomPoly.zero(q.degree, domain=dom)
        for part, pf in zip(w.parts, partials):
            acc = acc + poly_mul(part, pf)
        _assert(acc == q, "witness identity failed to re-expand")

    # witness independence of the reduction: perturb by relation multiples
    fiber = make_fiber(specialize(mix, Fraction(1)))
    partials = [poly_partial(fiber.F, i) for i in range(3)]
    top = 9
    from flatunitary.gaussmanin import Witness

    for _ in range(20):
        q = HomPoly(top, {e: Fraction(rng.randint(-4, 4)) for e in graded_basis(top)})
        cls, w = reduce_pole(fiber, q)
        h = _random_hompoly(rng, top - 6, bound=3)
        i, j = rng.sample(range(3), 2)
        parts = list(w.parts)
        parts[i] = parts[i] + poly_mul(h, partials[j])
        parts[j] = parts[j] - poly_mul(h, partials[i])
        tweaked = Witness(degree=w.degree, parts=tuple(parts))
        cls2 = fiber.normal_form(tweaked.divergence().scale(Fraction(1, 2)))
        _assert(cls2.coords == cls.coords, "pole reduction depended on the witness")
    return "100 witness identities re-expand; reduction survives 20 witness changes"


def criterion_5_filtration_invariants():
    """Rank chains never increase and never recover after stabilizing."""

    def check_chain(ranks, label):
        _assert(
            all(a >= b for a, b in zip(ranks, ranks[1:])),
            f"{label}: ranks {ranks} increase",
        )
        for i in range(len(ranks) - 1):
            if ranks[i] == ranks[i + 1]:
                _assert(
                    all(r == ranks[i] for r in ranks[i + 1 :]),
                    f"{label}: ranks {ranks} dip after stabilizing",
                )
                break
        if ranks[0] == 0:
            _assert(all(r == 0 for r in ranks), f"{label}: zero kernel must stay zero")

    for text, _ in RANK_FIXTURES:
        fam = parse_family(text)
        check_chain(filtration_ranks(fam).ranks, text)
        check_chain(unitary_rank(fam, mode="jet", seed=0).ranks, text + " (jet)")
    check_chain(
        unitary_rank(parse_family(MIX_TT), mode="jet", t0=Fraction(0)).ranks,
        "second-order fixture",
    )
    check_chain(
        unitary_rank(parse_family(PATH), mode="jet", t0=Fraction(0)).ranks,
        "partial-jump fixture",
    )

    def mono_str(c, e, with_t):
        parts = [] if c == 1 else [str(c)]
        if with_t:
            parts.append("T")
        for v, x in zip(("Y0", "Y1", "Y2"), e):
            if x:
                parts.append(f"{v}^{x}" if x > 1 else v)
        return "*".join(parts) or "1"

    # sparse perturbations of a diagonal quartic keep the function-field
    # arithmetic small while still sampling varied kernel chains
    rng = random.Random(5150)
    built = 0
    while built < 20:
        pieces = ["Y0^4 + Y1^4 + Y2^4"]
        for _ in range(rng.randint(1, 2)):
            e = rng.choice(graded_basis(4))
            pieces.append(mono_str(rng.randint(1, 2), e, with_t=False))
        e = rng.choice(graded_basis(4))
        pieces.append(mono_str(rng.randint(1, 2), e, with_t=True))
        try:
            fam = parse_family(" + ".join(pieces))
            ranks = filtration_ranks(fam).ranks
        except (SingularFibreError, ValueError):
            continue
        built += 1
        check_chain(ranks, f"random family #{built}")
    return "chains non-increasing and persistent on fixtures + 20 random families"


def criterion_6_second_order_inclusion():
    """Flat directions pair to zero against the derivative Gram form, and
    the second-derivative pairing matches its expected shape."""
    from oracles import naive_solve

    for text, seed, t0 in ((MIX, 0, None), (TFREE, 0, None), (PATH, 0, Fraction(0))):
        fam = parse_family(text)
        res = unitary_rank(fam, mode="jet", seed=seed, t0=t0).primary
        if res.rank_u == 0:
            continue
        eta = eta2_on_K(fam, t0=res.t0)
        k = len(eta.basis)
        usable = [i for i in range(k) if i not in eta.flags]
        for section in res.sections:
            order0 = [c.order0 for c in section.to_vector()]
            rows = [[eta.basis[j][r] for j in range(k)] for r in range(len(order0))]
            lam = naive_solve(rows, order0)
            _assert(lam is not None, f"{text}: flat section left the kernel span")
            for i in usable:
                paired = sum(eta.matrix[i][j] * lam[j] for j in range(k))
                _assert(paired == 0, f"{text}: row {i} pairs to {paired}")
            # the flat section never loads a non-extendable direction, so it
            # also annihilates the form from the row slot
            _assert(
                all(lam[i] == 0 for i in eta.flags),
                f"{text}: flat section meets a non-extendable direction",
            )
            for j in range(k):
                paired = sum(lam[i] * eta.matrix[i][j] for i in usable)
                _assert(paired == 0, f"{text}: column {j} pairs to {paired}")
        rep = mu_report(fam, t0=res.t0)
        _assert(rep.inclusion_ok, f"{text}: rank exceeded the Gram kernel")

    _, principal = mu_principal(parse_family(MIX_TT), t0=Fraction(0))
    _assert(
        principal[0][0] == principal[1][1] == 0, "diagonal of the pairing must vanish"
    )
    _assert(
        principal[0][1] == principal[1][0] != 0,
        "off-diagonal entries must agree and be nonzero",
    )
    _assert(principal == ((0, 2), (2, 0)), "pinned second-derivative pairing moved")
    return "flat sections annihilate the Gram form; pinned pairing [[0,2],[2,0]] holds"


def criterion_7_extension_independence():
    """The derivative Gram matrix ignores the choice of jet extensions: the
    jet-path oracle, which differentiates each tweaked extension, gives
    eta2_on_K's matrix byte for byte."""
    from oracles import naive_eta2_on_K

    rng = random.Random(77)
    for text, t0 in ((MIX, Fraction(1)), (PATH, Fraction(0))):
        fam = parse_family(text)
        pk = pointwise_kernel(fam, t0=t0)
        base = eta2_on_K(fam, _pk=pk)
        base_bytes = json.dumps(
            [None if r is None else [str(x) for x in r] for r in base.matrix]
        )
        k = len(pk.basis)
        width = len(pk.basis[0])
        for _ in range(10):
            tweaks = {}
            for i in range(k):
                if rng.random() < 0.4:
                    continue
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
                vec = [
                    sum(c * v[r] for c, v in zip(coeffs, pk.basis))
                    for r in range(width)
                ]
                tweaks[i] = tuple(vec)
            matrix, flags = naive_eta2_on_K(fam, pk, tweaks)
            got_bytes = json.dumps(
                [None if r is None else [str(x) for x in r] for r in matrix]
            )
            _assert(got_bytes == base_bytes, f"{text}: Gram matrix moved under tweaks")
            _assert(flags == base.flags, f"{text}: flags moved under tweaks")
    return "Gram matrices byte-identical under 10 random extension changes per family"


def criterion_8_cli_determinism():
    """Every bundled CLI invocation reproduces itself byte for byte."""
    import tempfile

    fixdir = os.path.dirname(fixture_path("fermat_mix.fam"))
    cwd = os.getcwd()
    os.chdir(fixdir)
    try:
        for stem, argv, want_code in cli.FIXTURE_RUNS:
            renders = []
            for _ in range(2):
                fd, out = tempfile.mkstemp(suffix=".json")
                os.close(fd)
                try:
                    code = cli.run([*argv, "--output", out])
                    _assert(code == want_code, f"{stem}: exit {code} != {want_code}")
                    with open(out, encoding="utf-8") as fh:
                        report = json.load(fh)
                    del report["timings"]
                    renders.append(cli._render(report))
                finally:
                    os.unlink(out)
            _assert(renders[0] == renders[1], f"{stem}: runs differ")
    finally:
        os.chdir(cwd)
    return "all bundled CLI invocations byte-stable across repeat runs"


CRITERIA = (
    criterion_1_jacobian_dimensions,
    criterion_2_fixture_ranks,
    criterion_3_mode_agreement,
    criterion_4_witness_soundness,
    criterion_5_filtration_invariants,
    criterion_6_second_order_inclusion,
    criterion_7_extension_independence,
    criterion_8_cli_determinism,
)


def test_criterion_1():
    print("PASS:", criterion_1_jacobian_dimensions())


def test_criterion_2():
    print("PASS:", criterion_2_fixture_ranks())


def test_criterion_3():
    print("PASS:", criterion_3_mode_agreement())


def test_criterion_4():
    print("PASS:", criterion_4_witness_soundness())


def test_criterion_5():
    print("PASS:", criterion_5_filtration_invariants())


def test_criterion_6():
    print("PASS:", criterion_6_second_order_inclusion())


def test_criterion_7():
    print("PASS:", criterion_7_extension_independence())


def test_criterion_8():
    print("PASS:", criterion_8_cli_determinism())


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    failures = 0
    for crit in CRITERIA:
        started = time.monotonic()
        try:
            summary = crit()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"{crit.__name__} FAIL: {exc}")
        else:
            print(f"{crit.__name__} PASS ({time.monotonic() - started:.1f}s): {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
