"""The benchmark's four workloads: inputs, one timed pass, output checks.

Each workload has three parts:

* `setup(lib, seed)` builds the inputs from the seed (parsing included);
* `run(lib, inputs)` is one timed pass; it returns one record per
  library operation: its output or the error it raised, and its wall
  and CPU time. A pass makes the same operations in the same order
  every time;
* `check(lib, inputs, records)` returns the number of records whose
  output is wrong (or which raised). It runs outside the timed pass.

Why each workload is here is written down in README.md next to this file.
"""

import contextlib
import io
import json
import os
import random
import sys
import time
import traceback

QUINTIC = "Y0^5 + Y1^5 + Y2^5 + T*Y0^2*Y1^3"
QUINTIC_RATFUN_RANKS = (4, 3, 3, 3, 3, 3)
QUINTIC_JET_ORDER = 16
QUINTIC_JET_LEVELS = 2

# pointwise-sweep: (curve degree, deformation monomials in Y0, Y1 only)
# for each family. Half the families are Y0,Y1-only, which gives a large
# Higgs kernel; half use any non-Fermat monomial, so the kernel is usually
# empty. From degree 5 up, an any-monomial family costs about five times
# more when its kernel turns out nonempty, which made a pass's cost swing
# with the seed; the any-monomial families are therefore the quartics.
SWEEP_SLOTS = ((4, False),) * 10 + ((5, True),) * 8 + ((6, True),) * 2
SWEEP_COEFFS = (-3, -2, -1, 1, 2, 3)


def _attempt(fn, *args, **kwargs):
    """(output, error text, wall seconds, CPU seconds) of one library call."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        out, err = fn(*args, **kwargs), None
    except Exception:
        out, err = None, traceback.format_exc()
    return out, err, time.perf_counter() - wall, time.process_time() - cpu


SKIPPED = (None, "skipped: pointwise_kernel failed", 0.0, 0.0)


def _report(name, detail):
    print(f"perfbench: {name}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# ratfun-quintic and jet-quintic


def setup_quintic(lib, seed):
    return {"family": lib.fu.parse_family(QUINTIC)}


def run_ratfun_quintic(lib, inputs):
    return [_attempt(lib.fu.unitary_rank, inputs["family"], mode="ratfun")]


def check_ratfun_quintic(lib, inputs, records):
    (rk, err, _, _), = records
    if err is not None:
        _report("ratfun-quintic", err)
        return 1
    if rk.ranks != QUINTIC_RATFUN_RANKS or not rk.stable:
        _report("ratfun-quintic", f"ranks {rk.ranks}, stable {rk.stable}")
        return 1
    return 0


def run_jet_quintic(lib, inputs):
    return [
        _attempt(
            lib.fu.unitary_rank,
            inputs["family"],
            mode="jet",
            max_level=QUINTIC_JET_LEVELS,
        )
    ]


def check_jet_quintic(lib, inputs, records):
    (rk, err, _, _), = records
    if err is not None:
        _report("jet-quintic", err)
        return 1
    want = QUINTIC_RATFUN_RANKS[:QUINTIC_JET_LEVELS]
    if (
        rk.ranks != want
        or not rk.stable
        or rk.primary.order != QUINTIC_JET_ORDER
        or any(chk.ranks != want for chk in rk.checks)
    ):
        _report("jet-quintic", f"ranks {rk.ranks}, stable {rk.stable}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# pointwise-sweep


def _sweep_family(rng, d, y0y1_only):
    """Fermat curve of degree d plus two or three T- or T^2-monomials."""
    if y0y1_only:
        pool = [(a, d - a, 0) for a in range(1, d)]
    else:
        pool = [
            (a, b, d - a - b)
            for a in range(d, -1, -1)
            for b in range(d - a, -1, -1)
            if max(a, b, d - a - b) < d
        ]
    text = f"Y0^{d} + Y1^{d} + Y2^{d}"
    for a, b, c in rng.sample(pool, rng.choice((2, 3))):
        coef = rng.choice(SWEEP_COEFFS)
        tpow = rng.choice(("T", "T^2"))
        text += f" {'-' if coef < 0 else '+'} {abs(coef)}*{tpow}*Y0^{a}*Y1^{b}*Y2^{c}"
    return text


def setup_sweep(lib, seed):
    rng = random.Random(seed)
    families = []
    for d, y0y1_only in SWEEP_SLOTS:
        text = _sweep_family(rng, d, y0y1_only)
        families.append((lib.fu.parse_family(text), rng.randrange(2**32)))
    return {"families": families}


def run_sweep(lib, inputs):
    fu = lib.fu
    records = []
    for fam, fam_seed in inputs["families"]:
        pk = _attempt(fu.pointwise_kernel, fam, seed=fam_seed)
        records.append(pk)
        if pk[1] is not None:
            records += [SKIPPED, SKIPPED]
            continue
        records.append(_attempt(fu.eta2_on_K, fam, _pk=pk[0]))
        records.append(_attempt(fu.mu_principal, fam, _pk=pk[0]))
    return records


def check_sweep(lib, inputs, records):
    fu = lib.fu
    failed = 0
    for i, (fam, _) in enumerate(inputs["families"]):
        (pk, pk_err, _, _), (eta, eta_err, _, _), (mu, mu_err, _, _) = records[3 * i : 3 * i + 3]
        if pk_err is not None:
            _report("pointwise-sweep", pk_err)
            failed += 3
            continue
        problems = _check_point_kernel(fu, fam, pk)
        problems += _check_eta2(pk, eta, eta_err)
        problems += _check_mu(pk, mu, mu_err)
        for problem in problems:
            _report("pointwise-sweep", f"{fu.print_family(fam)}: {problem}")
        failed += len(problems)
    return failed


def _check_point_kernel(fu, fam, pk):
    d, g, fiber = fam.degree, fam.genus, pk.fiber
    if not fiber.dim(d - 3) == fiber.dim(2 * d - 3) == g:
        return ["dim R_{d-3} = dim R_{2d-3} = g fails"]
    H = fiber.higgs_matrix(fiber.delta_class(pk.Ft))
    if any(any(x != 0 for x in H.mul_vec(v)) for v in pk.basis):
        return ["H v != 0 for a kernel vector"]
    return []


def _check_eta2(pk, eta, err):
    if err is not None:
        return [err]
    k = len(pk.basis)
    rows_ok = len(eta.matrix) == k and all(
        (row is None) == (i in eta.flags) and (row is None or len(row) == k)
        for i, row in enumerate(eta.matrix)
    )
    if eta.basis != pk.basis or not rows_ok:
        return ["eta2 matrix does not match the kernel"]
    return []


def _check_mu(pk, mu, err):
    if err is not None:
        return [err]
    _, rows = mu
    k = len(pk.basis)
    if len(rows) != k or any(
        len(rows[i]) != k or rows[i][j] != rows[j][i]
        for i in range(k)
        for j in range(k)
    ):
        return ["mu_principal is not a symmetric k x k matrix"]
    return []


# ---------------------------------------------------------------------------
# cli-fixtures


def setup_cli(lib, seed):
    fixdir = os.path.dirname(lib.fu.fixture_path("fermat_mix.fam"))
    expected = {}
    for stem, _, _ in lib.cli.FIXTURE_RUNS:
        with open(os.path.join(fixdir, "expected", stem + ".json"), encoding="utf-8") as fh:
            expected[stem] = fh.read()
    return {"fixdir": fixdir, "expected": expected}


def run_cli(lib, inputs):
    # the fixtures are run from their own directory so the echoed source
    # path is the bare file name, as in the expected reports
    cwd = os.getcwd()
    os.chdir(inputs["fixdir"])
    records = []
    try:
        for _, argv, _ in lib.cli.FIXTURE_RUNS:
            out = io.StringIO()
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, exc, wall, cpu = _attempt(lib.cli.run, list(argv))
            records.append(((code, out.getvalue(), err.getvalue()), exc, wall, cpu))
    finally:
        os.chdir(cwd)
    return records


def check_cli(lib, inputs, records):
    failed = 0
    for (stem, _, want_code), ((code, stdout, stderr), exc, _, _) in zip(
        lib.cli.FIXTURE_RUNS, records
    ):
        problem = exc
        if problem is None and code != want_code:
            problem = f"exit {code}, expected {want_code}: {stderr.strip()}"
        if problem is None:
            report = json.loads(stdout)
            del report["timings"]
            if lib.cli._render(report) + "\n" != inputs["expected"][stem]:
                problem = "report differs from the expected fixture"
        if problem is not None:
            _report(f"cli-fixtures {stem}", problem)
            failed += 1
    return failed


WORKLOADS = {
    "ratfun-quintic": (setup_quintic, run_ratfun_quintic, check_ratfun_quintic),
    "jet-quintic": (setup_quintic, run_jet_quintic, check_jet_quintic),
    "pointwise-sweep": (setup_sweep, run_sweep, check_sweep),
    "cli-fixtures": (setup_cli, run_cli, check_cli),
}
