"""Repeatability and binding-site checks of the traced run.

Runs every workload traced, twice, with the same seed and one pass each,
then checks that the machine-independent counters repeat exactly and
that the wrappers catch the calls they must. Takes about two minutes.
From the repository root:

    python3 -m pytest -q perfbench/test_counters.py
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


@functools.lru_cache(maxsize=None)
def traced_run(workload, repeat):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return metrics, json.loads(detail_line)["detail"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    first, _ = traced_run(workload, 0)
    second, _ = traced_run(workload, 1)
    counts = sorted(k for k in first if layers.is_count(k))
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_cli_fixture_calls_are_caught():
    metrics, _ = traced_run("cli-fixtures", 0)
    assert metrics["cli.run.calls"] == 10
    assert metrics["family.pick_basepoint.rejected"] >= 301


@pytest.mark.parametrize("workload", ["ratfun-quintic", "jet-quintic"])
def test_quintic_derivatives_are_caught(workload):
    metrics, _ = traced_run(workload, 0)
    assert metrics["gaussmanin.gm_derivative.calls"] > 0


def test_layer_split_matches_profile():
    ratfun, _ = traced_run("ratfun-quintic", 0)
    assert ratfun["exactcore.linear_solver.solve_s"] > ratfun["kernels.ff_ring.self_s"]
    jet, _ = traced_run("jet-quintic", 0)
    assert jet["kernels.ff_ring.calls"] == 0


def test_every_binding_site_is_wrapped():
    _, detail = traced_run("cli-fixtures", 0)
    bindings = detail["bindings"]
    want = {
        "jacobian.make_fiber": ["jacobian", "family", "unitary", "cli"],
        "gaussmanin.gm_derivative": ["gaussmanin", "unitary"],
        "gaussmanin.theta_eval": ["gaussmanin", "unitary"],
        "exactcore.rref": ["exactcore", "jacobian"],
        "kernels.ff_int": ["exactcore"],
        "kernels.ff_ring": ["exactcore"],
    }
    for entry, modules in want.items():
        sites = {site.rsplit(".", 1)[0] for site in bindings[entry]}
        assert {f"flatunitary.{m}" for m in modules} <= sites, entry
