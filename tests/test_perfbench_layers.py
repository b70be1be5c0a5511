"""The library names the benchmark's traced run depends on.

perfbench/layers.py lists the entry points that the traced run wraps, as
(owner, attribute) pairs, and perfbench/test_counters.py checks the
modules each is bound in. Neither runs in this suite, so a deleted or
renamed name would first fail there; these tests read layers.py (source
only, no bytecode written next to it) and check the names here.
"""

import os
import types
import weakref
from fractions import Fraction

import flatunitary
from flatunitary import _kernels, cli, exactcore, jacobian
from flatunitary.family import jet_expand, specialize
from flatunitary.jacobian import make_fiber

LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "layers.py")


def _layers():
    module = types.ModuleType("perfbench_layers")
    with open(LAYERS, encoding="utf-8") as fh:
        exec(compile(fh.read(), LAYERS, "exec"), vars(module))
    return module


def test_every_wrapped_entry_is_on_its_owner():
    lib = types.SimpleNamespace(fu=flatunitary, cli=cli, kernels=_kernels)
    entries = _layers().entries(lib)
    assert entries
    for name, owner, attr, _ in entries:
        assert attr in vars(owner), name
    # binding sites test_counters.py expects beyond each function's home
    assert cli.make_fiber is jacobian.make_fiber
    assert jacobian.rref is exactcore.rref


def test_kernel_backend_is_named():
    assert isinstance(_kernels.BACKEND, str)


def test_column_solvers_can_be_weakly_referenced(mix):
    # the traced run counts column-solver cache hits in a WeakSet
    rational = make_fiber(specialize(mix, Fraction(1)))
    jet = rational.thicken(jet_expand(mix, Fraction(1), 3))
    for fiber in (rational, jet):
        solver = fiber.column_solver(5)
        assert weakref.ref(solver)() is solver
