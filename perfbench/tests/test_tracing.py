"""Tracing: self-time arithmetic and wrapping a function bound under several names.

    python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import NO_PARENT, Tracer, install, self_times, uninstall  # noqa: E402
from workloads import Layer  # noqa: E402


def test_self_time_subtracts_merged_clipped_children():
    #  0: root      [0, 10]
    #  1: child     [1, 3]   of 0
    #  2: child     [2, 5]   of 0, overlaps 1
    #  3: child     [8, 12]  of 0, runs past its parent
    #  4: grandkid  [1.5, 2] of 1, counted against 1 only
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [NO_PARENT, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    # root: 10 minus the union [1, 5] + [8, 10]
    assert got == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_self_time_of_leaves_is_duration():
    assert self_times([0.0, 5.0], [2.0, 9.0], [NO_PARENT, NO_PARENT]) == [2.0, 4.0]


@pytest.fixture
def fake_package():
    """`fakepkg.a` defines f and g (g calls f through its module global);
    `fakepkg.b` and the package re-export f, as `from .a import f` would."""
    name = "fakepkg"
    pkg = types.ModuleType(name)
    a = types.ModuleType(f"{name}.a")
    b = types.ModuleType(f"{name}.b")
    exec("def f(x):\n    return x + 1\n\ndef g(x):\n    return 2 * f(x)\n", vars(a))
    b.f = pkg.f = a.f
    pkg.a, pkg.b = a, b
    saved = {k: sys.modules.get(k) for k in (name, a.__name__, b.__name__)}
    sys.modules.update({name: pkg, a.__name__: a, b.__name__: b})
    yield pkg
    for key, mod in saved.items():
        if mod is None:
            sys.modules.pop(key, None)
        else:
            sys.modules[key] = mod


def test_function_bound_under_two_names_is_counted_once_per_call(fake_package):
    a, b = fake_package.a, fake_package.b
    original = a.f
    tracer = Tracer()
    # f is listed under both of its names; it must still be wrapped once
    replaced = install(tracer, [Layer("a.f"), Layer("b.f"), Layer("a.g")], "fakepkg")
    assert a.f is b.f is fake_package.f
    assert a.f is not original

    assert a.f(1) == 2 and b.f(1) == 2 and fake_package.f(1) == 2
    assert a.g(1) == 4
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["a.f", "a.f", "a.f", "a.g", "a.f"]
    # the call g makes through its module global nests under g's span
    assert tracer.parent[4] == 3 and tracer.parent[3] == NO_PARENT

    uninstall(replaced)
    assert a.f is b.f is fake_package.f is original


def test_nothing_is_wrapped_without_install(fake_package):
    original = fake_package.a.f
    Tracer()
    assert fake_package.b.f is original


def test_kernel_span_keeps_n_stages_of_half_the_state():
    tracer = Tracer()
    kernel = tracer.wrap("kernels.apply_stages_inplace",
                         lambda psi, diags, n, mode="serial": None, count_cells=True)
    kernel(np.zeros(16), None, 4, mode="serial")
    assert tracer.cells == {0: 4 * 16 / 2}
    assert len(tracer.start) == 1 and tracer.end[0] >= tracer.start[0]
