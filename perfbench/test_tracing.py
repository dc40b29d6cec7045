"""Tests of the benchmark's helpers: python3 -m pytest perfbench"""

import sys
import types

import pytest

from hostspeed import Kernel
from tracing import Tracer, parallel_efficiency, percentile, traced


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 4.0
        with tracer.span("inner"):
            clock.now += 8.0
        clock.now += 16.0
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.total_s == {"outer": 31.0, "inner": 14.0, "leaf": 4.0}
    assert tracer.self_s == {"outer": 17.0, "inner": 10.0, "leaf": 4.0}
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]


@pytest.fixture
def fake_package():
    """pkg.core defines work(); pkg.user and pkg itself import it by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    core.work = work
    user.work = work
    user.call = lambda x: user.work(x)
    pkg.work = work
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield mods, work
    for name in mods:
        del sys.modules[name]


def test_wrappers_see_every_import_site_and_are_restored(fake_package):
    mods, work = fake_package
    seen = []
    tracer = Tracer()
    with traced(tracer, "fakepkg", ["core.work"],
                {"core.work": lambda res, args, kw, s: seen.append(res)}):
        assert mods["fakepkg.user"].call(3) == 6
        assert mods["fakepkg.core"].work(1) == 2
        assert mods["fakepkg"].work is not work
    assert tracer.calls == {"core.work": 2}
    assert seen == [6, 2]
    for mod in mods.values():
        assert mod.work is work


def test_wrappers_restored_after_exception(fake_package):
    mods, work = fake_package
    tracer = Tracer()
    with pytest.raises(ValueError):
        with traced(tracer, "fakepkg", ["core.work"]):
            mods["fakepkg.user"].call(-1)
    assert tracer.calls == {"core.work": 1}
    assert tracer._stack == []
    for mod in mods.values():
        assert mod.work is work


def test_percentile_at_small_sample_counts():
    assert percentile([7.0], 50) == 7.0
    assert percentile([7.0], 90) == 7.0
    assert percentile([1.0, 3.0], 50) == 2.0
    assert percentile([3.0, 1.0], 90) == pytest.approx(2.8)
    assert percentile([1.0, 2.0, 10.0], 50) == 2.0
    assert percentile([1.0, 2.0, 10.0], 90) == pytest.approx(8.4)
    assert percentile([5.0, 1.0, 4.0, 2.0, 3.0], 0) == 1.0
    assert percentile([5.0, 1.0, 4.0, 2.0, 3.0], 100) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_parallel_efficiency_arithmetic():
    assert parallel_efficiency(10.0, 5.0, 2) == 1.0
    assert parallel_efficiency(3.0, 4.0, 2) == 0.375
    assert parallel_efficiency(6.0, 6.0, 1) == 1.0
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 1.0, 0)


def test_host_kernel_repeats_the_same_work():
    kernel = Kernel()
    assert kernel.run_once() == kernel.run_once()
    assert kernel.ms(2) > 0.0
