"""Self-time arithmetic and patch/restore of the span wrappers.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, plus explicit ``work``."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t

    def work(self, amount):
        self.t += amount


def test_self_time_of_synthetic_nested_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.work(10.0)

    def middle():
        clock.work(5.0)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", traced_middle)()

    root, mid, leaf1, leaf2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, root.id, mid.id, mid.id]
    # each clock reading ticks once: root 1 .. 33, middle 2 .. 32 with 5 of
    # its own work, leaves 8 .. 19 and 20 .. 31 (10 of work plus the tick of
    # the end reading)
    assert (root.start, root.end) == (1.0, 33.0)
    assert (mid.start, mid.end) == (2.0, 32.0)
    assert (leaf1.start, leaf1.end) == (8.0, 19.0)
    assert (leaf2.start, leaf2.end) == (20.0, 31.0)
    selfs = spans.self_times(tracer.spans)
    assert selfs[leaf1.id] == 11.0 and selfs[leaf2.id] == 11.0
    assert selfs[mid.id] == 30.0 - 22.0
    assert selfs[root.id] == 32.0 - 30.0
    assert sum(selfs.values()) == root.end - root.start

    summary = spans.summarize(tracer.spans)
    assert summary["leaf"] == {"calls": 2, "self_ms": 22e3, "errors": 0}


def test_overlapping_children_are_counted_once():
    parent = spans.Span(0, None, "p", 0.0, 10.0)
    kids = [spans.Span(1, 0, "a", 1.0, 4.0),
            spans.Span(2, 0, "b", 3.0, 6.0),
            spans.Span(3, 0, "c", 8.0, 12.0)]
    assert spans.self_times([parent] + kids)[0] == 10.0 - 5.0 - 2.0


def test_error_is_recorded_and_reraised():
    tracer = spans.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    try:
        tracer.wrap("boom", boom)()
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tracer.spans[0].error and tracer.spans[0].end is not None


def test_install_patches_every_namespace_and_restore_undoes_it():
    def f():
        return 42

    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.a")
    importer = types.ModuleType("fakepkg.b")
    defining.f = importer.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": defining, "fakepkg.b": importer}
    sys.modules.update(mods)
    try:
        tracer = spans.Tracer(clock=FakeClock())
        patched = spans.install(tracer, [(defining, "f", "a.f", None)],
                                package="fakepkg")
        assert defining.f is not f and importer.f is defining.f
        assert importer.f() == 42 and [s.name for s in tracer.spans] == ["a.f"]
        spans.restore(patched)
        assert defining.f is f and importer.f is f
    finally:
        for name in mods:
            del sys.modules[name]
