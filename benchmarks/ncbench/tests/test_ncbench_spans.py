"""Self-time arithmetic and wrapper installation, on synthetic code."""

import sys
import types

import pytest

from ncbench import spans


class FakeClock:
    """A clock the test advances by hand, in ns."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def self_ns(tracer, layer, name):
    return tracer.snapshot()[(layer, name)][2]


def test_nested_spans_self_time_excludes_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(30)

    leaf_w = tracer.wrap(leaf, "net", "leaf")

    def middle():
        clock.advance(5)
        leaf_w()
        clock.advance(7)
        leaf_w()

    middle_w = tracer.wrap(middle, "fs", "middle")

    def root():
        clock.advance(100)
        middle_w()
        clock.advance(1)

    tracer.wrap(root, "sim", "root")()
    snap = tracer.snapshot()
    # (calls, spans, self_ns, direct child spans)
    assert snap[("net", "leaf")] == (2, 2, 60, 0)
    assert snap[("fs", "middle")] == (1, 1, 12, 2)
    assert snap[("sim", "root")] == (1, 1, 101, 1)
    assert not tracer.stack
    folded = spans.fold_by_layer({}, snap)
    assert folded == {"net": (2, 60), "fs": (1, 12), "sim": (1, 101),
                      "bench": (0, 0)}
    assert sum(s for _c, s in folded.values()) == clock.now


def test_generator_spans_time_each_resumption_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.advance(10)
        got = yield "a"
        clock.advance(20)
        return got * 2

    inner_w = tracer.wrap(inner, "net", "inner")

    def outer():
        clock.advance(1)
        value = yield from inner_w()
        clock.advance(2)
        yield value

    gen = tracer.wrap(outer, "nfs", "outer")()
    assert hasattr(gen, "send") and gen.__name__ == "outer"
    assert next(gen) == "a"
    clock.advance(1000)  # suspended: nobody's time
    assert gen.send(21) == 42
    with pytest.raises(StopIteration):
        next(gen)
    snap = tracer.snapshot()
    assert snap[("net", "inner")] == (1, 2, 30, 0)
    # outer: 3 resumptions; its first two each enclose one inner span.
    assert snap[("nfs", "outer")] == (1, 3, 3, 2)


def test_throw_reaches_the_wrapped_generator():
    tracer = spans.Tracer(clock=FakeClock())
    seen = []

    def body():
        try:
            yield 1
        except KeyError as exc:
            seen.append(exc)
            yield 2

    gen = tracer.wrap(body, "sim", "body")()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    assert len(seen) == 1
    gen.close()


def test_wrapper_cost_comes_off_span_and_parent_and_goes_to_bench():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(100)

    leaf_w = tracer.wrap(leaf, "net", "leaf")

    def root():
        clock.advance(50)
        leaf_w()
        leaf_w()

    tracer.wrap(root, "sim", "root")()
    folded = spans.fold_by_layer({}, tracer.snapshot(),
                                 cost_in=10, cost_out=15)
    # leaf: 2 spans x 10 inside; root: 1 span x 10 + 2 children x 15.
    assert folded["net"] == (2, 180)
    assert folded["sim"] == (1, 10)
    assert folded["bench"] == (0, 60)
    assert sum(s for _c, s in folded.values()) == clock.now
    # The correction never drives a function below zero.
    clamped = spans.fold_by_layer({}, tracer.snapshot(), cost_in=1000)
    assert clamped["net"] == (2, 0) and clamped["sim"] == (1, 0)
    assert clamped["bench"] == (0, clock.now)


def test_fold_is_a_difference_of_snapshots():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def work():
        clock.advance(9)

    work_w = tracer.wrap(work, "core", "work")
    work_w()
    before = tracer.snapshot()
    work_w()
    work_w()
    assert spans.fold_by_layer(before, tracer.snapshot())["core"] == (2, 18)


def test_recording_stops_after_record_ops_and_parents_are_rebuilt():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock, record_ops=2)

    class Message:
        xid = 77

    def leaf(message):
        clock.advance(3)

    leaf_w = tracer.wrap(leaf, "net", "leaf")

    def root(message):
        leaf_w(message)
        clock.advance(1)
        leaf_w(message)

    root_w = tracer.wrap(root, "sim", "root")
    tracer.start_recording()
    root_w(Message())
    tracer.note_op()
    root_w(Message())
    tracer.note_op()
    assert not tracer.recording
    root_w(Message())
    events = tracer.chrome_trace({"k": 1})["traceEvents"]
    assert len(events) == 6
    roots = [e for e in events if e["name"] == "root"]
    for event in events:
        assert event["ph"] == "X" and event["args"]["request"] == 77
        if event["name"] == "leaf":
            parent = next(r for r in roots
                          if r["args"]["id"] == event["args"]["parent"])
            assert parent["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]
        else:
            assert event["args"]["parent"] == 0


def test_install_replaces_methods_functions_and_statics_then_restores():
    module = types.ModuleType("repro_ncbench_fake")
    importer = types.ModuleType("repro_ncbench_fake_importer")

    def helper(x):
        return x + 1

    class Thing:
        def method(self, x):
            return helper(x)

        @staticmethod
        def static(x):
            return x * 2

        def stream(self):
            yield 1

    class Child(Thing):
        pass

    module.helper = helper
    module.Thing = Thing
    module.Child = Child
    importer.helper = helper  # ``from fake import helper``
    sys.modules[module.__name__] = module
    sys.modules[importer.__name__] = importer
    try:
        tracer = spans.Tracer(clock=FakeClock())
        undo = spans.install(tracer, [
            ("fs", "repro_ncbench_fake:Thing.method", None),
            ("fs", "repro_ncbench_fake:Thing.static", None),
            ("fs", "repro_ncbench_fake:Thing.stream", None),
            ("net", "repro_ncbench_fake:helper", None)])
        assert importer.helper is module.helper is not helper
        thing = Thing()
        assert thing.method(1) == 2  # reaches the original global helper
        assert importer.helper(1) == 2
        assert Thing.static(4) == 8 and thing.static(4) == 8
        assert list(thing.stream()) == [1]
        snap = tracer.snapshot()
        assert snap[("fs", "Thing.method")][0] == 1
        assert snap[("fs", "Thing.static")][0] == 2
        assert snap[("fs", "Thing.stream")][:2] == (1, 2)
        assert snap[("net", "helper")][0] == 1
        # An inherited name must be listed under the class defining it.
        with pytest.raises(LookupError):
            spans.resolve("repro_ncbench_fake:Child.method")
        undo()
        assert importer.helper is module.helper is helper
        assert vars(Thing)["method"].__name__ == "method"
        assert isinstance(vars(Thing)["static"], staticmethod)
        assert not hasattr(vars(Thing)["method"], "__wrapped__")
    finally:
        del sys.modules[module.__name__]
        del sys.modules[importer.__name__]


def test_around_hook_runs_inside_the_span():
    module = types.ModuleType("repro_ncbench_fake2")
    calls = []

    class Meter:
        def record(self, value):
            calls.append(("original", value))

    module.Meter = Meter
    sys.modules[module.__name__] = module
    try:
        def around(original):
            def record(meter, value):
                calls.append(("around", value))
                original(meter, value)
            return record

        tracer = spans.Tracer(clock=FakeClock())
        undo = spans.install(
            tracer, [("sim", "repro_ncbench_fake2:Meter.record", around)])
        Meter().record(5)
        undo()
        assert calls == [("around", 5), ("original", 5)]
        assert tracer.snapshot()[("sim", "Meter.record")][0] == 1
    finally:
        del sys.modules[module.__name__]


def test_inside_share_is_a_fraction():
    assert 0.0 <= spans.inside_share(rounds=2000) <= 1.0
