"""Span self-time arithmetic on a fake clock."""

from perf.trace import NO_TRACE, Tracer


def make_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_is_duration_minus_children():
    # op [0, 10]; children [1, 4] and [5, 7]; grandchild [2, 3].
    tracer = Tracer(clock=make_clock(0, 1, 2, 3, 4, 5, 7, 10))
    with tracer.span("op", op="0:1"):
        with tracer.span("layer_a"):
            with tracer.span("inner"):
                pass
        with tracer.span("layer_b"):
            pass
    spans = {span.name: span for span in tracer.spans}
    assert spans["op"].duration == 10
    assert spans["layer_a"].parent == spans["op"].id
    assert spans["inner"].parent == spans["layer_a"].id
    # Spans of one op share its id.
    assert {span.op for span in tracer.spans} == {"0:1"}
    own = tracer.self_times()
    assert own[spans["op"].id] == 10 - 3 - 2
    assert own[spans["layer_a"].id] == 3 - 1
    assert own[spans["inner"].id] == 1
    # Self times partition the root's duration.
    assert sum(own.values()) == spans["op"].duration
    table = tracer.by_name()
    assert table["op"] == {"count": 1, "total_s": 10, "self_s": 5}


def test_dump_and_the_off_switch(tmp_path):
    tracer = Tracer(clock=make_clock(0.0, 1.5))
    with tracer.span("only"):
        pass
    tracer.dump(tmp_path / "trace.json")
    assert '"name": "only"' in (tmp_path / "trace.json").read_text()
    with NO_TRACE.span("ignored", op="x"):
        pass
    assert not hasattr(NO_TRACE, "spans")
