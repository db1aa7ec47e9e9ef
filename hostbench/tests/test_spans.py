import pytest
from spans import SpanRecorder, self_times


def test_self_time_on_synthetic_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has a child
    # c [15, 25) of the same layer as b.
    spans = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("c", 1, 15, 25),
        ("c", 0, 50, 90),
    ]
    times = self_times(spans)
    assert times["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert times["a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert times["c"] == {"calls": 2, "total_ns": 50, "self_ns": 50}
    # Self times partition the root's interval.
    assert sum(t["self_ns"] for t in times.values()) == 100


class _Leaf:
    def work(self, n):
        return sum(range(n))

    def produce(self):
        yield from (1, 2, 3)


class _Outer:
    def __init__(self):
        self.leaf = _Leaf()

    def run(self):
        return self.leaf.work(10) + self.leaf.work(20) + sum(self.leaf.produce())


def _install(rec, monkeypatch):
    layers = {
        "outer": ((__name__, "_Outer", ("run",)),),
        "leaf": ((__name__, "_Leaf", ("work", "produce*")),),
    }
    monkeypatch.setattr("spans.ALL_LAYERS", layers)
    return rec.install(["outer", "leaf"])


def test_recorder_wraps_at_class_level_and_restores(monkeypatch):
    original = _Leaf.__dict__["work"]
    rec = SpanRecorder()
    with _install(rec, monkeypatch):
        assert _Leaf.__dict__["work"] is not original
        assert _Outer().run() == 45 + 190 + 6
    assert _Leaf.__dict__["work"] is original
    spans = rec.spans()
    names = [s[0] for s in spans]
    assert names.count("outer") == 1
    # two work() calls plus one span per generator item (three items and
    # the final StopIteration)
    assert names.count("leaf") == 2 + 4
    assert all(parent == 0 for name, parent, _, _ in spans if name == "leaf")
    times = self_times(spans)
    assert times["outer"]["total_ns"] >= times["outer"]["self_ns"] >= 0
    rec.clear()
    assert rec.spans() == []


def test_wrapped_exceptions_propagate_and_close_the_span(monkeypatch):
    rec = SpanRecorder()
    with _install(rec, monkeypatch):
        with pytest.raises(TypeError):
            _Leaf().work("x")
    (span,) = rec.spans()
    assert span[3] >= span[2] > 0
