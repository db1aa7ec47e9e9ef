import statistics

import pytest
from summary import summarize, tail_percentile


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    s = summarize(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"]) == (q1, q2, q3)
    assert s["n"] == 7


def test_single_sample_has_degenerate_quartiles():
    assert summarize([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5}


def test_empty_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


@pytest.mark.parametrize(
    "n, pct", [(19, None), (39, None), (40, 75), (99, 75), (100, 90), (200, 95), (1000, 99)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_is_reported_with_its_sample_count():
    values = list(range(1, 101))
    s = summarize(values)
    assert s["n"] == 100
    assert "p90" in s and "p95" not in s
    assert s["p90"] == statistics.quantiles(values, n=100)[89]
    assert sum(v > s["p90"] for v in values) >= 10
