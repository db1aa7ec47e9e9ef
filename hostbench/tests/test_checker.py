from cells import WORKLOADS, exact_counts, mismatches, run_pass
from measure import Checker

SCALE = 0.05  # a few hundred records: enough to exercise every counter


def _tiny_pass(engine="scalar", workload="ppf-single"):
    wl = WORKLOADS[workload]
    return run_pass(wl, wl.direct[0], engine, seed=3, scale=SCALE)


def test_batched_equals_scalar_oracle():
    scalar, batched = _tiny_pass("scalar"), _tiny_pass("batched")
    assert mismatches(scalar.outcome, batched.outcome) == []
    assert scalar.consumed == batched.consumed


def test_outcome_covers_the_checked_counters():
    keys = set(_tiny_pass().outcome)
    for key in (
        "core0.instructions",
        "core0.cycles",
        "core0.l1.demand_hits",
        "core0.l2.demand_misses",
        "llc.demand_misses",
        "core0.prefetcher.prefetch.issued",
        "core0.prefetcher.prefetch.useful",
        "core0.prefetcher.filter.accepted_l2",
        "core0.prefetcher.filter.rejected",
    ):
        assert key in keys


def test_checker_flags_injected_mismatch():
    ref = _tiny_pass()
    checker = Checker()
    assert checker.compare("clean", ref.outcome, dict(ref.outcome))
    bad = dict(ref.outcome)
    bad["core0.prefetcher.prefetch.useful"] += 1
    assert not checker.compare("injected", ref.outcome, bad)
    missing = dict(ref.outcome)
    del missing["core0.cycles"]
    assert not checker.compare("missing", ref.outcome, missing)
    assert (checker.attempted, checker.failed) == (3, 2)
    assert "core0.prefetcher.prefetch.useful" in checker.errors[0]


def test_checker_flags_consumed_count_and_crash():
    checker = Checker()
    assert checker.compare("op", {"a": 1}, {"a": 1})
    assert not checker.consumed("op", 100, 101)
    checker.crashed("boom", RuntimeError("x"))
    assert (checker.attempted, checker.failed) == (2, 2)


def test_multi_core_pass_counts_replayed_records():
    res = _tiny_pass(workload="ppf-mix4")
    counts = exact_counts([(WORKLOADS["ppf-mix4"].direct[0], res)])
    assert res.consumed > res.nominal
    assert counts["sim.records_consumed"] == res.consumed
    assert 0 < counts["sim.replay_frac"] < 1
    assert len(res.cores) == 4
