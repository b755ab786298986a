"""Unit tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import calibrate
import cohorts
import layers
import stats
from ledger import Ledger

BENCH = Path(__file__).resolve().parent.parent


# -- the tail-percentile rule ------------------------------------------------


def test_p99_needs_a_thousand_samples():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9
    assert stats.min_samples(0.99) == 1000
    assert stats.min_samples(0.5) == 20


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 1001)]
    random.Random(3).shuffle(samples)
    assert stats.percentile(samples, 0.50) == 500.0
    assert stats.percentile(samples, 0.99) == 990.0


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="10 samples beyond"):
        stats.percentile([1.0] * 999, 0.99)


# -- span self-time arithmetic ----------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_ledger():
    """outer(10s) -> [inner(3s) -> leaf(1s)] + inner(2s)."""
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def leaf():
        clock.now += 1.0

    def inner(seconds):
        clock.now += seconds - 1.0
        traced_leaf()

    def outer():
        clock.now += 1.0
        traced_inner(3.0)
        traced_inner(2.0)
        clock.now += 4.0

    traced_leaf = ledger.wrap("interp.leaf", leaf)
    traced_inner = ledger.wrap("repair.inner", inner)
    ledger.wrap("engine.outer", outer)()
    return ledger


def test_self_time_subtracts_direct_children_only():
    ledger = _nested_ledger()
    assert ledger.total == {"interp.leaf": 2.0, "repair.inner": 5.0, "engine.outer": 10.0}
    assert ledger.own == {"interp.leaf": 2.0, "repair.inner": 3.0, "engine.outer": 5.0}
    assert ledger.calls == {"interp.leaf": 2, "repair.inner": 2, "engine.outer": 1}
    assert ledger.layer_self() == {"interp": 2.0, "repair": 3.0, "engine": 5.0}
    assert ledger.mean_ms("repair.inner") == 2500.0
    assert ledger.mean_self_ms("repair.inner") == 1500.0


def test_self_times_add_up_to_the_root_span():
    ledger = _nested_ledger()
    assert sum(ledger.own.values()) == ledger.total["engine.outer"]
    assert layers.reconcile(ledger, wall=10.0) == []
    assert "below 95%" in layers.reconcile(ledger, wall=20.0)[0]
    assert "more than" in layers.reconcile(ledger, wall=9.0)[0]


def test_a_raising_call_still_records_its_span():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def boom():
        clock.now += 2.0
        raise RuntimeError("parse error")

    with pytest.raises(RuntimeError):
        ledger.wrap("java.parse", boom)()
    assert ledger.total == {"java.parse": 2.0}


def test_detach_charges_the_client_span_only_for_unaccounted_time():
    ledger = Ledger()
    ledger.total.update({"serve.request": 10.0, "cluster.grade": 6.0, "storage.get": 1.0})
    ledger.own.update({"serve.request": 10.0, "cluster.grade": 2.0, "storage.get": 1.0})
    assert ledger.detach("serve.request", ["cluster.grade"], ["storage.get"]) == 3.0


def test_absorb_reads_spans_sent_through_phase_collectors():
    ledger = Ledger()
    ledger.absorb(
        {"span:pdg.build": 0.5, "self:pdg.build": 0.25, "pattern_match": 9.0},
        {"span:pdg.build": 4, "self:pdg.build": 4, "pattern_match": 3},
        {"ledger:pdg.nodes": 120, "match.nodes_visited": 7},
    )
    assert ledger.calls == {"pdg.build": 4}
    assert ledger.total == {"pdg.build": 0.5}
    assert ledger.own == {"pdg.build": 0.25}
    assert ledger.counts == {"pdg.nodes": 120}


def test_deterministic_metrics_exclude_times():
    values = {"pdg.nodes": 3, "pdg.build_ms": 1.5, "repair.verified_ratio": 1.0,
              "ledger.coverage": 0.99, "pdg.build_calls": 4}
    assert layers.deterministic(values) == {
        "pdg.nodes": 3, "repair.verified_ratio": 1.0, "pdg.build_calls": 4}


# -- the host gauge ----------------------------------------------------------


def test_scaled_busy_divides_each_stretch_by_its_local_slowdown():
    gauge = calibrate.Gauge()
    ref = calibrate.REFERENCE_SECONDS
    # pauses at 0, 10 and 20 s; the host runs at reference speed for the
    # first ten seconds and at half speed for the next ten
    gauge.pauses = [(0.0, 0.0), (10.0, 10.0), (20.0, 20.0)]
    gauge.times = [0.0, 10.0, 20.0]
    gauge.samples = [ref, ref, 2 * ref]
    gauge.WINDOW = 1
    assert gauge.slowdown_at(5.0) == pytest.approx(1.0)
    assert gauge.slowdown_at(15.0) == pytest.approx(1.5)
    assert gauge.scaled_busy() == pytest.approx(10.0 / 1.0 + 10.0 / 1.5)


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()


# -- cohorts -----------------------------------------------------------------


def test_stratify_keeps_every_prefix_in_proportion():
    groups = {"a": list(range(100)), "b": list(range(100, 150))}
    mixed = cohorts.stratify(groups, random.Random(0))
    assert sorted(mixed) == list(range(150))
    prefix = mixed[:60]
    assert abs(sum(1 for v in prefix if v < 100) - 40) <= 1


def test_shares_spread_what_a_small_group_cannot_take():
    assert cohorts._shares(100, {"a": 5, "b": 99, "c": 99}) == {"a": 5, "b": 48, "c": 48}
    assert cohorts._shares(9, {"a": 99, "b": 99}) == {"a": 5, "b": 5}


@pytest.mark.parametrize("build", [cohorts.cold_cohort, cohorts.repair_cohort])
def test_cold_cohorts_defeat_every_cache(build):
    """Exactly the run's size; no source repeats, and none is a warm-up input."""
    from repro.kb import get_assignment

    cohort = build(7, 600)
    sources = [item.source for item in cohort]
    assert len(sources) == 600
    assert len(set(sources)) == len(sources)
    warm = {s for name in {item.assignment for item in cohort}
            for s in cohorts.warmup_sources(get_assignment(name))}
    assert not warm & set(sources)


def test_repair_cohort_carries_slow_and_fast_families():
    kinds = {item.kind for item in cohorts.repair_cohort(7, 300)}
    assert kinds == {"synth", "slow", "fast"}


def test_cohort_digest_follows_the_seed():
    assert cohorts.digest(cohorts.cold_cohort(5, 300)) == cohorts.digest(cohorts.cold_cohort(5, 300))
    assert cohorts.digest(cohorts.cold_cohort(5, 300)) != cohorts.digest(cohorts.cold_cohort(6, 300))


def test_alpha_variants_of_one_source_share_a_cluster_fingerprint():
    from repro.cluster.audit import audit_assignment
    from repro.cluster.fingerprint import fingerprint_source
    from repro.kb import get_assignment

    assignment = get_assignment("assignment1")
    source = assignment.reference_solutions[0]
    first, second = (cohorts.alpha_variant(assignment, source, n) for n in (3, 5))
    assert len({source, first, second}) == 3
    audit = audit_assignment(assignment)
    assert fingerprint_source(first, audit).digest == fingerprint_source(second, audit).digest


def test_stream_follows_the_synthetic_stream_repeat_share():
    from repro.kb import all_assignment_names

    stream = cohorts.resubmission_stream(5, length=2400)
    kinds = {kind: sum(1 for item in stream if item.kind == kind)
             for kind in ("new", "duplicate", "variant")}
    assert all(kinds.values())
    assert cohorts.repeat_share() == 0.6
    # stationary: both halves repeat about as often as the whole
    for half in (stream[:1200], stream[1200:]):
        repeats = sum(1 for item in half if item.kind != "new") / len(half)
        assert abs(repeats - cohorts.repeat_share()) < 0.05
    assert {item.assignment for item in stream} == set(all_assignment_names())
    # every exact duplicate resubmits a source the stream already sent
    sent = set()
    for item in stream:
        if item.kind == "duplicate":
            assert item.source in sent
        sent.add(item.source)


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": layers.better(name)}
        for name, unit in layers.metric_units().items()
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "subs_per_s", "latency_ms_p50", "latency_ms_p99", "peak_rss_mb"]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
