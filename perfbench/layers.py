"""Per-layer metrics of a traced pass, and the self-time ledger.

Names are ``<layer>.<metric>``.  ``_ms`` is mean milliseconds per call
of that span (its call count is the matching ``_calls``); counts are
totals over the traced pass, which grades a fixed number of
submissions, so they repeat exactly for one seed; ratios are useful
outcomes over attempts.
"""

from __future__ import annotations

from ledger import Ledger

#: Spans reported as ``<span>_ms`` / ``<span>_calls``.
SPANS = (
    "java.parse",
    "pdg.build",
    "matching.match",
    "analysis.checks",
    "analysis.perf",
    "repair.suggest",
    "repair.rank",
    "repair.align",
    "repair.edits",
    "repair.verify",
    "interp.run_tests",
    "cluster.fingerprint",
    "cluster.specialize",
    "storage.get",
    "storage.put",
    "engine.grade",
    "serve.request",
)

#: The program's own matching phases (``repro.instrumentation.phase``).
MATCH_PHASES = ("pattern_match", "constraint_match", "assignment_solve")

#: Layers of the self-time ledger, in data-flow order.
LAYERS = (
    "serve", "pipeline", "storage", "cluster", "engine", "java", "pdg",
    "matching", "analysis", "repair", "interp",
)

#: Work counts: metric name -> (source, key).  ``ledger`` counts come
#: from the wrappers, ``program`` ones from ``repro.instrumentation``.
COUNTS = {
    "pdg.nodes": ("ledger", "pdg.nodes"),
    "matching.nodes_visited": ("program", "match.nodes_visited"),
    "matching.candidates_pruned": ("program", "match.candidates_pruned"),
    "analysis.perf_probe_runs": ("program", "perf.probe_runs"),
    "interp.steps": ("ledger", "interp.steps"),
}

#: Ratios: metric name -> (source, useful outcomes, attempts).
RATIOS = {
    "matching.cache_hit_ratio": ("program", ("match.cache_hits",),
                                 ("match.cache_hits", "match.cache_misses")),
    "analysis.perf_dynamic_skip_ratio": ("program", ("perf.dynamic_skips",), ("perf.runs",)),
    "repair.verified_ratio": ("program", ("repair.verified",), ("repair.requests",)),
    "interp.compile_hit_ratio": ("program", ("interp.compile_hits",),
                                 ("interp.compile_hits", "interp.compile_misses")),
    "cluster.specialized_ratio": ("program", ("cluster.specialized",), ("cluster.submissions",)),
    "storage.hit_ratio": ("ledger", ("storage.get_hits",), ("storage.gets",)),
    "serve.cache_hit_ratio": ("program", ("serve.cache_hits",), ("serve.grade_requests",)),
}

#: Service refusals, from ``/metrics``.
REJECTIONS = ("serve.rejected_queue_full", "serve.rejected_breaker_open",
              "serve.rejected_draining")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_calls"] = "count"
    for phase in MATCH_PHASES:
        units[f"matching.{phase}_ms"] = "ms"
    for name in COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["serve.rejected"] = "count"
    units["engine.unattributed_ms"] = "ms"
    units["serve.overhead_ms"] = "ms"
    units["pipeline.overhead_ms"] = "ms"
    units["repair.corpus_build_s"] = "s"
    for layer in LAYERS:
        units[f"ledger.{layer}_self_ms"] = "ms"
    units["ledger.coverage"] = "ratio"
    units["ledger.wall_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def better(name: str) -> str:
    """Which way a per-layer metric improves: ratios up, the rest down."""
    return "higher" if metric_units()[name] == "ratio" else "lower"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    ledger: Ledger,
    phase_seconds: dict[str, float],
    phase_counts: dict[str, int],
    counters: dict[str, int],
    wall: float,
    submissions: int,
    corpus_build_s: float,
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``.

    ``ledger`` must already hold the child processes' spans
    (:meth:`Ledger.absorb`) and any cross-thread detachment.
    """
    values: dict[str, float] = {}
    for span in SPANS:
        values[f"{span}_ms"] = ledger.mean_ms(span)
        values[f"{span}_calls"] = ledger.calls.get(span, 0)
    for phase in MATCH_PHASES:
        values[f"matching.{phase}_ms"] = 1000 * _ratio(
            phase_seconds.get(phase, 0.0), phase_counts.get(phase, 0)
        )
    sources = {"ledger": ledger.counts, "program": counters}
    for name, (source, key) in COUNTS.items():
        values[name] = sources[source].get(key, 0)
    for name, (source, hits, tries) in RATIOS.items():
        table = sources[source]
        values[name] = _ratio(sum(table.get(k, 0) for k in hits),
                              sum(table.get(k, 0) for k in tries))
    values["serve.rejected"] = sum(counters.get(name, 0) for name in REJECTIONS)
    values["engine.unattributed_ms"] = ledger.mean_self_ms("engine.grade")
    values["serve.overhead_ms"] = ledger.mean_self_ms("serve.request")
    values["pipeline.overhead_ms"] = ledger.mean_self_ms("pipeline.grade_batch")
    values["repair.corpus_build_s"] = corpus_build_s
    layers = ledger.layer_self()
    for layer in LAYERS:
        values[f"ledger.{layer}_self_ms"] = 1000 * _ratio(layers.get(layer, 0.0), submissions)
    values["ledger.coverage"] = _ratio(sum(layers.values()), wall)
    values["ledger.wall_s"] = wall
    return values


def deterministic(values: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly for one seed: no times."""
    units = metric_units()
    return {
        name: value for name, value in values.items()
        if units.get(name) in ("count", "ratio") and name != "ledger.coverage"
    }


def reconcile(ledger: Ledger, wall: float, floor: float = 0.95) -> list[str]:
    """Problems with the self-time ledger of one traced pass.

    Self times must be non-negative, and together (engine's unattributed
    remainder included) they must cover at least ``floor`` of the traced
    wall time without exceeding it.
    """
    problems = []
    tolerance = 1e-6 * max(wall, 1.0)
    for name, seconds in sorted(ledger.own.items()):
        if seconds < -tolerance:
            problems.append(f"span {name} has negative self time {seconds:.6f}s")
    covered = sum(ledger.own.values())
    if covered > wall + tolerance:
        problems.append(f"ledger sums to {covered:.3f}s, more than the {wall:.3f}s wall time")
    if covered < floor * wall:
        problems.append(
            f"ledger covers {covered / wall:.1%} of the traced wall time, below {floor:.0%}"
        )
    return problems
