"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_grade --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time (median of three set-ups, two of them in fresh interpreters),
throughput, latency p50 / p99 and peak RSS.  ``--trace 1`` instead
grades a smaller fixed cohort three times: once untraced here,
then twice traced, each in a fresh interpreter with the span wrappers
of :mod:`ledger` installed; it reports the per-layer metrics, checks
that both traced passes agree on every count and that each pass's
self-time ledger reconciles with its wall time, and reports the tracing
overhead.

Every run also checks the program's outputs against an independent
route (see :mod:`workloads`) and counts failed operations.  The last
line of standard output is the JSON result; everything above it is for
people.  The program under test is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Setups per ``--trace 0`` run (the first in this process).
SETUP_SAMPLES = 3
#: Seconds a helper interpreter may take before it is killed.
HELPER_TIMEOUT = 150


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what a helper interpreter does
    parser.add_argument("--pass", dest="role", choices=("main", "setup", "traced"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _helper(args: argparse.Namespace, role: str) -> dict:
    """Run this script in a fresh interpreter; returns its JSON line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--pass", role,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=HELPER_TIMEOUT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{role} helper failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _say(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# --trace 0


def timed_setup(workload):
    """Set the workload up; returns its state, raw and scaled seconds."""
    from calibrate import Gauge

    gauge = Gauge()
    gauge.sample(3)
    started = time.perf_counter()
    state = workload.setup(trace=False)
    seconds = time.perf_counter() - started
    gauge.sample(3)
    return state, seconds, seconds / gauge.slowdown


def measure(args: argparse.Namespace, workload) -> dict:
    import stats

    state, raw_setup, setup = timed_setup(workload)
    if args.role == "setup":
        workload.teardown(state)
        return {"setup_s": setup, "raw_setup_s": raw_setup}
    count = max(stats.min_samples(0.99), round(args.seconds * workload.per_second))
    cohort = workload.cohort(args.seed, count)
    if len(cohort) < count:
        raise RuntimeError(f"{workload.name}: cohort has {len(cohort)} items, run needs {count}")
    result = workload.run(state, cohort, args.seed)
    problems = workload.check(state, result, args.seed)
    workload.teardown(state)
    rss = workload.peak_rss_mb(state)
    setups, raw_setups = [setup], [raw_setup]
    for _ in range(SETUP_SAMPLES - 1):
        helper = _helper(args, "setup")
        setups.append(helper["setup_s"])
        raw_setups.append(helper["raw_setup_s"])

    gauge = result.gauge
    raw_rate = result.attempted / result.busy
    latencies_ms = [
        1000 * seconds / gauge.slowdown_at(done)
        for seconds, done in zip(result.latencies, result.completions)
    ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "subs_per_s": (result.attempted / gauge.scaled_busy(), "1/s"),
        "latency_ms_p50": (stats.percentile(latencies_ms, 0.50), "ms"),
        "latency_ms_p99": (stats.percentile(latencies_ms, 0.99), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    _say(f"{workload.name} seed={args.seed}: {len(latencies_ms)} latency samples "
         f"({stats.samples_beyond(len(latencies_ms), 0.99)} beyond p99) in {result.busy:.2f}s; "
         f"mean host slowdown {gauge.slowdown:.3f} over {len(gauge.samples)} gauge samples")
    _say(f"  as measured: {raw_rate:.2f} subs/s, set-ups "
         f"{', '.join(f'{s:.3f}' for s in raw_setups)} s; scaled to the reference host:")
    for name, (value, unit) in metrics.items():
        _say(f"  {name:<16} {value:12.4f} {unit}")
    return _result(result.attempted, result.failures, problems, metrics)


# ---------------------------------------------------------------------------
# --trace 1


def traced_pass(args: argparse.Namespace, workload) -> dict:
    """One traced pass in this (fresh) interpreter."""
    import cohorts
    import layers
    from ledger import Ledger, install

    ledger = Ledger()
    install(ledger)  # before set-up, so forked pool workers inherit it
    state = workload.setup(trace=True)
    corpus_build_s = getattr(state, "corpus_build_s", 0.0)
    ledger.reset()
    cohort = workload.cohort(args.seed, workload.trace_count)
    result = workload.run(state, cohort, args.seed, traced=True)
    workload.teardown(state)
    ledger.absorb(result.phase_seconds, result.phase_counts, result.counters)
    if workload.name == "serve_resubmit":
        ledger.merge(state.client_ledger)
        ledger.detach("serve.request", ["cluster.grade"], ["storage.get", "storage.put"])
    values = layers.per_layer(
        ledger, result.phase_seconds, result.phase_counts, result.counters,
        result.busy, result.attempted, corpus_build_s,
    )
    return {
        "digest": cohorts.digest(cohort),
        "metrics": values,
        "subs_per_s": result.attempted / result.gauge.scaled_busy(),
        "attempted": result.attempted,
        "failures": result.failures,
        "ledger_problems": layers.reconcile(ledger, result.busy),
    }


def trace(args: argparse.Namespace, workload) -> dict:
    import cohorts
    import layers

    state = workload.setup(trace=True)
    cohort = workload.cohort(args.seed, workload.trace_count)
    untraced = workload.run(state, cohort, args.seed)
    problems = workload.check(state, untraced, args.seed)
    workload.teardown(state)
    untraced_rate = untraced.attempted / untraced.gauge.scaled_busy()

    first, second = (_helper(args, "traced") for _ in range(2))
    failures = list(untraced.failures) + first["failures"] + second["failures"]
    attempted = untraced.attempted + first["attempted"] + second["attempted"]
    problems += first["ledger_problems"] + second["ledger_problems"]
    digest = cohorts.digest(cohort)
    if not first["digest"] == second["digest"] == digest:
        problems.append("the same seed gave different cohorts")
    if cohorts.digest(workload.cohort(args.seed + 1, workload.trace_count)) == digest:
        problems.append("a different seed gave the same cohort")
    counts = layers.deterministic(first["metrics"]), layers.deterministic(second["metrics"])
    for name in sorted(counts[0]):
        if counts[0][name] != counts[1][name]:
            problems.append(f"traced passes disagree on {name}: "
                            f"{counts[0][name]} vs {counts[1][name]}")

    values = dict(first["metrics"])
    values["trace.overhead_pct"] = 100 * (untraced_rate - first["subs_per_s"]) / untraced_rate
    units = layers.metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    _say(f"{workload.name} seed={args.seed}: traced cohort of {len(cohort)}; "
         f"untraced {untraced_rate:.1f}/s, traced {first['subs_per_s']:.1f}/s "
         f"and {second['subs_per_s']:.1f}/s")
    _say("  self-time ledger (ms per submission):")
    for layer in layers.LAYERS:
        share = values[f"ledger.{layer}_self_ms"]
        if share:
            _say(f"    {layer:<10} {share:9.4f}")
    for name, (value, unit) in metrics.items():
        _say(f"  {name:<36} {value:14.4f} {unit}")
    return _result(attempted, failures, problems, metrics)


# ---------------------------------------------------------------------------


def _result(attempted: int, failures: list[str], problems: list[str],
            metrics: dict[str, tuple[float, str]]) -> dict:
    for line in (failures + problems)[:20]:
        _say(f"  ! {line}")
    _say(f"  attempted {attempted}, failed {len(failures) + len(problems)}, "
         f"correctness problems {len(problems)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        # an output that fails its check is a failed operation too
        "failed": len(failures) + len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.role == "traced":
        output = traced_pass(args, workload)
    elif args.trace and args.role == "main":
        output = trace(args, workload)
    else:
        output = measure(args, workload)
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
