"""The three workloads: set-up, timed loop, correctness check, teardown.

``cold_grade`` and ``repair_perf`` grade serially in this process
through :class:`repro.core.pipeline.BatchGrader` with no result cache;
``serve_resubmit`` drives an in-process
:class:`repro.serve.server.GradingService` over real HTTP from a
closed loop of client connections.  Each workload object is stateless;
what ``setup`` builds travels in the returned state object.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import multiprocessing
import os
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import cohorts
from calibrate import Gauge
from cohorts import Submission

#: Report statuses that mean the grade itself failed.
FAILED_STATUSES = frozenset({"error", "timeout"})

#: Where the serve workload keeps its per-run SQLite store.
WORK_DIR = ".perfbench_work"


@dataclass
class RunResult:
    """What one pass over a cohort produced."""

    wall: float
    #: Host-speed samples taken during the pass (their time is excluded).
    gauge: Gauge
    latencies: list[float] = field(default_factory=list)
    completions: list[float] = field(default_factory=list)
    #: ``(submission, what the check needs of its report, HTTP status)``
    #: per operation; only that much is kept, so memory does not grow
    #: with the reports' object graphs
    outcomes: list[tuple[Submission, Any, int]] = field(default_factory=list)
    #: Program phase seconds / calls and event counters over the pass.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: Operations that failed, with a reason each.
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def busy(self) -> float:
        """Wall seconds of the pass minus the gauge's samples."""
        return self.wall - self.gauge.paused


# ---------------------------------------------------------------------------
# in-process batch grading


@dataclass
class BatchState:
    graders: dict[str, Any]
    corpus_build_s: float
    #: this process's peak RSS at the end of the last pass
    rss_mb: float = 0.0


class BatchWorkload:
    """Serial in-process grading through ``BatchGrader(cache=False)``."""

    def __init__(self, name: str, repair: bool, cohort: Callable[[int], list[Submission]],
                 per_second: int, trace_count: int):
        self.name = name
        self.repair = repair
        self.perf = repair
        self._cohort = cohort
        #: A run grades ``per_second`` submissions per ``--seconds``.
        self.per_second = per_second
        #: Submissions in a traced pass.
        self.trace_count = trace_count

    def cohort(self, seed: int, count: int) -> list[Submission]:
        return self._cohort(seed, count)

    def setup(self, trace: bool) -> BatchState:
        from repro.core.pipeline import BatchGrader
        from repro.kb import all_assignment_names, get_assignment

        graders = {}
        corpus_build_s = 0.0
        for name in all_assignment_names():
            assignment = get_assignment(name)
            grader = BatchGrader(assignment, cache=False, repair=self.repair, perf=self.perf)
            if self.repair:
                started = time.perf_counter()
                grader.engine.repairer.corpus()
                corpus_build_s += time.perf_counter() - started
            for source in cohorts.warmup_sources(assignment):
                grader.grade_batch([source])
            graders[name] = grader
        return BatchState(graders, corpus_build_s)

    def run(self, state: BatchState, items: list[Submission], seed: int,
            traced: bool = False) -> RunResult:
        """Grade ``items`` one at a time, in order.

        The host gauge samples between submissions; its time is left
        out of the latencies and of :attr:`RunResult.busy`.
        """
        from repro.core.metrics import PipelineStats

        stats = PipelineStats()
        gauge = Gauge()
        keep = _keep_repair if self.repair else _cold_keeper(seed)
        started = time.perf_counter()
        result = RunResult(wall=0.0, gauge=gauge,
                           phase_seconds=stats.phase_seconds,
                           phase_counts=stats.phase_counts, counters=stats.counters)
        for item in items:
            if gauge.due():
                gauge.sample()
            grader = state.graders[item.assignment]
            begun = time.perf_counter()
            batch = grader.grade_batch([(item.label, item.source)])
            done = time.perf_counter()
            report = batch.items[0].report
            result.latencies.append(done - begun)
            result.completions.append(done)
            result.outcomes.append((item, keep(item, report), 200))
            stats.merge(batch.stats)
            if report.status in FAILED_STATUSES:
                result.failures.append(f"{item.label}: status {report.status}")
        gauge.sample()
        result.wall = time.perf_counter() - started
        state.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # a repair search cut short by its wall-clock budget returns no
        # suggestion: its output depended on host speed
        for _ in range(stats.counters.get("repair.deadline_stops", 0)):
            result.failures.append("repair search stopped by its deadline")
        return result

    def check(self, state: BatchState, result: RunResult, seed: int) -> list[str]:
        if self.repair:
            return _check_repair_perf(result)
        return _check_cold(result)

    def peak_rss_mb(self, state: BatchState) -> float:
        """This process's peak RSS up to the end of the timed pass."""
        return state.rss_mb

    def teardown(self, state: BatchState) -> None:
        pass


#: One graded ``cold_grade`` submission in this many (seeded by label)
#: is re-graded by the reference route.
COLD_CHECK_EVERY = 40


def _cold_keeper(seed: int) -> Callable[[Submission, Any], Any]:
    """Keeps the outcome fields of the seeded check sample, nothing else."""

    def keep(item: Submission, report: Any) -> Any:
        if cohorts.derive_seed(seed, "cold-check", item.label) % COLD_CHECK_EVERY:
            return None
        payload = report.to_dict()
        payload.pop("diagnostics")
        return payload

    return keep


def _keep_repair(item: Submission, report: Any) -> Any:
    """Suggested sources, and whether perf findings exist / escalated."""
    from repro.analysis.diagnostics import Severity

    escalated = any(d.severity is Severity.ERROR for d in report.perf)
    return [s.repaired_source for s in report.repair], bool(report.perf), escalated


def _reference_frontend():
    """The vendored seed frontend, imported from the checkout by path."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "_frontend_reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_frontend_reference", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load the reference frontend from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _check_cold(result: RunResult) -> list[str]:
    """The seeded sample re-graded by the seed frontend and naive Algorithm 2.

    The reference parser attaches no source positions, so diagnostics
    are left out; every outcome field of the report must be equal.
    """
    from repro.core.report import GradingReport
    from repro.kb import get_assignment
    from repro.matching.submission import match_graphs

    reference = _reference_frontend()
    problems = []
    for item, actual, _ in result.outcomes:
        if actual is None:
            continue
        assignment = get_assignment(item.assignment)
        graphs = reference.extract_all_epdgs(
            reference.parse_submission(item.source), assignment.synthesize_else_conditions
        )
        outcome = match_graphs(
            graphs, assignment.expected_methods,
            enforce_headers=assignment.enforce_headers, strategy="permutation",
        )
        expected = GradingReport(assignment_name=assignment.name, outcome=outcome).to_dict()
        expected.pop("diagnostics")
        if expected != actual:
            problems.append(f"{item.label}: outcome differs from the reference route")
    return problems


def _check_repair_perf(result: RunResult) -> list[str]:
    """Suggestions pass the tests; slow programs escalate, fast ones are silent."""
    from repro.kb import get_assignment
    from repro.repair.engine import RepairConfig
    from repro.testing import run_tests_on_source

    budget = RepairConfig().step_budget
    problems = []
    for item, (repaired, has_perf, escalated), _ in result.outcomes:
        tests = get_assignment(item.assignment).tests
        for source in repaired:
            if not run_tests_on_source(source, tests, step_budget=budget).passed:
                problems.append(f"{item.label}: suggested repair fails the functional tests")
        if item.kind == "slow" and not escalated:
            problems.append(f"{item.label}: seeded-slow program has no escalated perf finding")
        if item.kind == "fast" and has_perf:
            problems.append(f"{item.label}: fast program carries a perf finding")
    return problems


# ---------------------------------------------------------------------------
# grading service over HTTP


@dataclass
class ServeState:
    service: Any
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    port: int
    connections: int
    workdir: Path
    engines: dict[str, Any]
    client: Any
    client_conn: Any
    #: the last traced pass's client-side span ledger
    client_ledger: dict[str, Any] | None = None
    #: the largest pool worker's peak RSS, read at teardown
    worker_rss_mb: float = 0.0


class ServeWorkload:
    """A closed loop of HTTP clients against an in-process grading service."""

    name = "serve_resubmit"
    #: Requests per ``--seconds`` (see BatchWorkload): about 1.5 times
    #: the throughput, because its p99 (queueing behind the other
    #: connection's grade) needs more samples to settle: its quartile
    #: spread was 13% over ten seeds at 3000 requests, 9% over five at 4500.
    per_second = 450
    #: Requests in a traced pass.
    trace_count = 800
    #: Closed-loop client connections (never above nproc).
    connections = 2
    #: Pool worker processes.  One worker, the service process and the
    #: load generator stay below two cores' worth of demand; with two
    #: workers the host's speed swings were amplified (repeat-run spread
    #: of throughput 9%, of p99 15%, against 5% and 5% with one).
    workers = 1

    def cohort(self, seed: int, count: int) -> list[Submission]:
        return cohorts.resubmission_stream(seed, count)

    def setup(self, trace: bool) -> ServeState:
        # The load generator is a process of its own, so that its JSON and
        # HTTP work never competes with the service for this process's
        # GIL.  It is forked first, while this process has no threads (and,
        # untraced, has not imported the program), so it stays small.
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        client = context.Process(target=client_main, args=(theirs,), name="perfbench-client",
                                 daemon=True)
        client.start()
        theirs.close()

        from repro.core.engine import FeedbackEngine
        from repro.kb import all_assignment_names, get_assignment
        from repro.serve.server import GradingService, ServiceConfig

        # Grade the warm-up set in this process first: it fills the KB and
        # search-plan caches the forked pool workers then inherit, and the
        # engines are the correctness check's reference route.
        engines = {}
        for name in all_assignment_names():
            engine = FeedbackEngine(get_assignment(name))
            for source in cohorts.warmup_sources(engine.assignment):
                engine.grade(source)
            engines[name] = engine
        # one traced connection and worker keep routing, and with it every
        # per-layer count, a function of the seed alone
        connections = 1 if trace else min(self.connections, os.cpu_count() or 1)
        workers = min(self.workers, os.cpu_count() or 1)
        workdir = Path(__file__).resolve().parent.parent / WORK_DIR / f"serve-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        config = ServiceConfig(
            host="127.0.0.1", port=0, workers=workers, pool_mode="process",
            cluster=True, cache_dir=workdir, store_backend="sqlite",
        )
        loop = asyncio.new_event_loop()
        ready = threading.Event()
        holder: dict[str, Any] = {}

        def serve() -> None:
            asyncio.set_event_loop(loop)
            try:
                service = GradingService(config)
                loop.run_until_complete(service.start())
                holder["service"] = service
            except BaseException as error:  # reported to the caller below
                holder["error"] = error
                ready.set()
                return
            ready.set()
            loop.run_until_complete(service.serve_forever(install_signal_handlers=False))

        thread = threading.Thread(target=serve, name="perfbench-service", daemon=True)
        thread.start()
        if not ready.wait(60) or "service" not in holder:
            raise RuntimeError(f"grading service failed to start: {holder.get('error')}")
        service = holder["service"]
        state = ServeState(service, loop, thread, service.port, connections, workdir,
                           engines, client, ours)
        self._warm(state)
        return state

    def _warm(self, state: ServeState) -> None:
        """Build every worker's engines: each warm-up source, then a variant."""
        from repro.kb import all_assignment_names, get_assignment

        items = []
        last = (1 << cohorts.VARIANT_WIDTH) - 1  # a variant number no stream reaches
        for name in all_assignment_names():
            assignment = get_assignment(name)
            for source in cohorts.warmup_sources(assignment)[1:]:
                variant = cohorts.alpha_variant(assignment, source, last)
                items.append(Submission("warm", name, source, "new"))
                items.append(Submission("warm", name, variant, "variant"))
        self._drive(state, items, keep=False)

    def run(self, state: ServeState, items: list[Submission], seed: int,
            traced: bool = False) -> RunResult:
        """One timed pass; program counters are deltas over the pass."""
        stats = state.service.metrics.pipeline
        before = (dict(stats.phase_seconds), dict(stats.phase_counts), dict(stats.counters))
        serve_before = self.service_metrics(state)["serve"]
        result = self._drive(state, items, keep=True, trace=traced)
        serve_after = self.service_metrics(state)["serve"]
        result.phase_seconds, result.phase_counts, result.counters = (
            _delta(after, start) for after, start in zip(
                (stats.phase_seconds, stats.phase_counts, stats.counters), before)
        )
        result.counters.update(_delta(serve_after, serve_before))
        return result

    def _drive(self, state: ServeState, items: list[Submission], keep: bool,
               trace: bool = False) -> RunResult:
        """Send ``items`` from the load-generator process; see :func:`client_main`."""
        state.client_conn.send({"port": state.port, "connections": state.connections,
                                "items": items, "trace": trace})
        reply = state.client_conn.recv()
        if "error" in reply:
            raise RuntimeError(f"load generator failed:\n{reply['error']}")
        result = RunResult(wall=reply["wall"], gauge=reply["gauge"],
                           latencies=reply["latencies"], completions=reply["completions"])
        state.client_ledger = reply["ledger"]
        for index, status, digest, report_status in reply["records"]:
            item = items[index]
            if keep:
                result.outcomes.append((item, digest, status))
            if status != 200:
                result.failures.append(f"{item.label}: HTTP {status}")
            elif report_status in FAILED_STATUSES:
                result.failures.append(f"{item.label}: report status {report_status}")
        return result

    def check(self, state: ServeState, result: RunResult, seed: int) -> list[str]:
        """Every served report equals a direct ``FeedbackEngine.grade``.

        The load generator hands back a SHA-256 of each served report's
        JSON, compared here with that of the engine's own report.
        """
        expected: dict[tuple[str, str], str] = {}
        problems = []
        for item, digest, status in result.outcomes:
            if status != 200:
                continue  # already a failed operation
            key = (item.assignment, item.source)
            if key not in expected:
                report = state.engines[item.assignment].grade(item.source).to_dict()
                expected[key] = report_digest(report)
            if digest != expected[key]:
                problems.append(f"{item.label}: served report differs from FeedbackEngine.grade")
        return problems

    def service_metrics(self, state: ServeState) -> dict[str, Any]:
        """``GET /metrics`` from the running service."""
        conn = http.client.HTTPConnection("127.0.0.1", state.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self, state: ServeState) -> float:
        """The largest pool worker's peak RSS (read at teardown)."""
        return state.worker_rss_mb

    def teardown(self, state: ServeState) -> None:
        state.loop.call_soon_threadsafe(state.service.request_drain)
        state.thread.join(60)
        if state.thread.is_alive():
            raise RuntimeError("grading service did not drain")
        state.loop.close()
        # The pool workers are the only children reaped so far (the load
        # generator still runs), so the children's peak RSS is theirs.
        state.worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        try:
            state.client_conn.send(None)
        except OSError:
            pass  # it already exited
        state.client.join(30)
        if state.client.is_alive():
            state.client.kill()
            state.client.join()
        state.client_conn.close()
        shutil.rmtree(state.workdir, ignore_errors=True)
        try:
            state.workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def send(conn: http.client.HTTPConnection, item: Submission) -> tuple[int, dict]:
    """POST one grade request; returns the HTTP status and parsed body."""
    body = json.dumps({"source": item.source, "label": item.label})
    conn.request("POST", f"/assignments/{item.assignment}/grade", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def report_digest(report: Any) -> str:
    """SHA-256 of a report's JSON text."""
    return hashlib.sha256(json.dumps(report).encode()).hexdigest()


def closed_loop(port: int, connections: int, items: list[Submission]) -> dict[str, Any]:
    """``connections`` clients, each sending its next request on a reply.

    Host-speed samples need a quiet host, so when one is due every
    client finishes its request and waits at a barrier while the gauge
    runs; those pauses are left out of the measurement.
    """
    gauge = Gauge()
    lock = threading.Lock()
    cursor = iter(enumerate(items))
    latencies: list[float] = []
    completions: list[float] = []
    records: list[tuple[int, int, str, Any]] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(connections, action=gauge.sample)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                if gauge.due() and not barrier.broken:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        pass  # another client is done; no more samples
                with lock:
                    index, item = next(cursor, (None, None))
                if item is None:
                    return
                begun = time.perf_counter()
                status, payload = send(conn, item)
                done = time.perf_counter()
                report = payload.get("report")
                with lock:
                    latencies.append(done - begun)
                    completions.append(done)
                    records.append((index, status, report_digest(report),
                                    report and report.get("status")))
        except BaseException as error:  # surfaced after the join
            errors.append(error)
        finally:
            barrier.abort()
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    gauge.sample()
    return {"wall": time.perf_counter() - started, "gauge": gauge,
            "latencies": latencies, "completions": completions, "records": records}


def client_main(conn) -> None:
    """The load-generator process: runs closed-loop jobs until told to stop.

    Each job is ``{"port", "connections", "items", "trace"}``; a
    ``None`` job ends the process.  With ``trace`` the client-side
    ``serve.request`` span is recorded and its ledger returned.
    """
    ledger = None
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            conn.close()
            return
        try:
            if job["trace"] and ledger is None:
                from ledger import Ledger, install

                ledger = Ledger()
                install(ledger, client=True)
            if ledger is not None:
                ledger.reset()
            reply = closed_loop(job["port"], job["connections"], job["items"])
            reply["ledger"] = ledger.dump() if job["trace"] else None
        except BaseException:  # reported to the parent, which raises
            import traceback

            reply = {"error": traceback.format_exc()}
        conn.send(reply)


def _delta(after: dict, before: dict) -> dict:
    """``after - before`` per key, dropping keys that did not move."""
    out = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and value != before.get(key, 0):
            out[key] = value - before.get(key, 0)
    return out


WORKLOADS: dict[str, Any] = {
    "cold_grade": BatchWorkload("cold_grade", repair=False, cohort=cohorts.cold_cohort,
                                per_second=300, trace_count=1200),
    "repair_perf": BatchWorkload("repair_perf", repair=True, cohort=cohorts.repair_cohort,
                                 # twice its throughput: the process's
                                 # peak RSS (transient interpreter and
                                 # probe allocations) settles only after
                                 # ~1500 submissions
                                 per_second=140, trace_count=300),
    "serve_resubmit": ServeWorkload(),
}
