"""Span ledger: times calls into each layer from outside the program.

The traced run wraps public functions of every layer (the table
:data:`TARGETS`) at the name the caller looks them up under, so the
program's own files stay untouched.  Each wrapper records one span:
its wall time, its *self* time (wall time minus the time of spans that
ran inside it on the same thread) and, for a few layers, a work count
such as EPDG nodes built or interpreter steps run.

Spans recorded in a forked child (the grading service's pool workers)
cannot reach the parent's ledger directly.  They ride the program's own
per-grade :class:`repro.instrumentation.PhaseCollector` instead, under
``span:`` / ``self:`` / ``ledger:`` prefixed names; the service merges
those collectors into its pipeline stats, and :meth:`Ledger.absorb`
reads them back.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from typing import Any, Callable

_SPAN, _SELF, _COUNT = "span:", "self:", "ledger:"


class Ledger:
    """Per-span call counts, wall and self seconds, and work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.owner = os.getpid()
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.own: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Where a forked child sends its records (set by :func:`install`).
        self.remote: Callable[[], Any] | None = None
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self.calls.clear()
        self.total.clear()
        self.own.clear()
        self.counts.clear()

    # -- recording --------------------------------------------------------

    def _frames(self) -> list[list[float]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Callable[[Any], dict[str, int]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frames = self._frames()
            frame = [0.0]
            frames.append(frame)
            started = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                self.record(name, elapsed, elapsed - frame[0])
            if measure is not None:
                for counter, amount in measure(result).items():
                    self.add(counter, amount)
            return result

        return traced

    def record(self, name: str, elapsed: float, own: float) -> None:
        collector = self._remote_collector()
        if collector is not None:
            collector.add(_SPAN + name, elapsed)
            collector.add(_SELF + name, own)
            return
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + elapsed
        self.own[name] = self.own.get(name, 0.0) + own

    def add(self, name: str, amount: int = 1) -> None:
        collector = self._remote_collector()
        if collector is not None:
            collector.increment(_COUNT + name, amount)
            return
        self.counts[name] = self.counts.get(name, 0) + amount

    def _remote_collector(self) -> Any:
        if self.remote is None or os.getpid() == self.owner:
            return None
        return self.remote()

    def absorb(
        self,
        phase_seconds: dict[str, float],
        phase_counts: dict[str, int],
        counters: dict[str, int],
    ) -> None:
        """Fold spans a child sent through the program's phase collectors."""
        for key, seconds in phase_seconds.items():
            if key.startswith(_SPAN):
                name = key[len(_SPAN):]
                self.calls[name] = self.calls.get(name, 0) + phase_counts.get(key, 0)
                self.total[name] = self.total.get(name, 0.0) + seconds
            elif key.startswith(_SELF):
                name = key[len(_SELF):]
                self.own[name] = self.own.get(name, 0.0) + seconds
        for key, amount in counters.items():
            if key.startswith(_COUNT):
                name = key[len(_COUNT):]
                self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict[str, dict]:
        return {"calls": self.calls, "total": self.total, "own": self.own,
                "counts": self.counts}

    def merge(self, dump: dict[str, dict]) -> None:
        """Add another process's :meth:`dump`."""
        for field in ("calls", "total", "own", "counts"):
            mine = getattr(self, field)
            for name, value in dump[field].items():
                mine[name] = mine.get(name, 0) + value

    # -- arithmetic -------------------------------------------------------

    def detach(self, parent: str, remote_roots: list[str], local: list[str]) -> float:
        """Charge ``parent`` only for time no other span accounts for.

        ``parent`` is a client-side span whose work happened elsewhere:
        in spans recorded by another process (``remote_roots``) or by
        another thread of this one (``local``), which therefore could
        not nest inside it.  Its self time becomes its wall time minus
        all of theirs; the new self time is returned.
        """
        inner = sum(self.total.get(name, 0.0) for name in remote_roots + local)
        self.own[parent] = self.total.get(parent, 0.0) - inner
        return self.own[parent]

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        layers: dict[str, float] = {}
        for name, seconds in self.own.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000 * self.total.get(name, 0.0) / calls if calls else 0.0

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000 * self.own.get(name, 0.0) / calls if calls else 0.0


def _graph_nodes(graphs: Any) -> dict[str, int]:
    return {"pdg.nodes": sum(len(graph.nodes) for graph in graphs.values())}


def _steps(report: Any) -> dict[str, int]:
    return {
        "interp.steps": sum(
            result.cost.steps for result in report.results if result.cost is not None
        )
    }


def _lookup(result: Any) -> dict[str, int]:
    return {"storage.gets": 1, "storage.get_hits": int(result is not None)}


#: ``(module, attribute path, span name, work counter)`` for every call
#: the traced run times.  A function is patched in the module that
#: *calls* it, because that is where the name is looked up.
TARGETS: tuple[tuple[str, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    ("repro.core.pipeline", "BatchGrader.grade_batch", "pipeline.grade_batch", None),
    ("repro.core.engine", "FeedbackEngine.grade", "engine.grade", None),
    ("repro.core.engine", "parse_submission", "java.parse", None),
    ("repro.core.engine", "extract_all_epdgs", "pdg.build", _graph_nodes),
    ("repro.core.engine", "match_graphs", "matching.match", None),
    ("repro.core.engine", "run_checks", "analysis.checks", None),
    ("repro.analysis.perf.analyzer", "PerfAnalyzer.analyze", "analysis.perf", None),
    ("repro.analysis.perf.analyzer", "run_tests", "interp.run_tests", _steps),
    ("repro.testing.functional", "run_tests", "interp.run_tests", _steps),
    ("repro.repair.engine", "RepairEngine.suggest", "repair.suggest", None),
    ("repro.repair.engine", "rank_candidates", "repair.rank", None),
    ("repro.repair.engine", "align_graphs", "repair.align", None),
    ("repro.repair.engine", "variable_mapping", "repair.edits", None),
    ("repro.repair.engine", "edit_script", "repair.edits", None),
    ("repro.repair.engine", "repaired_source", "repair.edits", None),
    ("repro.repair.engine", "run_tests_on_source", "repair.verify", None),
    ("repro.cluster.grader", "ClusterGrader.grade", "cluster.grade", None),
    ("repro.cluster.grader", "fingerprint_source", "cluster.fingerprint", None),
    ("repro.cluster.grader", "specialize", "cluster.specialize", None),
    ("repro.core.storage", "ResultStore.get", "storage.get", _lookup),
    ("repro.core.storage", "ResultStore.get_cluster", "storage.get", _lookup),
    ("repro.core.storage", "ResultStore.put", "storage.put", None),
    ("repro.core.storage", "ResultStore.put_cluster", "storage.put", None),
)

#: The benchmark's own HTTP client: one request, send to parsed reply.
#: Wrapped only in the load-generator process, by its own ledger.
CLIENT_TARGETS = (("workloads", "send", "serve.request", None),)


def install(ledger: Ledger, client: bool = False) -> Callable[[], None]:
    """Patch the program's :data:`TARGETS`, or with ``client`` the
    :data:`CLIENT_TARGETS`.

    Returns the function that undoes the patching.
    """
    if not client:
        from repro.instrumentation import active_collector

        ledger.remote = active_collector
    undo: list[tuple[Any, str, Any]] = []
    for module_name, path, span, measure in CLIENT_TARGETS if client else TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, ledger.wrap(span, original, measure))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
