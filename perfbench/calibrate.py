"""A frozen CPU kernel that gauges how fast the host runs Python right now.

The benchmark shares a small host with other tenants, whose load
changes the speed of *all* Python code by tens of percent within
minutes.  To keep that out of the end-to-end figures, the timed loops
interleave short runs of this kernel with the work they measure (a
:class:`Gauge`) and divide their times by the gauge's slowdown: the
figures are expressed at the reference host speed.

The kernel is self-contained and never changes with the program: it
lexes, parses and walks generated expression code, and backtracks a
small graph match, so it leans on the same interpreter paths grading
does (regex scanning, small-object allocation, dict and set traffic,
recursion).  A change to the program therefore moves the scaled
figures exactly as much as the raw ones; a change of host speed moves
the kernel too and cancels out.
"""

from __future__ import annotations

import bisect
import random
import re
import statistics
import time

#: Kernel seconds on a quiet core of the reference host (a 2-vCPU
#: x86-64 VM under CPython 3.11).  Scaled figures are expressed at the
#: speed at which one kernel run takes this long.
REFERENCE_SECONDS = 0.0025

#: Seconds between kernel samples inside a timed loop.
SAMPLE_INTERVAL = 0.1

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


class _Node:
    __slots__ = ("op", "kids", "name", "value")

    def __init__(self, op, kids=(), name=None, value=0):
        self.op = op
        self.kids = kids
        self.name = name
        self.value = value


def _program(rng: random.Random, statements: int) -> str:
    names = [f"v{i}" for i in range(8)]
    lines = []
    for _ in range(statements):
        target = rng.choice(names)
        terms = [rng.choice(names + [str(rng.randrange(1, 9))]) for _ in range(4)]
        ops = [rng.choice("+-*") for _ in range(3)]
        expr = terms[0] + "".join(f" {op} ({term} + 1)" for op, term in zip(ops, terms[1:]))
        lines.append(f"{target} = {expr} ;")
    return "\n".join(lines)


class _Parser:
    def __init__(self, text: str):
        self.tokens = [m.group(1) or m.group(2) or m.group(3)
                       for m in _TOKEN.finditer(text) if m.group(0).strip()]
        self.at = 0

    def next(self) -> str:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def statement(self) -> _Node:
        name = self.next()
        self.next()  # =
        expr = self.sum()
        self.next()  # ;
        return _Node("=", (expr,), name=name)

    def sum(self) -> _Node:
        left = self.atom()
        while self.at < len(self.tokens) and self.tokens[self.at] in "+-*":
            op = self.next()
            left = _Node(op, (left, self.atom()))
        return left

    def atom(self) -> _Node:
        token = self.next()
        if token == "(":
            inner = self.sum()
            self.next()  # )
            return inner
        if token.isdigit():
            return _Node("n", value=int(token))
        return _Node("v", name=token)


def _uses(node: _Node, out: set[str]) -> set[str]:
    if node.op == "v":
        out.add(node.name)
    for kid in node.kids:
        _uses(kid, out)
    return out


def _match(graph: dict[int, set[int]], pattern: list[tuple[int, int]], size: int) -> int:
    """Count injective embeddings of a path pattern by backtracking."""
    found = 0
    binding: dict[int, int] = {}

    def extend(depth: int) -> None:
        nonlocal found
        if depth == size:
            found += 1
            return
        for node in graph:
            if node in binding.values():
                continue
            if all(binding[a] in graph.get(node, ()) or node in graph.get(binding[a], ())
                   for a, b in pattern if b == depth and a in binding):
                binding[depth] = node
                extend(depth + 1)
                del binding[depth]

    extend(0)
    return found


_TEXT = _program(random.Random(20170419), 60)


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    parser = _Parser(_TEXT)
    statements = []
    while parser.at < len(parser.tokens):
        statements.append(parser.statement())
    last_def: dict[str, int] = {}
    graph: dict[int, set[int]] = {}
    for index, statement in enumerate(statements):
        graph[index] = {last_def[name] for name in _uses(statement, set()) if name in last_def}
        last_def[statement.name] = index
    sub = {k: v & set(range(12)) for k, v in graph.items() if k < 12}
    return len(statements) + _match(sub, [(0, 1), (1, 2)], 3)


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Gauge:
    """Kernel timings interleaved with a measurement.

    :meth:`due` says when the next sample is owed (one per
    :data:`SAMPLE_INTERVAL` of measuring); :meth:`sample` takes it and
    books the pause, which the caller leaves out of what it measures.

    A *slowdown* is mean kernel time over :data:`REFERENCE_SECONDS`:
    1.0 on the reference host at rest, above 1 when the host runs
    slower.  Other tenants' load comes and goes within a run, so
    measured times are scaled by the slowdown around the moment they
    were taken (:meth:`slowdown_at`, the mean of the nearest
    :data:`WINDOW` samples on each side) rather than by one figure for
    the whole run.
    """

    #: Samples on each side of a moment that make its local slowdown.
    WINDOW = 3

    def __init__(self) -> None:
        kernel()  # compile the regex and warm the code paths
        self.samples: list[float] = []
        #: when each sample was taken
        self.times: list[float] = []
        #: ``(start, end)`` of each pause for sampling
        self.pauses: list[tuple[float, float]] = []
        #: total seconds spent sampling
        self.paused = 0.0
        self._next = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def sample(self, runs: int = 1) -> None:
        started = time.perf_counter()
        for _ in range(runs):
            self.times.append(time.perf_counter())
            self.samples.append(time_kernel())
        now = time.perf_counter()
        self.pauses.append((started, now))
        self.paused += now - started
        self._next = now + SAMPLE_INTERVAL

    @property
    def slowdown(self) -> float:
        """The mean slowdown over every sample."""
        if not self.samples:
            raise ValueError("the gauge took no samples")
        return statistics.fmean(self.samples) / REFERENCE_SECONDS

    def slowdown_at(self, moment: float) -> float:
        """The slowdown around ``moment``."""
        if not self.samples:
            raise ValueError("the gauge took no samples")
        index = bisect.bisect(self.times, moment)
        window = self.samples[max(0, index - self.WINDOW):index + self.WINDOW]
        return statistics.fmean(window) / REFERENCE_SECONDS

    def scaled_busy(self) -> float:
        """Seconds between the first and last pause, at reference speed.

        Each stretch between two pauses is divided by the slowdown at
        its midpoint.  The measurement must begin and end with a sample.
        """
        total = 0.0
        for (_, end), (start, _) in zip(self.pauses, self.pauses[1:]):
            total += (start - end) / self.slowdown_at((start + end) / 2)
        return total
