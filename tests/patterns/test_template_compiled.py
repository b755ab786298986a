"""Differential tests for bind-once template regexes.

``ExprTemplate.matches`` compiles one regex per distinct binding of the
template's variables and looks it up by the bound identifiers.  That
cache must be invisible: for every exact and approximate template of the
knowledge base, under seeded random bindings, a cached answer equals a
fresh render-and-search, including after the per-template table fills
and is emptied.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from functools import lru_cache
from itertools import islice, permutations

import pytest

from repro.errors import PatternDefinitionError
from repro.java import parse_submission
from repro.kb import all_patterns, get_assignment
from repro.kb.registry import all_assignment_names
from repro.patterns.groups import PatternGroup
from repro.patterns.model import ContainmentConstraint
from repro.patterns.template import _BINDINGS_PER_TEMPLATE, ExprTemplate, _compile
from repro.pdg.builder import extract_all_epdgs


def _patterns_of(assignment):
    for method in assignment.expected_methods:
        for entry, _count in method.patterns:
            if isinstance(entry, PatternGroup):
                yield from (variant.pattern for variant in entry.variants)
            else:
                yield entry


@lru_cache(maxsize=None)
def _templates() -> tuple[ExprTemplate, ...]:
    """Every exact, approximate and containment template, each once."""
    found: dict[int, ExprTemplate] = {}
    patterns = list(all_patterns().values())
    for name in all_assignment_names():
        assignment = get_assignment(name)
        patterns.extend(_patterns_of(assignment))
        for method in assignment.expected_methods:
            for constraint in method.constraints:
                if isinstance(constraint, ContainmentConstraint):
                    found[id(constraint.expr)] = constraint.expr
    for pattern in patterns:
        for node in pattern.nodes:
            for template in (node.expr, node.approx):
                if template is not None:
                    found[id(template)] = template
    return tuple(t for t in found.values() if t.source)


@lru_cache(maxsize=None)
def _nodes() -> tuple[tuple[str, frozenset[str]], ...]:
    """``(content, variables)`` of every reference-solution graph node."""
    nodes = []
    for name in all_assignment_names():
        assignment = get_assignment(name)
        unit = parse_submission(assignment.reference_solutions[0])
        for graph in extract_all_epdgs(
            unit, assignment.synthesize_else_conditions
        ).values():
            nodes.extend((node.content, node.variables) for node in graph.nodes)
    return tuple(nodes)


@lru_cache(maxsize=None)
def _contents() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Node contents of every reference solution, and their variables."""
    variables: set[str] = set()
    for _, node_variables in _nodes():
        variables |= node_variables
    return tuple(content for content, _ in _nodes()), tuple(sorted(variables))


def _witness(template: ExprTemplate) -> tuple[tuple[str, ...], str] | None:
    """A binding (in sorted variable order) and a node content it matches."""
    names = sorted(template.variables)
    for content, variables in _nodes():
        for key in islice(permutations(sorted(variables), len(names)), 24):
            gamma = dict(zip(names, key))
            if _compile(template.render(gamma)).search(content):
                return key, content
    return None


def _rename(content: str, old: tuple[str, ...], new: tuple[str, ...]) -> str:
    mapping = dict(zip(old, new))
    return re.sub(
        r"[A-Za-z_$][A-Za-z0-9_$]*",
        lambda match: mapping.get(match.group(0), match.group(0)),
        content,
    )


def _identifier_pool() -> list[str]:
    _, variables = _contents()
    dollars = ["$", "$tmp", "a$", "x$1", "$$", "sum$"]
    generated = [f"v{i}" for i in range(_BINDINGS_PER_TEMPLATE + 16)]
    return list(variables) + dollars + generated


def test_cached_matches_equal_a_fresh_render():
    rng = random.Random(1301)
    contents, _ = _contents()
    pool = _identifier_pool()
    templates = _templates()
    assert len(templates) > 100
    assert any(len(t.variables) >= 2 for t in templates)
    matched = evicted = 0
    for template in templates:
        names = sorted(template.variables)
        witness = _witness(template)
        # distinct bindings, more than the table holds when there are
        # variables to bind
        wanted = _BINDINGS_PER_TEMPLATE + 8 if names else 1
        keys: dict[tuple[str, ...], None] = {}
        while len(keys) < wanted:
            keys[tuple(rng.sample(pool, len(names)))] = None
        for key in keys:
            gamma = dict(zip(names, key))
            # γ carries bindings the template does not mention, as the
            # matcher passes it whole
            gamma["unrelated"] = rng.choice(pool)
            sample = rng.sample(contents, 3)
            if witness is not None:
                # the witness content with its identifiers renamed to
                # this binding's: a likely match under this binding only
                sample.append(_rename(witness[1], witness[0], key))
            for content in sample:
                # twice: the first call may fill the table, the second hits
                for _attempt in range(2):
                    cached = template.matches(content, gamma)
                    fresh = _compile(template.render(gamma)).search(content)
                    assert cached == (fresh is not None), (
                        template.source, gamma, content
                    )
                matched += cached
            assert len(template._bound) <= _BINDINGS_PER_TEMPLATE
        evicted += len(keys) > _BINDINGS_PER_TEMPLATE
    # the comparison is not vacuous: many bindings match, and some
    # templates saw more bindings than their table holds
    assert matched > 1000
    assert evicted > 10


def test_matches_on_real_bindings_from_reference_graphs():
    # bindings taken from the reference solutions' own variables match
    # their node contents; cached and fresh agree on every pair
    rng = random.Random(7)
    contents, variables = _contents()
    hits = 0
    for template in _templates():
        names = sorted(template.variables)
        if len(names) > len(variables):
            continue
        for _ in range(6):
            gamma = dict(zip(names, rng.sample(variables, len(names))))
            for content in contents:
                cached = template.matches(content, gamma)
                fresh = _compile(template.render(gamma)).search(content)
                assert cached == (fresh is not None)
                hits += cached
    assert hits > 20


def test_unbound_variable_still_raises():
    for template in _templates():
        names = sorted(template.variables)
        if not names:
            continue
        gamma = {name: f"id{i}" for i, name in enumerate(names)}
        template.matches("id0 = 0", gamma)  # fills the table
        del gamma[names[-1]]
        with pytest.raises(PatternDefinitionError, match="is unbound"):
            template.matches("id0 = 0", gamma)


def test_table_is_per_template():
    # two templates with one variable bound to the same identifier keep
    # separate regexes
    first = ExprTemplate(r"x = 0", frozenset({"x"}))
    second = ExprTemplate(r"x \+= 1", frozenset({"x"}))
    assert first.matches("i = 0", {"x": "i"})
    assert not second.matches("i = 0", {"x": "i"})
    assert second.matches("i += 1", {"x": "i"})
    assert not first.matches("i += 1", {"x": "i"})


def test_shared_table_under_threads():
    # thread-mode grading shares one template across workers: with more
    # bindings than the table holds, clears race with lookups and inserts
    template = ExprTemplate(r"x \+= s\[y\]", frozenset({"x", "s", "y"}))
    bindings = [
        {"x": f"t{i}", "s": f"a{i % 7}", "y": f"i{i % 5}"} for i in range(200)
    ]
    wrong: list[tuple[str, str]] = []

    def worker(offset: int) -> None:
        for step in range(600):
            gamma = bindings[(offset + step * 7) % len(bindings)]
            hit = f"{gamma['x']} += {gamma['s']}[{gamma['y']}]"
            miss = f"{gamma['x']} += {gamma['s']}[k]"
            if not template.matches(hit, gamma) or template.matches(miss, gamma):
                wrong.append((hit, miss))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i * 31,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(template._bound) <= _BINDINGS_PER_TEMPLATE
