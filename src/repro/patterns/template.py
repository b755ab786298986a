"""Incomplete Java expression templates (Definition 6).

A template is a regular expression over *canonical* node content in which
the pattern's variables appear as bare identifiers.  Matching a template
against a graph node's content under a variable mapping γ (``r ⪯_γ c``)
substitutes each variable with its bound submission identifier and then
searches the node content — templates are *incomplete*, so a substring
match suffices, exactly as in the paper.

Authoring rules:

* the template body is a Python regular expression, so literal
  metacharacters must be escaped (``s\\[x\\]``, ``x \\+= 1``);
* declared variables are written as bare identifiers and are replaced with
  the γ-bound name (with identifier-boundary guards, so variable ``x``
  never matches inside ``max``);
* a single space matches any run of whitespace, letting one template match
  both canonical and hand-written spacing.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter

from repro.errors import PatternDefinitionError

# identifiers *in templates* never contain `$` (it is the regex
# end-anchor there); submission identifiers may, which the boundary
# lookarounds below account for
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BOUNDARY_BEFORE = r"(?<![A-Za-z0-9_$])"
_BOUNDARY_AFTER = r"(?![A-Za-z0-9_$])"

#: Bound regexes kept per template; a full table is emptied (a single
#: atomic step, safe under thread-mode grading) and refilled.  A cold
#: cohort of 3000 submissions binds at most 32 distinct identifier tuples
#: to one template, so the cap only bounds memory under identifier churn.
_BINDINGS_PER_TEMPLATE = 64


def _no_names(gamma: dict[str, str]) -> tuple[()]:
    return ()


class ExprTemplate:
    """A compiled incomplete-expression template.

    Parameters
    ----------
    source:
        The regex template text, e.g. ``x <= s\\.length``.
    variables:
        The declared variable names appearing in ``source``.  Identifiers
        not listed here are matched literally (``length``, ``System``...).
    """

    def __init__(self, source: str, variables: frozenset[str] | set[str]):
        self.source = source
        self.variables = frozenset(variables)
        self._segments = self._split(source)
        mentioned = {seg for kind, seg in self._segments if kind == "var"}
        missing = self.variables - mentioned
        # A variable declared but never mentioned is almost always a typo
        # in the knowledge base; fail fast at definition time.
        if missing and source:
            raise PatternDefinitionError(
                f"template {source!r} never mentions variables {sorted(missing)}"
            )
        # The variable order is fixed here, once: ``matches`` keys its
        # bound regexes by the identifiers γ gives these names, in order
        # (a bare string for one name, as ``itemgetter`` returns it).
        names = tuple(
            dict.fromkeys(seg for kind, seg in self._segments if kind == "var")
        )
        self._binding_key = itemgetter(*names) if names else _no_names
        self._bound: dict[object, re.Pattern[str]] = {}

    def _split(self, source: str) -> list[tuple[str, str]]:
        """Split the template into literal-regex and variable segments."""
        segments: list[tuple[str, str]] = []
        position = 0
        for match in _IDENTIFIER.finditer(source):
            name = match.group(0)
            if name not in self.variables:
                continue
            # an identifier preceded by a backslash is regex syntax
            # (\b, \s ...), never a variable
            if match.start() > 0 and source[match.start() - 1] == "\\":
                continue
            if match.start() > position:
                segments.append(("lit", source[position:match.start()]))
            segments.append(("var", name))
            position = match.end()
        if position < len(source):
            segments.append(("lit", source[position:]))
        return segments

    def mentioned_variables(self) -> frozenset[str]:
        """Variables that actually occur in the template text."""
        return frozenset(seg for kind, seg in self._segments if kind == "var")

    def render(self, gamma: dict[str, str]) -> str:
        """Build the concrete regex for a (complete) binding γ."""
        parts: list[str] = []
        for kind, segment in self._segments:
            if kind == "var":
                if segment not in gamma:
                    raise PatternDefinitionError(
                        f"variable {segment!r} of template {self.source!r} "
                        "is unbound"
                    )
                parts.append(
                    _BOUNDARY_BEFORE + re.escape(gamma[segment]) + _BOUNDARY_AFTER
                )
            else:
                parts.append(segment.replace(" ", r"\s*"))
        return "".join(parts)

    def matches(self, content: str, gamma: dict[str, str]) -> bool:
        """Test ``self ⪯_γ content`` (substring semantics).

        ``gamma`` may bind more names than the template mentions.  The
        regex for a binding is rendered and compiled once, then looked
        up by the bound identifiers alone.
        """
        if not self.source:
            return True
        try:
            key = self._binding_key(gamma)
        except KeyError:
            self.render(gamma)  # raises the unbound-variable error
            raise
        regex = self._bound.get(key)
        if regex is None:
            regex = _compile(self.render(gamma))
            if len(self._bound) >= _BINDINGS_PER_TEMPLATE:
                self._bound.clear()
            self._bound[key] = regex
        return regex.search(content) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExprTemplate({self.source!r}, vars={sorted(self.variables)})"


@lru_cache(maxsize=4096)
def _compile(pattern: str) -> re.Pattern[str]:
    try:
        return re.compile(pattern)
    except re.error as error:
        raise PatternDefinitionError(
            f"invalid expression template regex {pattern!r}: {error}"
        ) from None


def render_feedback(template: str, gamma: dict[str, str]) -> str:
    """Instantiate a natural-language feedback template with γ.

    Feedback text references pattern variables in braces — ``"{x} should
    be initialized to 0"`` — which are substituted with the matched
    submission identifiers.  Unbound references are left verbatim so
    partial matches still produce readable feedback.
    """
    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        return gamma.get(name, "{" + name + "}")

    return re.sub(r"\{([A-Za-z_$][A-Za-z0-9_$]*)\}", substitute, template)
