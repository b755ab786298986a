"""Seeded inputs for the three workloads.

Every cohort is a pure function of its seed: the same seed gives the
same submissions in the same order (checked through :func:`digest`).
The program only ever receives the generated sources.

Cohorts are *stratified*: each group (an assignment, or a seeded-slow
or fast perf family) is spread evenly over the whole sequence, so every
stretch of a run grades the same mix and a host slowdown in one stretch
meets the same work as in any other.  A cohort holds only the items a
run grades, so it adds little to the measuring process's peak RSS.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, TypeVar

T = TypeVar("T")

#: Synth samples per assignment reserved for warm-up; never in a cohort.
WARMUP_PER_ASSIGNMENT = 4
WARMUP_SEED = 1_000_003

#: An assignment's synth group in ``repair_perf`` against one perf
#: family's: each of the six perf families is a fifth of an assignment's
#: share (about 9% of the cohort together).
PERF_FAMILY_WEIGHT = 0.2

#: Resubmission stream: the share of resubmissions that are alpha-renamed
#: rewrites rather than verbatim resends.  No data in the repository
#: splits the two, so each replay route (memory cache for resends,
#: cluster specialization for rewrites) carries half of them.
VARIANT_SHARE = 0.5

#: Variant numbers are fixed-width over ``ab``: at most 256 per source.
VARIANT_WIDTH = 8


@dataclass(frozen=True)
class Submission:
    label: str
    assignment: str
    source: str
    #: ``synth`` (error-model sample), ``slow`` / ``fast`` (perf
    #: families), or for the stream ``new`` / ``duplicate`` / ``variant``.
    kind: str


def derive_seed(seed: int, *parts: object) -> int:
    """A stable sub-seed for one group of one cohort."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def digest(cohort: Iterable[Submission]) -> str:
    """Content digest of a cohort, order included."""
    hasher = hashlib.sha256()
    for item in cohort:
        for field in (item.label, item.assignment, item.kind, item.source):
            hasher.update(field.encode())
            hasher.update(b"\0")
    return hasher.hexdigest()


def stratify(groups: dict[str, list[T]], rng: random.Random) -> list[T]:
    """Interleave ``groups`` so every prefix holds each in proportion.

    Item ``k`` of a group of ``n`` sits at position ``(k + u) / n`` with
    one random offset ``u`` per group; sorting all positions spreads
    every group evenly over the sequence.
    """
    keyed = []
    for name in sorted(groups):
        items = groups[name]
        offset = rng.random()
        for k, item in enumerate(items):
            keyed.append(((k + offset) / len(items), name, k, item))
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


def warmup_sources(assignment) -> list[str]:
    """Fixed warm-up inputs: the references plus a few seeded samples."""
    from repro.synth.generator import sample_indices

    space = assignment.space()
    picked = sample_indices(space, WARMUP_PER_ASSIGNMENT + 1, seed=WARMUP_SEED)
    sources = list(assignment.reference_solutions)
    sources.extend(space.submission(index).source for index in picked)
    return list(dict.fromkeys(sources))


def _shares(count: int, capacity: dict[str, int]) -> dict[str, int]:
    """Split ``count`` evenly over groups, as far as each one's capacity allows.

    A group that cannot fill its share takes all it has and the rest is
    spread over the others, so the groups still add up to ``count``.
    """
    sizes: dict[str, int] = {}
    open_groups = sorted(capacity)
    left = count
    while open_groups:
        share = math.ceil(left / len(open_groups))
        short = [name for name in open_groups if capacity[name] < share]
        if not short:
            sizes.update({name: share for name in open_groups})
            break
        for name in short:
            sizes[name] = capacity[name]
            left -= capacity[name]
            open_groups.remove(name)
    return sizes


def synth_group(
    assignment, count: int, seed: int, exclude: set[str]
) -> list[Submission]:
    """Up to ``count`` distinct error-model samples, seeded and shuffled."""
    from repro.synth.generator import sample_indices

    space = assignment.space()
    indices = sample_indices(space, count + len(exclude), seed=derive_seed(seed, assignment.name))
    rng = random.Random(derive_seed(seed, assignment.name, "order"))
    rng.shuffle(indices)
    out: list[Submission] = []
    seen = set(exclude)
    for index in indices:
        source = space.submission(index).source
        if source in seen:
            continue
        seen.add(source)
        out.append(Submission(f"{assignment.name}#{index}", assignment.name, source, "synth"))
        if len(out) == count:
            break
    return out


def _synth_capacity(assignment) -> int:
    """Distinct samples an assignment can give a cohort (at most)."""
    return assignment.space().size - len(warmup_sources(assignment))


def _letters(value: int, width: int) -> str:
    """``value`` in fixed-width base 2 over ``ab``: sorts like the number."""
    return "".join("ab"[(value >> shift) & 1] for shift in reversed(range(width)))


@functools.lru_cache(maxsize=None)
def _audit(name: str):
    from repro.cluster.audit import audit_assignment
    from repro.kb import get_assignment

    return audit_assignment(get_assignment(name))


def alpha_variant(assignment, source: str, number: int) -> str:
    """Order-preserving alpha-renamed variant ``number`` of ``source``.

    Built as ``benchmarks/bench_cluster.py``'s ``build_cohort`` builds
    its cohort: every renameable spelling becomes ``q<variant>_<slot>``,
    slots in sorted-spelling order and both halves fixed-width, so the
    renaming keeps the sorted order of the identifier set and all
    variants of one source share a cluster fingerprint.  A source with
    nothing renameable gets a trailing ``// variant`` comment instead,
    which changes its text but not its tokens.
    """
    from repro.cluster.fingerprint import fingerprint_source
    from repro.cluster.specialize import rename_submission

    if not 0 <= number < 1 << VARIANT_WIDTH:
        raise ValueError("variant number out of range")
    sprint = fingerprint_source(source, _audit(assignment.name))
    if sprint is None or not sprint.replay_safe:
        raise ValueError(f"{assignment.name}: source cannot be alpha-renamed")
    names = sorted(sprint.spellings)
    if not names:
        return f"{source.rstrip()}\n// variant {number}\n"
    slot_width = max(1, (max(len(names) - 1, 1)).bit_length())
    prefix = "q" + _letters(number, VARIANT_WIDTH)
    renaming = {name: f"{prefix}_{_letters(slot, slot_width)}" for slot, name in enumerate(names)}
    return rename_submission(source, renaming)


def _synth_groups(count: int, seed: int) -> dict[str, list[Submission]]:
    """Each assignment's synth group, ``count`` samples over all of them."""
    from repro.kb import all_assignment_names, get_assignment

    assignments = [get_assignment(name) for name in all_assignment_names()]
    sizes = _shares(count, {a.name: _synth_capacity(a) for a in assignments})
    return {a.name: synth_group(a, sizes[a.name], seed, set(warmup_sources(a)))
            for a in assignments}


def cold_cohort(seed: int, count: int) -> list[Submission]:
    """``cold_grade``: ``count`` distinct synth samples from all twelve assignments."""
    groups = _synth_groups(count, seed)
    return stratify(groups, random.Random(derive_seed(seed, "cold")))[:count]


def perf_family(assignment, slow: bool, first: int, count: int) -> list[Submission]:
    """Alpha-variants ``first .. first+count-1`` of a seeded-slow or fast program."""
    from repro.synth.perf_models import sample_fast_cohort, sample_slow_cohort

    sample = sample_slow_cohort if slow else sample_fast_cohort
    base = sample(assignment.name, 1)[0]
    kind = "slow" if slow else "fast"
    return [
        Submission(f"{assignment.name}#{kind}{number}", assignment.name,
                   alpha_variant(assignment, base.source, number), kind)
        for number in range(first, first + count)
    ]


def repair_cohort(seed: int, count: int) -> list[Submission]:
    """``repair_perf``: ``count`` synth samples and seeded-slow and fast programs.

    Perf families are alpha-variants (distinct sources, identical loop
    structure) of the perf-model slow and fast programs; the variant
    numbers start at a seeded offset, so seeds select different ones.
    """
    from repro.kb import all_assignment_names, get_assignment
    from repro.synth.perf_models import PERF_SPACES

    names = all_assignment_names()
    families = 2 * len(PERF_SPACES)
    family = math.ceil(count * PERF_FAMILY_WEIGHT / (len(names) + families * PERF_FAMILY_WEIGHT))
    start = derive_seed(seed, "perf") % 64
    if start + family > 1 << VARIANT_WIDTH:
        raise ValueError(f"repair_perf: {count} submissions need more perf variants than exist")
    groups = _synth_groups(count - families * family, seed)
    for name in sorted(PERF_SPACES):
        for slow in (True, False):
            groups[f"{name}:{'slow' if slow else 'fast'}"] = perf_family(
                get_assignment(name), slow, start, family)
    return stratify(groups, random.Random(derive_seed(seed, "repair")))[:count]


def repeat_share() -> float:
    """The share of MOOC submissions that resubmit an earlier one.

    The repository's one documented MOOC shape: the default
    ``duplicate_fraction`` of :func:`repro.core.campaign.synthetic_stream`.
    """
    import inspect

    from repro.core.campaign import synthetic_stream

    return inspect.signature(synthetic_stream).parameters["duplicate_fraction"].default


def resubmission_stream(seed: int, length: int) -> list[Submission]:
    """``serve_resubmit``: a duplicate-heavy MOOC resubmission stream.

    :func:`repro.core.campaign.synthetic_stream`'s model, interleaved:
    requests go to all twelve assignments in equal, stratified shares.
    Each is a student's first submission (the next unseen synth sample)
    with probability ``1 - repeat_share()``; otherwise it resubmits an
    earlier one of the same assignment, as a fresh order-preserving
    alpha-renamed variant with probability :data:`VARIANT_SHARE`, else
    verbatim.  ``synthetic_stream`` sends every distinct source first;
    here first submissions and resubmissions are drawn throughout, so
    the mix is stationary and every prefix has the same repeat ratio.
    """
    from repro.kb import all_assignment_names, get_assignment

    names = all_assignment_names()
    p_new = 1 - repeat_share()
    p_variant = p_new + (1 - p_new) * VARIANT_SHARE
    rng = random.Random(derive_seed(seed, "stream"))
    per_assignment = -(-length // len(names))
    order = stratify({name: [name] * per_assignment for name in names}, rng)[:length]
    pools = {}
    for name in names:
        assignment = get_assignment(name)
        pools[name] = synth_group(assignment, int(1.5 * per_assignment * p_new) + 16,
                                  seed, set(warmup_sources(assignment)))
    seen: dict[str, list[int]] = {name: [] for name in names}
    variants: dict[tuple[str, int], int] = {}
    stream: list[Submission] = []
    for position, name in enumerate(order):
        pool = pools[name]
        draw = rng.random()
        if not seen[name] or (draw < p_new and len(seen[name]) < len(pool)):
            index = len(seen[name])
            seen[name].append(index)
            stream.append(Submission(f"r{position}", name, pool[index].source, "new"))
            continue
        index = seen[name][rng.randrange(len(seen[name]))]
        source = pool[index].source
        used = variants.get((name, index), 0)
        if draw < p_variant and used < 1 << VARIANT_WIDTH:
            variants[(name, index)] = used + 1
            source = alpha_variant(get_assignment(name), source, used)
            stream.append(Submission(f"r{position}", name, source, "variant"))
        else:
            stream.append(Submission(f"r{position}", name, source, "duplicate"))
    return stream
