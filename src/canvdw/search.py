"""Exhaustive search for the least interval length with no witness-free
colouring.

Two engines compute the same quantity.  The pruned engine walks the tree of
canonical colouring prefixes depth first, cutting a branch the moment the
freshly coloured position completes a witness; the naive engine enumerates
every canonical colouring of every length and checks each one from scratch.
The naive engine exists to cross-check the pruned one and shares none of its
pruning logic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from operator import itemgetter

from .coloring import TypedColouring, restricted_growth_strings
from .polynomial import PolynomialFamily
from .witness import (
    D_POLICIES,
    KIND_MONO,
    POLICY_NONZERO,
    admitted_steps,
    find_witness,
    verify_certificate,
    witness_scanner,
)

NAIVE_ENUMERATION_CAP = 2_000_000


class EnumerationCapExceeded(RuntimeError):
    """A search stopped at its budget before it could answer: the naive
    engine's enumeration cap, or the node budget of an extremal search."""


@dataclass(frozen=True)
class SearchConfig:
    """Everything a search run depends on.

    self_check re-verifies every prune against the full witness scanner,
    which must find a witness whose certificate verifies; it never changes
    results.  A config checks itself when built, raising ValueError.
    """

    mono_family: PolynomialFamily | None
    rainbow_family: PolynomialFamily | None = None
    h: int = 0
    d_policy: str = POLICY_NONZERO
    max_classes: int | None = None
    n_start: int = 1
    n_limit: int = 12
    node_budget: int | None = None
    self_check: bool = False

    def __post_init__(self):
        if self.d_policy not in D_POLICIES:
            raise ValueError(f"unknown d policy {self.d_policy!r}")
        if self.n_start < 1 or self.n_limit < self.n_start:
            raise ValueError(f"need 1 <= n_start <= n_limit, got {self.n_start}..{self.n_limit}")
        if self.max_classes is not None and self.max_classes < 1:
            raise ValueError(f"max_classes must be positive, got {self.max_classes}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if self.h < 0:
            raise ValueError(f"h must be non-negative, got {self.h}")
        no_mono = self.mono_family is None or not self.mono_family.polys
        no_rain = self.rainbow_family is None or not self.rainbow_family.polys
        if no_mono and no_rain:
            raise ValueError("at least one family must be non-empty")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one engine run.

    canonical_number is None when no length in range was conclusive: the
    length range or the node budget ran out.  witness_free_per_length counts
    witness-free canonical colourings per length.  The pruned engine's tuple
    starts at length 1 and runs to n_limit; it is empty exactly when the
    node budget ran out.  The naive engine's starts at n_start and ends at
    the first length with none, or at n_limit.
    """

    canonical_number: int | None
    extremal_count_at_nminus1: int
    nodes_expanded: int
    wall_time: float
    witness_free_per_length: tuple[int, ...]
    engine: str


def _self_check(cfg: SearchConfig, colouring: TypedColouring) -> None:
    # The full scanner must certify a witness inside a colouring that an
    # engine found one in, and the certificate must verify.
    cert = find_witness(colouring, cfg.mono_family, cfg.rainbow_family, cfg.h, cfg.d_policy)
    if cert is None:
        raise AssertionError(f"colouring {colouring.coordinate(1)} has no witness inside itself")
    verdict = verify_certificate(colouring, cert)
    if not verdict.ok:
        raise AssertionError(f"certificate for {colouring.coordinate(1)} failed: {verdict.reason}")


def _run_tree(
    cfg: SearchConfig, depth_cap: int, keep: float = 0
) -> tuple[list[int] | None, int, list[tuple[int, ...]]]:
    """Walk the witness-free prefix tree to depth_cap.

    The walk is depth first with children in label order, so complete
    colourings appear in lexicographic canonical order.  It keeps its
    position in per-depth stacks rather than on the call stack, so depth
    is not limited by recursion.

    A probe is a witness whose largest element is the newest position, as
    the bitmask of its other elements' distances back from that position.
    Its shape is the same at every depth, so the walk builds one probe set,
    from the step scan's slots at depth_cap.  Position i is bit
    depth_cap-1 - i of masks[c] while it has class c, so at depth t,
    mv = masks[v] >> (depth_cap-1 - t) has bit k set iff the position k
    back has label v, and no bit past t.  Child label v completes a mono
    probe pm iff mv & pm == pm: a probe reaching before position 0 has a
    bit mv lacks, and an empty pm, from a zero member, repeated members or
    d = 0, always blocks.  On entering a depth the walk keeps only the
    rainbow probes that fit and whose earlier positions carry pairwise
    distinct labels, once per parent; v completes one of those iff
    mv & pm == 0.  Returns (per-depth counts or None if the budget ran
    out, nodes expanded, the first keep complete colourings in
    lexicographic order).  The walk stops once it has kept keep of them.
    """
    # Probes de-duplicated in step-scan order; equal positions at one depth
    # are equal distances.  A rainbow probe keeps a picker of the labels at
    # its distances, after the -1 of the unset newest position.
    mono: dict[int, None] = {}
    rain: dict[int, itemgetter] = {}
    steps = admitted_steps(cfg.mono_family, cfg.rainbow_family, depth_cap, cfg.h, cfg.d_policy)
    for _, step in steps:
        for kind, offsets, _, _ in step:
            dists = {max(offsets) - off for off in offsets} - {0}
            mask = sum(1 << k for k in dists)
            if kind == KIND_MONO:
                mono[mask] = None
            else:
                rain[mask] = itemgetter(0, *dists)
    mono_t = tuple(mono)
    # Admitted rainbow steps never repeat an offset, so a rainbow probe's
    # picks are pairwise distinct iff they number `distinct`.
    distinct = len(cfg.rainbow_family.polys) + 1 if rain else 0

    # A prefix using `full` classes may not open a fresh one (-1: no cap).
    full = -1 if cfg.max_classes is None else cfg.max_classes
    budget = math.inf if cfg.node_budget is None else cfg.node_budget
    self_check = cfg.self_check
    counts = [0] * (depth_cap + 1)
    counts[0] = 1
    collected: list[tuple[int, ...]] = []
    # labels[:depth] is the current prefix, using used[depth] classes;
    # labels[depth] is the last label tried at position depth.  live[depth]
    # holds the masks of the rainbow probes still open at that depth.
    labels = [-1] * depth_cap
    used = [0] * depth_cap
    masks = [0] * depth_cap
    live: list[list[int]] = [[]] * depth_cap
    rain_t = live[0]
    top = depth_cap - 1
    nodes = 0
    depth = 0
    while True:
        v = labels[depth] + 1
        u = used[depth]
        if v > u or v == u == full:
            if depth == 0:
                break
            depth -= 1
            masks[labels[depth]] ^= 1 << (top - depth)
            rain_t = live[depth]
            continue
        labels[depth] = v
        nodes += 1
        if nodes > budget:
            return None, nodes, []
        mv = masks[v] >> (top - depth)
        blocked = False
        for pm in mono_t:
            if mv & pm == pm:
                blocked = True
                break
        if not blocked:
            for pm in rain_t:
                if not mv & pm:
                    blocked = True
                    break
        if blocked:
            if self_check:
                _self_check(cfg, TypedColouring.single(labels[: depth + 1]))
            continue
        counts[depth + 1] += 1
        if depth + 1 == depth_cap:
            if keep:
                collected.append(tuple(labels))
                if len(collected) == keep:
                    break
            continue
        masks[v] |= 1 << (top - depth)
        depth += 1
        labels[depth] = -1
        used[depth] = u + 1 if v == u else u
        if rain:
            back = labels[depth::-1]
            fits = 2 << depth
            rain_t = live[depth] = [
                pm for pm, pick in rain.items() if pm < fits and len(set(pick(back))) == distinct
            ]
    return counts, nodes, collected


def canonical_number(cfg: SearchConfig) -> SearchResult:
    """Least length in [n_start, n_limit] all of whose canonical colourings
    contain a witness, found by pruned depth-first search.

    A branch is cut as soon as the newly coloured position completes a
    witness, since every extension keeps that witness.  Witness-free
    colourings of length t are exactly the surviving prefixes of length t,
    so one tree walk settles every length at once.
    """
    t0 = time.perf_counter()
    counts, nodes, _ = _run_tree(cfg, cfg.n_limit)
    wall = time.perf_counter() - t0
    if counts is None:
        return SearchResult(None, 0, nodes, wall, (), "pruned")
    found = None
    for length in range(cfg.n_start, cfg.n_limit + 1):
        if counts[length] == 0:
            found = length
            break
    per_length = tuple(counts[1:])
    if found is None:
        return SearchResult(None, counts[cfg.n_limit], nodes, wall, per_length, "pruned")
    return SearchResult(found, counts[found - 1], nodes, wall, per_length, "pruned")


def extremal_colourings(cfg: SearchConfig, length: int, limit: int | None = None) -> list[TypedColouring]:
    """Witness-free canonical colourings of the given length in
    lexicographic order, up to limit.  Raises EnumerationCapExceeded if the
    walk runs out of node budget first, since its list would be partial."""
    if not 1 <= length <= cfg.n_limit:
        raise ValueError(f"length {length} outside 1..{cfg.n_limit}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    counts, _, collected = _run_tree(cfg, length, math.inf if limit is None else limit)
    if counts is None:
        raise EnumerationCapExceeded(f"search exceeded its node budget of {cfg.node_budget}")
    return [TypedColouring.single(labels) for labels in collected]


def naive_canonical_number(cfg: SearchConfig) -> SearchResult:
    """Independent oracle for canonical_number by brute force.

    Enumerates every canonical colouring of every length, as its
    restricted-growth string, and runs the full witness scanner on each; no
    pruning, no sharing of work between lengths.
    Refuses to enumerate more than node_budget colourings (or a built-in cap
    when no budget is set).
    """
    t0 = time.perf_counter()
    cap = cfg.node_budget if cfg.node_budget is not None else NAIVE_ENUMERATION_CAP
    examined = 0

    def witness_free_count(length: int) -> int:
        nonlocal examined
        free = 0
        scan = witness_scanner(cfg.mono_family, cfg.rainbow_family, length, cfg.h, cfg.d_policy)
        self_check = cfg.self_check
        for labels in restricted_growth_strings(length, cfg.max_classes):
            examined += 1
            if examined > cap:
                raise EnumerationCapExceeded(
                    f"naive engine exceeded its enumeration cap of {cap}"
                )
            if scan(labels) is None:
                free += 1
            elif self_check:
                _self_check(cfg, TypedColouring.single(labels))
        return free

    prev = 1 if cfg.n_start == 1 else witness_free_count(cfg.n_start - 1)
    per_length: list[int] = []
    for length in range(cfg.n_start, cfg.n_limit + 1):
        free = witness_free_count(length)
        per_length.append(free)
        if free == 0:
            wall = time.perf_counter() - t0
            return SearchResult(length, prev, examined, wall, tuple(per_length), "naive")
        prev = free
    wall = time.perf_counter() - t0
    return SearchResult(None, prev, examined, wall, tuple(per_length), "naive")


def run_report(cfg: SearchConfig, result: SearchResult, timing: bool = False) -> str:
    """Machine-readable run report.

    Echoes the semantic configuration only; self checks never change
    results and are omitted, so a report is byte-identical with and without
    them.  Wall time is left out unless timing is asked for, so that repeat
    runs give identical bytes.
    """
    def fam(f: PolynomialFamily | None):
        return None if f is None else f.coeff_lists()

    obj: dict = {
        "config": {
            "mono": fam(cfg.mono_family),
            "rainbow": fam(cfg.rainbow_family),
            "h": cfg.h,
            "d_policy": cfg.d_policy,
            "max_classes": cfg.max_classes,
            "n_start": cfg.n_start,
            "n_limit": cfg.n_limit,
            "node_budget": cfg.node_budget,
        },
        "engine": result.engine,
        "canonical_number": result.canonical_number,
        "extremal_count": result.extremal_count_at_nminus1,
        "witness_free_per_length": list(result.witness_free_per_length),
        "nodes_expanded": result.nodes_expanded,
        "exhausted": result.canonical_number is None,
    }
    if timing:
        obj["wall_time"] = result.wall_time
    return json.dumps(obj, indent=2) + "\n"

