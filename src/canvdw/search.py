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
import time
from dataclasses import dataclass

from .coloring import TypedColouring, enumerate_colourings
from .polynomial import PolynomialFamily
from .witness import (
    D_POLICIES,
    KIND_MONO,
    POLICY_NONZERO,
    find_witness,
    scan_plan,
    verify_certificate,
)

NAIVE_ENUMERATION_CAP = 2_000_000


class EnumerationCapExceeded(RuntimeError):
    """The naive engine refused to enumerate past its hard cap."""


@dataclass(frozen=True)
class SearchConfig:
    """Everything a search run depends on.

    self_check re-verifies every prune against the full witness scanner and
    round-trips every witness through its certificate; it never changes
    results.
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

    def validate(self) -> None:
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

    canonical_number is None when no length in range was conclusive;
    exhausted marks that case (length range or node budget ran out).
    witness_free_per_length[i] counts witness-free canonical colourings of
    length i+1, up to the last fully explored length.
    """

    canonical_number: int | None
    extremal_count_at_nminus1: int
    nodes_expanded: int
    wall_time: float
    exhausted: bool
    witness_free_per_length: tuple[int, ...]
    engine: str


class _Tally:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = budget


class _BudgetExhausted(Exception):
    pass


class _CollectorFull(Exception):
    pass


class _Collector:
    __slots__ = ("items", "limit")

    def __init__(self, limit: int | None):
        self.items: list[tuple[int, ...]] = []
        self.limit = limit

    def add(self, item: tuple[int, ...]) -> None:
        self.items.append(item)
        if self.limit is not None and len(self.items) >= self.limit:
            raise _CollectorFull


def _position_plans(
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None,
    depth_cap: int,
    h: int,
    d_policy: str,
) -> tuple[tuple[tuple[bool, tuple[int, ...]], ...], ...]:
    # plans[t] lists the probes completed by colouring position t+1: every
    # witness lying inside [t+1] whose largest element is t+1, once each, as
    # (is_mono, zero-based element indices), mono probes first and each
    # family's probes in scan order.
    plans: list[dict[tuple[bool, tuple[int, ...]], None]] = [{} for _ in range(depth_cap)]
    for kind, _, _, elems in scan_plan(mono_family, rainbow_family, depth_cap, h, d_policy):
        plans[max(elems) - 1][(kind == KIND_MONO, tuple(e - 1 for e in elems))] = None
    return tuple(tuple(sorted(p, key=lambda probe: not probe[0])) for p in plans)


def _blocked(labels: list[int], probes) -> bool:
    # Does the newly coloured position complete a witness inside the prefix?
    for is_mono, idx in probes:
        first = labels[idx[0]]
        if is_mono:
            for i in idx[1:]:
                if labels[i] != first:
                    break
            else:
                return True
        else:
            seen = {first}
            clash = False
            for i in idx[1:]:
                lab = labels[i]
                if lab in seen:
                    clash = True
                    break
                seen.add(lab)
            if not clash:
                return True
    return False


class _CheckCtx:
    __slots__ = ("mono_family", "rainbow_family", "h", "d_policy")

    def __init__(self, cfg: SearchConfig):
        self.mono_family = cfg.mono_family
        self.rainbow_family = cfg.rainbow_family
        self.h = cfg.h
        self.d_policy = cfg.d_policy

    def assert_pruned_prefix_has_witness(self, labels: list[int]) -> None:
        truncated = TypedColouring.single(tuple(labels))
        cert = find_witness(
            truncated, self.mono_family, self.rainbow_family, self.h, self.d_policy
        )
        if cert is None:
            raise AssertionError(
                f"pruned prefix {tuple(labels)} has no witness inside itself"
            )
        verdict = verify_certificate(truncated, cert)
        if not verdict.ok:
            raise AssertionError(
                f"certificate for pruned prefix {tuple(labels)} failed: {verdict.reason}"
            )


def _explore(
    labels: list[int],
    used: int,
    counts: list[int],
    plans,
    depth_cap: int,
    max_classes: int | None,
    tally: _Tally,
    check_ctx: _CheckCtx | None,
    collector: _Collector | None,
) -> None:
    # Depth-first walk of witness-free prefixes, children in label order so
    # complete colourings appear in lexicographic canonical order.
    depth = len(labels)
    counts[depth] += 1
    if depth == depth_cap:
        if collector is not None:
            collector.add(tuple(labels))
        return
    probes = plans[depth]
    cap = used + 1 if (max_classes is None or used < max_classes) else used
    for v in range(cap):
        labels.append(v)
        tally.nodes += 1
        if tally.budget is not None and tally.nodes > tally.budget:
            labels.pop()
            raise _BudgetExhausted
        if _blocked(labels, probes):
            if check_ctx is not None:
                check_ctx.assert_pruned_prefix_has_witness(labels)
        else:
            _explore(
                labels,
                used + 1 if v == used else used,
                counts,
                plans,
                depth_cap,
                max_classes,
                tally,
                check_ctx,
                collector,
            )
        labels.pop()


def _run_tree(
    cfg: SearchConfig, depth_cap: int, collect_limit: int | None = None, collect: bool = False
) -> tuple[list[int] | None, int, list[tuple[int, ...]]]:
    """Walk the witness-free prefix tree to depth_cap.

    Returns (per-depth counts or None if the budget ran out, nodes expanded,
    collected complete colourings in lexicographic order).
    """
    plans = _position_plans(
        cfg.mono_family, cfg.rainbow_family, depth_cap, cfg.h, cfg.d_policy
    )
    counts = [0] * (depth_cap + 1)
    tally = _Tally(cfg.node_budget)
    check_ctx = _CheckCtx(cfg) if cfg.self_check else None
    collector = _Collector(collect_limit) if collect else None
    try:
        _explore(
            [], 0, counts, plans, depth_cap, cfg.max_classes, tally, check_ctx, collector
        )
    except _BudgetExhausted:
        return None, tally.nodes, []
    except _CollectorFull:
        pass
    return counts, tally.nodes, collector.items if collector is not None else []


def canonical_number(cfg: SearchConfig) -> SearchResult:
    """Least length in [n_start, n_limit] all of whose canonical colourings
    contain a witness, found by pruned depth-first search.

    A branch is cut as soon as the newly coloured position completes a
    witness, since every extension keeps that witness.  Witness-free
    colourings of length t are exactly the surviving prefixes of length t,
    so one tree walk settles every length at once.
    """
    cfg.validate()
    t0 = time.perf_counter()
    counts, nodes, _ = _run_tree(cfg, cfg.n_limit)
    wall = time.perf_counter() - t0
    if counts is None:
        return SearchResult(None, 0, nodes, wall, True, (), "pruned")
    found = None
    for length in range(cfg.n_start, cfg.n_limit + 1):
        if counts[length] == 0:
            found = length
            break
    per_length = tuple(counts[1:])
    if found is None:
        return SearchResult(None, counts[cfg.n_limit], nodes, wall, True, per_length, "pruned")
    return SearchResult(found, counts[found - 1], nodes, wall, False, per_length, "pruned")


def extremal_colourings(cfg: SearchConfig, length: int, limit: int | None = None) -> list[TypedColouring]:
    """Witness-free canonical colourings of the given length in
    lexicographic order, up to limit."""
    cfg.validate()
    if not 1 <= length <= cfg.n_limit:
        raise ValueError(f"length {length} outside 1..{cfg.n_limit}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    _, _, collected = _run_tree(cfg, length, collect_limit=limit, collect=True)
    return [TypedColouring.single(labels) for labels in collected]


def naive_canonical_number(cfg: SearchConfig) -> SearchResult:
    """Independent oracle for canonical_number by brute force.

    Enumerates every canonical colouring of every length and runs the full
    witness scanner on each; no pruning, no sharing of work between lengths.
    Refuses to enumerate more than node_budget colourings (or a built-in cap
    when no budget is set).
    """
    cfg.validate()
    t0 = time.perf_counter()
    cap = cfg.node_budget if cfg.node_budget is not None else NAIVE_ENUMERATION_CAP
    examined = 0

    def witness_free_count(length: int) -> int:
        nonlocal examined
        free = 0
        for col in enumerate_colourings(length, cfg.max_classes):
            examined += 1
            if examined > cap:
                raise EnumerationCapExceeded(
                    f"naive engine exceeded its enumeration cap of {cap}"
                )
            cert = find_witness(
                col, cfg.mono_family, cfg.rainbow_family, cfg.h, cfg.d_policy
            )
            if cert is None:
                free += 1
            elif cfg.self_check:
                verdict = verify_certificate(col, cert)
                if not verdict.ok:
                    raise AssertionError(
                        f"witness certificate failed re-check: {verdict.reason}"
                    )
        return free

    prev = 1 if cfg.n_start == 1 else witness_free_count(cfg.n_start - 1)
    per_length: list[int] = []
    for length in range(cfg.n_start, cfg.n_limit + 1):
        free = witness_free_count(length)
        per_length.append(free)
        if free == 0:
            wall = time.perf_counter() - t0
            return SearchResult(
                length, prev, examined, wall, False, tuple(per_length), "naive"
            )
        prev = free
    wall = time.perf_counter() - t0
    return SearchResult(None, prev, examined, wall, True, tuple(per_length), "naive")


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
        "exhausted": result.exhausted,
    }
    if timing:
        obj["wall_time"] = result.wall_time
    return json.dumps(obj, indent=2) + "\n"

