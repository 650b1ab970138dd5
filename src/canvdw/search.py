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
import sys
import time
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .coloring import TypedColouring, restricted_growth_strings
from .polynomial import PolynomialFamily
from .witness import (
    D_POLICIES,
    KIND_MONO,
    POLICY_NONZERO,
    admitted_steps,
    find_witness,
    is_monochromatic,
    is_rainbow,
    verify_certificate,
    witness_scanner,
)

NAIVE_ENUMERATION_CAP = 2_000_000

# The exact walk tests at most this many prefixes at once (see _run_tree).
BLOCK = 4096
# The exact walk packs its lanes in the byte order memoryview reads.
ORDER = sys.byteorder


class EnumerationCapExceeded(RuntimeError):
    """A search stopped at its budget before it could answer: the naive
    engine's enumeration cap, or the node budget of an extremal search."""


@dataclass(frozen=True)
class SearchConfig:
    """Everything a search run depends on.

    self_check re-verifies every prune against the full witness scanner,
    which must find a witness whose certificate verifies; it never changes
    results.  n_start and n_limit bound only the counting engines, not
    extremal_colourings.  A config checks itself when built, raising
    ValueError; h, n_start and n_limit are exact ints, max_classes and
    node_budget exact ints or None.
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
        optional = ("max_classes", "node_budget")
        for name in ("h", "n_start", "n_limit", *optional):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in optional):
                raise ValueError(f"{name} must be an int, got {value!r}")
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


def _probes(
    cfg: SearchConfig, depth_cap: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """The walks' probes, built once from the step scan's slots at depth_cap.

    A probe is a witness whose largest element is the newest position, as
    the ascending distances of its other elements back from that position.
    Returns the mono and the rainbow probes, each de-duplicated and sorted
    by reach (the largest distance), and the rainbow member count (0
    without a rainbow probe).  Equal positions at one depth are equal
    distances, so a mono probe may have fewer distances than the family
    has members, or none.
    """
    mono: set[tuple[int, ...]] = set()
    rain: set[tuple[int, ...]] = set()
    steps = admitted_steps(cfg.mono_family, cfg.rainbow_family, depth_cap, cfg.h, cfg.d_policy)
    for _, step in steps:
        for kind, offsets, _, _ in step:
            last = max(offsets)
            dists = tuple(sorted({last - off for off in offsets} - {0}))
            (mono if kind == KIND_MONO else rain).add(dists)
    members = len(cfg.rainbow_family.polys) if rain else 0
    return sorted(mono, key=lambda ks: ks[-1:]), sorted(rain, key=lambda ks: ks[-1:]), members


def _run_tree(cfg: SearchConfig) -> tuple[list[int] | None, int]:
    """The exact walk: every witness-free prefix up to length cfg.n_limit.

    Returns (per-length counts, or None if the budget ran out; nodes
    expanded).  It visits every witness-free prefix, so its counts hold
    for every length up to n_limit; _look_ahead_walk answers the
    one-length question instead.

    The walk takes blocks of at most BLOCK witness-free prefixes of one
    length t from an explicit stack, depth first, so depth is not limited
    by recursion.  A block pays a fixed number of big-int operations per
    label and probe, however many rows it holds, while building its
    children's bytes costs the same per child at any size; a larger block
    spreads that fixed work over more rows, but its columns, row sets and
    pending children take more memory.  At 4,096 rows canonical 4-AP to
    length 13 peaks near 2 MiB, against 0.6 MiB at 1,024 and 3 MiB at
    8,192, and runs about a fifth faster than at 1,024.

    A row of a block is one prefix as bytes: a lane holding its class
    count, then one lane per label.  Lanes are the narrowest of 1, 2, 4
    or 8 bytes that keep every label and count below the lane's top bit.
    A column is one lane of every row as an int, and a set of rows is an
    int with the top bit of row r's lane set iff r is in it, so one big-int
    operation tests every row of the block.

    Child label v is tried on the rows using at least v classes, v below
    the cap, and each try is one node.  Label v at position t completes a
    mono probe (see _probes) iff it sits at every position t - k of the
    probe: an AND of per-position "label == v" sets, each a zero-lane test
    of a column XOR v.  An empty probe, from a zero member, repeated
    members or d = 0, blocks the first child, and so every prefix.  In a
    restricted growth string label v first occurs at position v or later,
    so the walk tries only the mono probes reaching no further back than
    that, and none for a label no row has used.  A rainbow probe is open
    on the rows whose labels at its positions are pairwise distinct, and
    then blocks every label but those.  It can block a child only on a row
    with more labels to choose from than the family has members, so the
    walk tries no rainbow probe on a block without such a row.

    The survivors for each v, gathered with itertools.compress, are the
    next length's rows; those of length n_limit are counted, not built.
    Every child of a block is tried before any is kept, so the order of
    blocks changes no count: the walk aborts iff its total passes the
    budget, and then reports budget + 1.  Under self_check every blocked
    child goes to _self_check.
    """
    depth_cap = cfg.n_limit
    # Allocated first, so that a length too large to hold fails at once.
    counts = [0] * (depth_cap + 1)
    counts[0] = 1
    mono, rain, members = _probes(cfg, depth_cap)
    self_check = cfg.self_check
    if () in mono:
        if self_check:
            _self_check(cfg, TypedColouring.single([0]))
        return counts, 1
    mono_reach = [ks[-1] for ks in mono]
    rain_reach = [ks[-1] for ks in rain]
    top = depth_cap - 1
    full = -1 if cfg.max_classes is None else cfg.max_classes
    bound = depth_cap if full < 0 else min(full, depth_cap)
    width, code = next(
        (size, fmt) for size, fmt in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if bound < 1 << 8 * size - 1
    )
    bits = 8 * width
    budget = math.inf if cfg.node_budget is None else cfg.node_budget
    nodes = 0
    stack = [(0, [bytes(width)])]
    while stack:
        t, rows = stack.pop()
        size = len(rows) * width
        ones = ((1 << 8 * size) - 1) // ((1 << bits) - 1)
        high = ones << bits - 1
        low = high - ones
        data = b"".join(rows)
        if width > 1:
            # Slicing bytes is faster, but takes one byte per lane.
            data = memoryview(data).cast(code)
        cols: dict[int, int] = {}

        def column(p: int) -> int:
            # Lane p of every row: lane 0 is the class count, lane 1 + i
            # the label at position i.
            c = cols.get(p)
            if c is None:
                c = cols[p] = int.from_bytes(data[p :: t + 1], ORDER)
            return c

        def equal(p: int) -> int:
            # The rows with label v at position p.
            e = eqs.get(p)
            if e is None:
                e = eqs[p] = high ^ ((column(p + 1) ^ vv) + low & high)
            return e

        def picked(chosen: int) -> Iterator[bytes]:
            return compress(rows, memoryview(chosen.to_bytes(size, ORDER)).cast(code))

        # ge[v]: the rows using at least v classes, up to v = the cap or
        # the first v no row reaches.  Label v is tried on ge[v] below the
        # cap, and ge[v + 1] are the rows that already use it.
        base = column(0) + high
        ge = [high]
        while ge[-1] and len(ge) - 1 != full:
            ge.append(base - len(ge) * ones & high)
        nodes += sum(g.bit_count() for g in ge[:-1])
        if nodes > budget:
            return None, budget + 1
        opens = []
        if len(ge) - 1 > members:
            for ks in rain[: bisect_right(rain_reach, t)]:
                ps = [t - k for k in ks]
                cs = [column(p + 1) for p in ps]
                op = high
                for i, a in enumerate(cs):
                    for b in cs[:i]:
                        op &= (a ^ b) + low
                if op & high:
                    opens.append((ps, op & high))
        kids: list[bytes] = []
        for v in range(len(ge) - 1):
            cand, old = ge[v], ge[v + 1]
            vv = v * ones
            eqs: dict[int, int] = {}
            blocked = 0
            if old:
                for i in range(bisect_right(mono_reach, t - v) - 1, -1, -1):
                    m = old
                    for k in mono[i]:
                        m &= equal(t - k)
                        if not m:
                            break
                    else:
                        blocked |= m
                        if blocked == old:
                            # Every row using v is blocked already.
                            break
            for ps, op in opens:
                has = 0
                if old:
                    for p in ps:
                        if p >= v:
                            has |= equal(p)
                blocked |= op & ~has
            live = cand & ~blocked
            counts[t + 1] += live.bit_count()
            if self_check and live != cand:
                for row in picked(cand ^ live):
                    _self_check(cfg, TypedColouring.single([*memoryview(row).cast(code)[1:], v]))
            if live and t < top:
                vb = v.to_bytes(width, ORDER)
                keep = live & old
                if keep:
                    kids += [row + vb for row in picked(keep)]
                if keep != live:
                    # v is a fresh label here: the class count becomes v + 1.
                    vc = (v + 1).to_bytes(width, ORDER)
                    kids += [vc + row[width:] + vb for row in picked(live ^ keep)]
        for i in range(0, len(kids), BLOCK):
            stack.append((t + 1, kids[i : i + BLOCK]))
    return counts, nodes


def _look_ahead_walk(
    cfg: SearchConfig, depth_cap: int, limit: int | None
) -> tuple[list[tuple[int, ...]] | None, int]:
    """The look-ahead walk: depth first with children in label order, and
    it cuts a prefix as soon as some later position up to depth_cap has no
    label left.  Such a prefix has no witness-free completion, so the
    colourings of length depth_cap are the exact walk's.
    Returns (the first limit of them in lexicographic order, all when
    limit is None, or None if the budget ran out; nodes expanded).  The
    walk stops once it has kept limit of them.

    avail[j] is the set of labels no probe forbids at position j, -1
    (every label) when uncapped and nothing is forbidden.  A probe's
    nearest other element lies low, its least distance, before its
    completing position, so placing v at t settles exactly the probes
    that complete at j = t + low and have every other element at or before
    t.  A mono probe whose other elements all hold v removes v from
    avail[j].  An open rainbow probe ANDs avail[j] with the OR of its
    labels, which removes every fresh label too, unless the cap is at most
    the member count: then those labels are every label, and the walk
    tries no rainbow probe.  Uncapped, mono removals alone never empty
    avail[j], since its fresh labels stay; a rainbow probe can.  A
    placement that changes avail first saves the span of it that the
    probes reach, and restores it when the label is undone.  A probe can
    settle nothing before the walk is as deep as its reach less its least
    distance, so the walk keeps only the probes within twice the deepest
    depth it has placed at: a walk that dies early costs memory with the
    depth it reaches, not with the square of depth_cap.

    A node is a label placed at a position; a label avail already rules
    out there is never tried and is no node.  The leaves below a node at
    depth depth_cap-1 are the labels avail leaves at the last position,
    counted at their parent one node each, so the walk stops on a budget
    or on the limit-th colouring where a visit in label order would.  Under
    self_check, every label the walk rules out without placing it, and
    every label of a position it empties, is confirmed by _check_cut.
    """
    full = -1 if cfg.max_classes is None else cfg.max_classes
    # Allocated first, so that a length too large to hold fails at once.
    avail = [-1 if full < 0 else (1 << full) - 1] * depth_cap
    mono_t, rain_t, members = _probes(cfg, depth_cap)
    top = depth_cap - 1
    budget = math.inf if cfg.node_budget is None else cfg.node_budget
    self_check = cfg.self_check
    if () in mono_t:
        # An empty mono probe forbids every label at every position.
        if self_check:
            _check_cut(mono_t, rain_t, [], 0, [0])
        return [], 0
    if top == 0:
        return [(0,)], 1
    mono_lo, rain_lo = sorted(mono_t), sorted(rain_t)
    wide = -1
    rain_cuts = members > 0 and not 0 < full <= members
    kept: list[tuple[int, ...]] = []
    # labels[:depth] is the current prefix; used[depth] the classes it uses,
    # cands[depth] the labels still to place at depth, and saved[depth] the
    # span of avail as it was before the placement at depth changed it, or
    # () if that placement changed nothing.
    labels = [0] * depth_cap
    used = [0] * depth_cap
    cands = [0] * depth_cap
    saved: list = [()] * depth_cap
    masks = [0] * depth_cap
    bits = [0] * depth_cap
    cands[0] = 1
    nodes = 0
    depth = 0
    while True:
        c = cands[depth]
        if not c:
            if depth == 0:
                break
            depth -= 1
            masks[labels[depth]] ^= 1 << (top - depth)
            sv = saved[depth]
            avail[depth + 1 : depth + 1 + len(sv)] = sv
            continue
        b = c & -c
        cands[depth] = c ^ b
        v = b.bit_length() - 1
        nodes += 1
        if nodes > budget:
            return None, nodes
        if depth > wide:
            # Keep the probes that look back, from their nearest other
            # element, at most twice the depth; a mono probe's mask has bit
            # k - low for each distance k.
            wide = 2 * depth
            mono_fw = [(ks[0], sum(1 << k - ks[0] for k in ks)) for ks in mono_lo if ks[-1] - ks[0] <= wide]
            rain_fw = [(ks[0], ks[-1] - ks[0], ks) for ks in rain_lo if ks[-1] - ks[0] <= wide]
            reach = max((probe[0] for probe in mono_fw + rain_fw), default=0)
        labels[depth] = v
        bits[depth] = b
        s = top - depth
        mv = masks[v] = masks[v] | 1 << s
        # Bit i of m: position depth - i holds v.
        m = mv >> s
        sv = ()
        cut = -1
        for low, pm in mono_fw:
            if low > s:
                break
            if m & pm == pm:
                j = depth + low
                a = avail[j]
                if a >> v & 1:
                    if not sv:
                        sv = avail[depth + 1 : depth + 1 + reach]
                    avail[j] = a = a ^ b
                    if not a:
                        cut = j
                        break
        if cut < 0 and rain_cuts:
            for low, back, ks in rain_fw:
                if low > s:
                    break
                if back > depth:
                    continue
                j = depth + low
                seen = 0
                for k in ks:
                    seen |= bits[j - k]
                if seen.bit_count() == members:
                    a = avail[j]
                    if a & ~seen:
                        if not sv:
                            sv = avail[depth + 1 : depth + 1 + reach]
                        avail[j] = a = a & seen
                        if not a:
                            cut = j
                            break
        u = used[depth]
        if v == u:
            u += 1
        lim = u if u == full else u + 1
        if cut >= 0:
            if self_check:
                _check_cut(mono_t, rain_t, labels[: depth + 1], cut, range(lim))
            masks[v] = mv ^ 1 << s
            avail[depth + 1 : depth + 1 + len(sv)] = sv
            continue
        free = avail[depth + 1] & ((1 << lim) - 1)
        if self_check:
            ruled_out = [w for w in range(lim) if not free >> w & 1]
            _check_cut(mono_t, rain_t, labels[: depth + 1], depth + 1, ruled_out)
        if depth + 1 < top:
            saved[depth] = sv
            depth += 1
            used[depth] = u
            cands[depth] = free
            continue
        # The children are leaves: keep them here.
        for w in range(lim):
            if free >> w & 1:
                kept.append((*labels[:top], w))
                if len(kept) == limit:
                    free &= (2 << w) - 1
                    break
        nodes += free.bit_count()
        if nodes > budget:
            return None, budget + 1
        if len(kept) == limit:
            break
        masks[v] = mv ^ 1 << s
        avail[depth + 1 : depth + 1 + len(sv)] = sv
    return kept, nodes


def _check_cut(
    mono_t: list[tuple[int, ...]],
    rain_t: list[tuple[int, ...]],
    prefix: list[int],
    j: int,
    ruled_out: range | list[int],
) -> None:
    # The look-ahead walk claims that no label in ruled_out fits at
    # position j (0-based) after prefix.  Name, for each label, a probe
    # that completes at j and has every other element in prefix, and
    # confirm it with the public predicates on the prefix, a gap of label
    # 0 and the label at j.  A label the prefix does not use stands for
    # every fresh label: no probe tells fresh labels apart.
    t = len(prefix)
    base = prefix + [0] * (j - t)
    shapes = [(ks, False) for ks in mono_t] + [(ks, True) for ks in rain_t]
    for w in ruled_out:
        colouring = TypedColouring.single(base + [w])
        for ks, rainbow in shapes:
            if ks and (ks[-1] > j or ks[0] <= j - t):
                continue
            elems = tuple(j + 1 - k for k in [0, *ks])
            if is_rainbow(colouring, elems) if rainbow else is_monochromatic(colouring, elems):
                break
        else:
            raise AssertionError(
                f"look-ahead ruled out label {w} at position {j + 1} after {tuple(prefix)}"
                " with no probe that forbids it"
            )


def canonical_number(cfg: SearchConfig) -> SearchResult:
    """Least length in [n_start, n_limit] all of whose canonical colourings
    contain a witness, found by pruned depth-first search.

    A branch is cut as soon as the newly coloured position completes a
    witness, since every extension keeps that witness.  Witness-free
    colourings of length t are exactly the surviving prefixes of length t,
    so one tree walk settles every length at once.
    """
    t0 = time.perf_counter()
    counts, nodes = _run_tree(cfg)
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
    lexicographic order, up to limit.

    The question is about one length, so this runs the look-ahead walk:
    it cuts every prefix that leaves some position up to length with no
    label, and the node budget counts its nodes, not the exact walk's;
    cfg.n_start and cfg.n_limit play no part.  Raises
    EnumerationCapExceeded if the walk runs out of node budget first,
    since its list would be partial."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    kept, _ = _look_ahead_walk(cfg, length, limit)
    if kept is None:
        raise EnumerationCapExceeded(f"search exceeded its node budget of {cfg.node_budget}")
    return [TypedColouring.single(labels) for labels in kept]


def naive_canonical_number(cfg: SearchConfig) -> SearchResult:
    """Independent oracle for canonical_number by brute force.

    Enumerates every canonical colouring of every length, as its
    restricted-growth string, one prefix of length - 1 at a time.  Each
    string is first tested against the last witness the scanner found at
    that length; when that witness avoids the last position, one test per
    prefix stands for all of the prefix's strings.  Only a miss runs the
    full witness scanner, and a string is witness-free only when that scan
    finds nothing.  Every string is counted; no pruning, no sharing of work
    between lengths.
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
        top = length if cfg.max_classes is None else cfg.max_classes
        # The last witness scan found at this length, as the scanner's own
        # column picker and count of distinct labels; neighbouring strings
        # share all but their last labels, so it mostly hits the next one.
        # While it avoids the last position (and no self check wants each
        # string), one test on the prefix settles every string built on it.
        pick, want, on_prefix = None, 0, False
        for prefix in restricted_growth_strings(length - 1, cfg.max_classes):
            # The prefix's strings end in each of its k possible last labels.
            k = min(max(prefix, default=-1) + 2, top)
            examined += k
            if examined > cap:
                raise EnumerationCapExceeded(
                    f"naive engine exceeded its enumeration cap of {cap}"
                )
            if on_prefix and len(set(pick(prefix))) == want:
                continue
            for v in range(k):
                labels = prefix + (v,)
                if pick is None or len(set(pick(labels))) != want:
                    hit = scan(labels)
                    if hit is None:
                        free += 1
                        continue
                    pick = itemgetter(*(e - 1 for e in hit.elements))
                    want = 1 if hit.kind == KIND_MONO else len(hit.elements)
                    on_prefix = not self_check and max(hit.elements) < length
                if self_check:
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

