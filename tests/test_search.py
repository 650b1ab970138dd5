import hashlib
import json
import random
import time
import tracemalloc
from dataclasses import replace

import pytest

import canvdw.coloring
import canvdw.search
from canvdw.coloring import TypedColouring, restricted_growth_strings
from canvdw.search import (
    EnumerationCapExceeded,
    SearchConfig,
    _look_ahead_walk,
    _run_tree,
    canonical_number,
    extremal_colourings,
    naive_canonical_number,
    run_report,
)
from canvdw.witness import D_POLICIES, VerifyResult, find_witness

from _helpers import bell_sequence, fam, random_rainbow_family, reference_first_witness, reference_walk

LINEAR = SearchConfig(mono_family=fam([1]), rainbow_family=fam([1], role="rainbow"))
W32 = SearchConfig(mono_family=fam([1], [2]), max_classes=2)
AP3 = SearchConfig(mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"))


def test_single_linear_family_both_engines():
    pruned = canonical_number(LINEAR)
    assert pruned.canonical_number == 2
    assert pruned.witness_free_per_length[:2] == (1, 0)
    assert all(v == 0 for v in pruned.witness_free_per_length[1:])
    assert pruned.extremal_count_at_nminus1 == 1
    assert pruned.engine == "pruned"
    assert json.loads(run_report(LINEAR, pruned))["exhausted"] is False
    naive = naive_canonical_number(LINEAR)
    assert naive.canonical_number == 2
    assert naive.witness_free_per_length == (1, 0)
    assert naive.engine == "naive"


def test_three_term_progressions_two_classes():
    pruned = canonical_number(W32)
    assert pruned.canonical_number == 9
    assert pruned.witness_free_per_length == (1, 2, 3, 5, 7, 10, 8, 3, 0, 0, 0, 0)
    assert pruned.extremal_count_at_nminus1 == 3
    naive = naive_canonical_number(W32)
    assert naive.canonical_number == 9
    assert naive.witness_free_per_length == (1, 2, 3, 5, 7, 10, 8, 3, 0)
    assert naive.extremal_count_at_nminus1 == 3


def test_extremal_colourings():
    longest = extremal_colourings(W32, 8)
    strings = [tuple(r[0] for r in c.rows) for c in longest]
    assert strings == [
        (0, 0, 1, 1, 0, 0, 1, 1),
        (0, 1, 0, 1, 1, 0, 1, 0),
        (0, 1, 1, 0, 0, 1, 1, 0),
    ]
    for c in longest:
        assert find_witness(c, W32.mono_family, None, W32.h, W32.d_policy) is None
    assert extremal_colourings(W32, 9) == []
    assert len(extremal_colourings(W32, 8, limit=2)) == 2
    ones = extremal_colourings(LINEAR, 1)
    assert [tuple(r[0] for r in c.rows) for c in ones] == [(0,)]
    assert extremal_colourings(LINEAR, 2) == []
    with pytest.raises(ValueError):
        extremal_colourings(W32, 0)
    # The walk reads neither n_start nor n_limit: a length past n_limit is
    # answered, and the same as under an n_limit that covers it.
    assert extremal_colourings(W32, 99) == [] == extremal_colourings(replace(W32, n_limit=99), 99)
    with pytest.raises(ValueError):
        extremal_colourings(W32, 8, limit=0)
    # A walk cut short by its node budget has no complete list to give; it
    # must not answer [] as if no witness-free colouring existed.
    with pytest.raises(EnumerationCapExceeded, match="node budget of 20"):
        extremal_colourings(replace(W32, node_budget=20), 8)
    with pytest.raises(EnumerationCapExceeded):
        extremal_colourings(replace(W32, node_budget=20), 9)
    assert extremal_colourings(replace(W32, node_budget=10_000), 8) == longest
    # The budget counts the look-ahead walk's nodes: 33 at length 8 and 29
    # at length 9, where the exact walk takes 73 and 79.
    assert extremal_colourings(replace(W32, node_budget=33), 8) == longest
    assert extremal_colourings(replace(W32, node_budget=29), 9) == []
    for length, nodes in ((8, 33), (9, 29)):
        with pytest.raises(EnumerationCapExceeded, match=f"node budget of {nodes - 1}"):
            extremal_colourings(replace(W32, node_budget=nodes - 1), length)


def test_quadratic_families():
    squares = SearchConfig(
        mono_family=fam([0, 1]), rainbow_family=fam([0, 1], role="rainbow")
    )
    assert canonical_number(squares).canonical_number == 2
    mixed = SearchConfig(
        mono_family=fam([1], [0, 1]), rainbow_family=fam([1], [0, 1], role="rainbow")
    )
    result = canonical_number(mixed)
    assert result.canonical_number == 5
    assert result.witness_free_per_length[:5] == (1, 1, 1, 1, 0)


def test_engines_agree_on_a_small_grid():
    for mono in (fam([1]), fam([1], [2])):
        rainbow = fam(*mono.coeff_lists(), role="rainbow")
        for policy in ("nonzero", "positive"):
            for mc in (None, 2):
                cfg = SearchConfig(
                    mono_family=mono,
                    rainbow_family=rainbow,
                    d_policy=policy,
                    max_classes=mc,
                    n_limit=9,
                )
                a = canonical_number(cfg)
                b = naive_canonical_number(cfg)
                assert a.canonical_number == b.canonical_number, cfg
                k = len(b.witness_free_per_length)
                assert a.witness_free_per_length[:k] == b.witness_free_per_length, cfg
                assert a.extremal_count_at_nminus1 == b.extremal_count_at_nminus1, cfg


def test_n_start_skips_short_lengths():
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, n_start=3, n_limit=10)
    res = canonical_number(cfg)
    assert res.canonical_number == 9
    # the tree walk passes through the short layers anyway and reports them
    assert res.witness_free_per_length == (1, 2, 3, 5, 7, 10, 8, 3, 0, 0)
    naive = naive_canonical_number(cfg)
    assert naive.canonical_number == 9
    assert naive.witness_free_per_length == (3, 5, 7, 10, 8, 3, 0)
    # the layer below n_start still feeds the extremal count
    assert res.extremal_count_at_nminus1 == naive.extremal_count_at_nminus1 == 3


def test_naive_engine_scans_each_length_through_one_scanner(monkeypatch):
    # One scanner per length examined, and one more for the layer below
    # n_start that feeds the extremal count; never one per colouring.
    # The scan counts of W(3;2) and canonical 3-AP are pinned: testing the
    # last witness once per prefix must scan exactly the strings that a
    # test per string scans.
    lengths = []
    scans = []
    scanner = canvdw.search.witness_scanner

    def counting_scanner(mono, rainbow, length, h, d_policy):
        lengths.append(length)
        scan = scanner(mono, rainbow, length, h, d_policy)

        def counted(labels):
            scans.append(labels)
            return scan(labels)

        return counted

    monkeypatch.setattr(canvdw.search, "witness_scanner", counting_scanner)
    for cfg, expected, scanned in (
        (W32, list(range(1, 10)), 142),
        (AP3, list(range(1, 10)), 432),
        (replace(W32, n_start=4), [3] + list(range(4, 10)), None),
        (replace(W32, n_start=4, n_limit=7), [3, 4, 5, 6, 7], None),
        (replace(LINEAR, self_check=True), [1, 2], None),
    ):
        lengths.clear()
        scans.clear()
        res = naive_canonical_number(cfg)
        assert lengths == expected
        assert res.nodes_expanded > len(lengths)
        if scanned is not None:
            assert len(scans) == scanned


def test_budget_aborts_pruned_engine():
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, node_budget=10)
    res = canonical_number(cfg)
    assert res.canonical_number is None
    assert json.loads(run_report(cfg, res))["exhausted"] is True
    assert res.nodes_expanded == 11  # the walk stops on the first node past the budget
    assert res.witness_free_per_length == ()
    # Canonical 3-AP to length 5 takes 36 nodes, the last of them a leaf its
    # parent counts rather than visits; a budget of 35 runs out there.
    ap3 = SearchConfig(
        mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"), n_limit=5
    )
    assert canonical_number(replace(ap3, node_budget=36)).nodes_expanded == 36
    res = canonical_number(replace(ap3, node_budget=35))
    assert (res.nodes_expanded, res.witness_free_per_length) == (36, ())


def test_budget_caps_naive_engine():
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, node_budget=10)
    with pytest.raises(EnumerationCapExceeded):
        naive_canonical_number(cfg)
    # A budget of exactly the strings examined answers; one less raises.
    for base, examined in ((W32, 511), (AP3, 26_442)):
        res = naive_canonical_number(replace(base, node_budget=examined))
        assert (res.canonical_number, res.nodes_expanded) == (9, examined)
        with pytest.raises(EnumerationCapExceeded):
            naive_canonical_number(replace(base, node_budget=examined - 1))


def test_self_check_modes():
    for cfg in (LINEAR, W32):
        checked = SearchConfig(
            mono_family=cfg.mono_family,
            rainbow_family=cfg.rainbow_family,
            max_classes=cfg.max_classes,
            self_check=True,
        )
        assert canonical_number(checked).canonical_number == canonical_number(cfg).canonical_number
        assert naive_canonical_number(checked).canonical_number == canonical_number(cfg).canonical_number


def test_self_check_catches_a_lying_scanner_or_verifier(monkeypatch):
    # Both engines route every colouring with a witness through one self
    # check; a scanner that finds nothing there, or a verifier that rejects
    # the certificate, must stop the run.
    checked = replace(W32, self_check=True)
    engines = (canonical_number, naive_canonical_number)
    with monkeypatch.context() as patch:
        patch.setattr(canvdw.search, "find_witness", lambda *args: None)
        for engine in engines:
            with pytest.raises(AssertionError, match="has no witness inside itself"):
                engine(checked)
        # Without self_check neither engine consults it.
        assert [engine(W32).canonical_number for engine in engines] == [9, 9]
    with monkeypatch.context() as patch:
        patch.setattr(
            canvdw.search, "verify_certificate", lambda col, cert: VerifyResult(False, "lied")
        )
        for engine in engines:
            with pytest.raises(AssertionError, match="failed: lied"):
                engine(checked)


def test_naive_engine_certifies_only_under_self_check(monkeypatch):
    serialized = []
    found = []
    verified = []
    serialize = canvdw.coloring.serialize
    find = canvdw.search.find_witness
    verify = canvdw.search.verify_certificate

    def counting_serialize(colouring):
        serialized.append(colouring)
        return serialize(colouring)

    def counting_find(colouring, *args):
        found.append(colouring)
        return find(colouring, *args)

    def counting_verify(colouring, cert):
        verified.append(colouring)
        return verify(colouring, cert)

    monkeypatch.setattr(canvdw.coloring, "serialize", counting_serialize)
    monkeypatch.setattr(canvdw.search, "find_witness", counting_find)
    monkeypatch.setattr(canvdw.search, "verify_certificate", counting_verify)
    ap3 = SearchConfig(
        mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"), n_limit=8
    )
    for cfg in (LINEAR, W32, ap3):
        serialized.clear()
        found.clear()
        verified.clear()
        res = naive_canonical_number(cfg)
        assert serialized == [] and found == [] and verified == []
        checked = naive_canonical_number(replace(cfg, self_check=True))
        assert checked == replace(res, wall_time=checked.wall_time)
        # One certified colouring per string that has a witness, whether the
        # last witness found hit it or the scan did.
        with_witness = res.nodes_expanded - sum(res.witness_free_per_length)
        assert len(found) == len(verified) == len(set(verified)) == with_witness > 0
        assert len(serialized) == with_witness


def _plain_naive(cfg):
    # The naive engine's count written out with no plan and no hint: each
    # restricted-growth string is judged by reference_first_witness.
    examined = 0

    def free(length):
        nonlocal examined
        strings = list(restricted_growth_strings(length, cfg.max_classes))
        examined += len(strings)
        return sum(
            reference_first_witness(
                TypedColouring.single(s), cfg.mono_family, cfg.rainbow_family, cfg.h, cfg.d_policy
            ) is None
            for s in strings
        )

    prev = 1 if cfg.n_start == 1 else free(cfg.n_start - 1)
    per_length = []
    for length in range(cfg.n_start, cfg.n_limit + 1):
        per_length.append(free(length))
        if per_length[-1] == 0:
            return length, prev, examined, tuple(per_length)
        prev = per_length[-1]
    return None, prev, examined, tuple(per_length)


def test_naive_engine_matches_a_plain_count_on_random_families():
    # Seeded random families, mono with zero and repeated members, both
    # kinds with negative coefficients, under every policy, h and class
    # cap, some from lengths past 1.
    rng = random.Random(20201019)
    pool = ([], [1], [1], [2], [3], [-1], [-2], [0, 1], [1, -2], [-1, 0, 1])
    caps = (None, 1, 2, 3)
    numbers = set()
    for trial in range(96):
        members = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            members.append(rng.choice(([], rng.choice(members), rng.choice(members))))
        rainbow = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2)
        shape = rng.randrange(3)
        n_limit = rng.randint(4, 7)
        cfg = SearchConfig(
            mono_family=None if shape == 2 else fam(*members),
            rainbow_family=None if shape == 1 else rainbow,
            h=trial % 3,
            d_policy=D_POLICIES[trial % len(D_POLICIES)],
            max_classes=caps[trial // 4 % len(caps)],
            n_start=rng.randint(2, n_limit) if trial % 2 else 1,
            n_limit=n_limit,
        )
        res = naive_canonical_number(cfg)
        got = (
            res.canonical_number,
            res.extremal_count_at_nminus1,
            res.nodes_expanded,
            res.witness_free_per_length,
        )
        assert got == _plain_naive(cfg), cfg
        numbers.add(res.canonical_number)
        # The budget is spent string by string, also where one test covers
        # a whole prefix: exactly the strings examined answers, one less
        # raises (when one less is a budget at all).
        budget = res.nodes_expanded
        same = naive_canonical_number(replace(cfg, node_budget=budget))
        assert (
            same.canonical_number,
            same.extremal_count_at_nminus1,
            same.nodes_expanded,
            same.witness_free_per_length,
        ) == got, cfg
        if budget > 1:
            with pytest.raises(EnumerationCapExceeded):
                naive_canonical_number(replace(cfg, node_budget=budget - 1))
    assert None in numbers and len(numbers) > 3


def _rgs_counts(upto, cap):
    # Restricted-growth strings of each length 0..upto with at most cap
    # classes: sums of Stirling numbers of the second kind, Bell numbers
    # without a cap.  stirling[k] holds S(n, k) for the current n.
    counts = [1]
    stirling = [1]
    for n in range(1, upto + 1):
        stirling = [0] + [k * (stirling[k] if k < n else 0) + stirling[k - 1] for k in range(1, n + 1)]
        counts.append(sum(stirling[: (cap or n) + 1]))
    return counts


def test_naive_engine_counts_a_whole_length_by_its_completion_table():
    # The zero polynomial's first witness is {1, 1}, which every string
    # holds, so each length is one scan and one lookup in the completion
    # table: the run examines every string at L - 1 and at L and answers L.
    for cap in (None, 1, 2, 3):
        counts = _rgs_counts(12, cap)
        for length in range(1, 13):
            cfg = SearchConfig(mono_family=fam([]), max_classes=cap, n_start=length, n_limit=length)
            below = counts[length - 1] if length > 1 else 0
            if below + counts[length] > 2_000_000:
                assert (cap, length) == (None, 12)
                with pytest.raises(EnumerationCapExceeded, match="cap of 2000000$"):
                    naive_canonical_number(cfg)
                continue
            res = naive_canonical_number(cfg)
            assert (res.canonical_number, res.witness_free_per_length) == (length, (0,))
            assert res.nodes_expanded == below + counts[length], (cap, length)
    assert _rgs_counts(12, None) == bell_sequence(12)
    five = SearchConfig(mono_family=fam([]), n_start=5, n_limit=5)
    assert naive_canonical_number(five).nodes_expanded == 67


def test_naive_engine_at_a_long_length_reaches_its_cap_at_once():
    # Every string of {x^3} at length L - 1 shares its first two labels
    # with one that holds {1, 2}, so the first table lookup passes the cap.
    # The table's counts stop at the cap and its rows stop once they
    # repeat, so it holds no triangle of counts, big or clipped.  Each
    # second run finds its two scan plans cached and traces only the walk
    # and its table.
    for length in (300, 1000):
        cfg = SearchConfig(mono_family=fam([0, 0, 1]), n_start=length, n_limit=length)
        t0 = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded, match="cap of 2000000$"):
            naive_canonical_number(cfg)
        assert time.perf_counter() - t0 < 1.0
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded, match="cap of 2000000$"):
                naive_canonical_number(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, length


def test_unfound_number_is_reported_as_exhausted():
    cfg = SearchConfig(
        mono_family=fam([1], [2]), max_classes=2, n_limit=5
    )
    res = canonical_number(cfg)
    assert res.canonical_number is None
    assert json.loads(run_report(cfg, res))["exhausted"] is True
    assert res.witness_free_per_length == (1, 2, 3, 5, 7)
    # with nothing found the count reported is the deepest layer's
    assert res.extremal_count_at_nminus1 == 7
    # one class and a rainbow-only family: nothing is ever pruned, so the
    # walk goes one node per position far past the recursion limit
    deep = SearchConfig(
        mono_family=None, rainbow_family=fam([0, 1], role="rainbow"), max_classes=1, n_limit=1200
    )
    res = canonical_number(deep)
    assert res.canonical_number is None
    assert json.loads(run_report(deep, res))["exhausted"] is True
    assert res.nodes_expanded == 1200
    assert res.witness_free_per_length == (1,) * 1200


def test_search_cost_does_not_grow_with_n_limit():
    # W(3;2) dies at depth 9.  The walk builds one probe set for every
    # depth, each probe as wide as its reach back, so an n_limit far past
    # the answer costs only the total width of those masks.
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, n_limit=1000)
    tracemalloc.start()
    try:
        res = canonical_number(cfg)
        found = extremal_colourings(cfg, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.canonical_number, res.nodes_expanded) == (9, 79)
    assert found == []
    assert peak < 1 << 20


def test_deep_walk_memory_is_linear_in_depth():
    # One class leaves every rainbow probe dead, so the walk goes down a
    # single path to n_limit.  Its probes are the same at every depth, so
    # memory grows with n_limit, not with its square.
    cfg = SearchConfig(mono_family=None, rainbow_family=fam([1], role="rainbow"), max_classes=1, n_limit=1000)
    tracemalloc.start()
    try:
        res = canonical_number(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.canonical_number, res.nodes_expanded) == (None, 1000)
    assert peak < 16 << 20


def test_look_ahead_memory_grows_with_the_depth_reached():
    # W(3;2) dies at depth 9, so a look-ahead walk at length 5000 places
    # labels no deeper.  It must build masks only for the probes that can
    # fire at the depths it reaches, not one as wide as each probe's reach
    # for every probe that fits in the length.
    tracemalloc.start()
    try:
        kept, nodes = _look_ahead_walk(W32, 5000, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (kept, nodes) == ([], 28)
    assert peak < 1 << 20


def test_walk_memory_at_the_default_block():
    # The exact walk holds a block's rows, columns and row sets, and the
    # pending blocks on its stack, each one buffer; at the default block
    # canonical 4-AP to 13, whose levels span many blocks, stays under
    # 1.5 MiB.
    ap4 = SearchConfig(
        mono_family=fam([1], [2], [3]), rainbow_family=fam([1], [2], [3], role="rainbow"), n_limit=13
    )
    tracemalloc.start()
    try:
        counts, nodes = _run_tree(ap4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (counts[13], nodes) == (377187, 937248)
    assert peak < 3 << 19


def test_run_report_shape():
    import json

    res = canonical_number(LINEAR)
    plain = json.loads(run_report(LINEAR, res))
    assert plain["config"]["mono"] == [[1]]
    assert plain["config"]["rainbow"] == [[1]]
    assert plain["canonical_number"] == 2
    assert plain["engine"] == "pruned"
    assert "wall_time" not in plain
    timed = json.loads(run_report(LINEAR, res, timing=True))
    assert timed["wall_time"] >= 0


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mono_family=None, rainbow_family=None)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam(), rainbow_family=fam(role="rainbow"))
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), n_start=0)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), n_start=5, n_limit=4)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), max_classes=0)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), node_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), h=-1)
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), d_policy="upward")
    with pytest.raises(ValueError, match="h must be non-negative"):
        replace(SearchConfig(mono_family=fam([1])), h=-1)
    # Every int field holds an exact int; a float n_limit would fail deep in
    # the walk, and a float h or node_budget would run.
    for name in ("h", "max_classes", "n_start", "n_limit", "node_budget"):
        for value in (True, 9.0, 0.5):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                SearchConfig(mono_family=fam([1]), **{name: value})


def test_engines_agree_on_random_families():
    # The pruned engine builds its probes once, as distances back from the
    # newest position, and checks only that position; the naive engine
    # scans every whole colouring.  Agreement under every policy and h
    # checks those probes, repeated offsets included, and the prune on
    # families beyond the fixed grids.
    rng = random.Random(20200416)
    for _ in range(10):
        rainbow = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=3)
        mono = fam(*random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=3).coeff_lists())
        for policy in D_POLICIES:
            for h in (0, 2):
                cfg = SearchConfig(
                    mono_family=mono,
                    rainbow_family=rainbow if rng.random() < 0.7 else None,
                    h=h,
                    d_policy=policy,
                    max_classes=rng.choice((2, 3)),
                    n_limit=8,
                )
                a = canonical_number(cfg)
                b = naive_canonical_number(cfg)
                assert a.canonical_number == b.canonical_number, cfg
                k = len(b.witness_free_per_length)
                assert a.witness_free_per_length[:k] == b.witness_free_per_length, cfg
                assert a.extremal_count_at_nminus1 == b.extremal_count_at_nminus1, cfg


def test_masks_handle_repeated_and_empty_positions():
    # Mono families may hold the zero polynomial and repeated members, and
    # "any" admits d = 0, so a mono probe can repeat a position or have no
    # position besides the newest one; such a probe must always block.
    rng = random.Random(20201104)
    pool = ([], [1], [2], [-1], [0, 1], [1, 1])
    numbers = set()
    for trial in range(24):
        members = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        members.append(rng.choice(([], rng.choice(members))))
        rng.shuffle(members)
        rainbow = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2)
        policy = D_POLICIES[trial % len(D_POLICIES)]
        cfg = SearchConfig(
            mono_family=fam(*members),
            rainbow_family=rainbow if rng.random() < 0.5 else None,
            h=rng.choice((0, 1)),
            d_policy=policy,
            max_classes=rng.choice((2, 3, None)),
            n_limit=7,
            self_check=True,
        )
        a = canonical_number(cfg)
        b = naive_canonical_number(cfg)
        assert a.canonical_number == b.canonical_number, cfg
        k = len(b.witness_free_per_length)
        assert a.witness_free_per_length[:k] == b.witness_free_per_length, cfg
        assert a.extremal_count_at_nminus1 == b.extremal_count_at_nminus1, cfg
        numbers.add(a.canonical_number)
    # the zero member blocks every position at length 1 under some policies,
    # while other families leave longer witness-free colourings
    assert 1 in numbers and len(numbers) > 2


def test_exact_walks_of_classical_instances():
    # The pruned walk of two van der Waerden numbers and of canonical 3-AP
    # and 4-AP, node for node, as the benchmark's reference values record
    # them.
    w42 = canonical_number(SearchConfig(mono_family=fam([1], [2], [3]), max_classes=2, n_limit=40))
    assert (w42.canonical_number, w42.nodes_expanded) == (35, 20351)
    assert w42.witness_free_per_length == (
        1, 2, 4, 7, 13, 24, 39, 66, 115, 178, 274, 421, 539, 672, 882, 872, 925, 974, 854, 721,
        671, 516, 351, 262, 158, 84, 68, 68, 72, 76, 80, 84, 88, 14, 0, 0, 0, 0, 0, 0,
    )
    w33 = canonical_number(SearchConfig(mono_family=fam([1], [2]), max_classes=3, n_limit=30))
    assert (w33.canonical_number, w33.nodes_expanded) == (27, 337640)
    assert w33.witness_free_per_length == (
        1, 2, 4, 11, 28, 71, 155, 327, 601, 1174, 1965, 3267, 4937, 7553, 9574, 12409, 14242,
        15920, 14136, 11930, 8428, 3837, 1448, 467, 52, 8, 0, 0, 0, 0,
    )
    canon3 = canonical_number(
        SearchConfig(mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"))
    )
    assert (canon3.canonical_number, canon3.nodes_expanded) == (9, 205)
    assert canon3.witness_free_per_length == (1, 2, 3, 6, 9, 15, 15, 10, 0, 0, 0, 0)
    ap4 = SearchConfig(
        mono_family=fam([1], [2], [3]), rainbow_family=fam([1], [2], [3], role="rainbow"), n_limit=11
    )
    canon4 = canonical_number(ap4)
    assert (canon4.canonical_number, canon4.nodes_expanded) == (None, 96517)
    assert canon4.witness_free_per_length == (
        1, 2, 5, 13, 41, 138, 432, 1398, 4773, 14473, 43896,
    )
    first = extremal_colourings(replace(ap4, n_limit=13), 13, limit=3)
    assert first[-1].coordinate(1) == (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 2, 1)


def test_walk_matches_a_plain_recursive_walk():
    # The walk decides rainbow probes by label bitsets and counts its last
    # layer at the parent; the reference visits every node and asks the
    # public witness scan.  Counts, nodes and the abort point must agree,
    # also with a budget at every node of one small rainbow walk.
    rng = random.Random(20201019)
    pool = ([], [1], [2], [-1], [0, 1], [1, 1], [3], [1], [2])
    for trial in range(96):
        members = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        if members and rng.random() < 0.3:
            members.append(rng.choice(members))
        rainbow = random_rainbow_family(rng, max_size=3, max_deg=2, coeff_abs=2)
        cfg = SearchConfig(
            mono_family=fam(*members),
            rainbow_family=rainbow if not members or rng.random() < 0.7 else None,
            h=trial % 3,
            d_policy=D_POLICIES[trial % len(D_POLICIES)],
            max_classes=(None, 1, 2, 3)[trial // 4 % 4],
            n_limit=7,
            self_check=trial % 5 == 0,
        )
        cap = rng.choice((1, 2, 3, 5, 6, 7, 7))
        cfg = replace(cfg, n_limit=cap)
        counts, nodes = _run_tree(cfg)
        assert (counts, nodes) == reference_walk(cfg, cap)[:2], (cfg, cap)
        budgets = {nodes - 1, rng.randint(1, nodes)} - {0}
        for budget in budgets:
            cut = replace(cfg, node_budget=budget)
            assert _run_tree(cut) == reference_walk(cut, cap)[:2], (cut, cap)
    ap3 = SearchConfig(mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"), n_limit=6)
    nodes = _run_tree(ap3)[1]
    for budget in range(1, nodes + 1):
        cut = replace(ap3, node_budget=budget)
        assert _run_tree(cut) == reference_walk(cut, 6)[:2], budget


def test_walk_is_the_same_at_every_block_size(monkeypatch):
    # The walk tests up to BLOCK prefixes of one length at once, so with
    # small blocks every level spans many of them.  Wherever the levels are
    # split, the counts, nodes, abort point and self-checked colourings
    # must be the same.
    w33 = SearchConfig(mono_family=fam([1], [2]), max_classes=3, n_limit=30)
    ap4 = SearchConfig(
        mono_family=fam([1], [2], [3]), rainbow_family=fam([1], [2], [3], role="rainbow"), n_limit=11
    )
    checked = replace(AP3, n_limit=8, self_check=True)
    seen = []
    real_check = canvdw.search._self_check

    def recording_check(cfg, colouring):
        seen.append(colouring.coordinate(1))
        real_check(cfg, colouring)

    monkeypatch.setattr(canvdw.search, "_self_check", recording_check)
    cases = (w33, ap4, AP3, checked)
    walks = [_run_tree(cfg) for cfg in cases]
    checks = sorted(seen)
    assert [nodes for _, nodes in walks[:2]] == [337640, 96517]
    # At the default block canonical 4-AP's length-12 level spans many
    # blocks.
    counts, nodes = _run_tree(replace(ap4, n_limit=13))
    assert (counts[12:], nodes) == ([135027, 377187], 937248)
    assert counts[12] > 32 * canvdw.search.BLOCK
    assert walks[2] == reference_walk(AP3, AP3.n_limit)[:2]
    assert walks[3] == reference_walk(checked, 8)[:2]
    counts, nodes = walks[3]
    assert len(checks) == nodes - sum(counts[1:])
    # Sizes 1 to 7 split every level into many blocks; 1 << 20 holds each
    # level of these cases, 43,896 rows at most, in one block.
    for size in (1, 2, 3, 7, 1 << 20):
        monkeypatch.setattr(canvdw.search, "BLOCK", size)
        seen.clear()
        assert [_run_tree(cfg) for cfg in cases] == walks, size
        assert sorted(seen) == checks, size
        nodes = walks[2][1]
        assert _run_tree(replace(AP3, node_budget=nodes)) == walks[2]
        assert _run_tree(replace(AP3, node_budget=nodes - 1)) == (None, nodes)


def test_walk_takes_labels_wider_than_a_byte():
    # Mono {x} forbids any repeated label, so uncapped the one witness-free
    # colouring of each length is the all-distinct one, and after it of
    # length t the walk tries t + 1 labels.  Past 127 classes the walk
    # packs labels in wider lanes.
    res = canonical_number(SearchConfig(mono_family=fam([1]), n_limit=300))
    assert res.witness_free_per_length == (1,) * 300
    assert res.nodes_expanded == 45_150 == sum(t + 1 for t in range(300))
    # Canonical 3-AP dies at 9 whatever the limit, so a limit of 200 walks
    # the same tree in wide lanes, here under self_check.
    wide = canonical_number(replace(AP3, n_limit=200, self_check=True))
    narrow = canonical_number(AP3)
    assert wide.witness_free_per_length == narrow.witness_free_per_length + (0,) * 188
    assert (wide.canonical_number, wide.nodes_expanded) == (9, narrow.nodes_expanded)


def test_walk_separates_rows_in_wide_lanes(monkeypatch):
    # Pending prefixes are stored one after another, each ended by a
    # separator lane.  Labels 255 and 511 in 2-byte lanes, and every label
    # in 4-byte lanes, hold bytes of 0xFF; the rows must still come apart
    # where they were joined.
    counts, nodes = _run_tree(SearchConfig(mono_family=fam([1]), n_limit=520))
    assert counts == [1] * 521
    assert nodes == 135_460 == sum(t + 1 for t in range(520))
    seen = []
    real_check = canvdw.search._self_check

    def recording_check(cfg, colouring):
        seen.append(colouring.coordinate(1))
        real_check(cfg, colouring)

    monkeypatch.setattr(canvdw.search, "_self_check", recording_check)
    narrow = replace(AP3, n_limit=12, self_check=True)
    expected = reference_walk(narrow, 12)[:2]
    assert _run_tree(narrow) == expected
    narrow_checks = sorted(seen)
    seen.clear()
    counts, nodes = _run_tree(replace(narrow, n_limit=40_000))
    assert (counts[:13], nodes) == expected
    assert nodes == 205 and not any(counts[13:])
    assert sorted(seen) == narrow_checks


def test_look_ahead_keeps_what_the_exact_walk_keeps():
    # The look-ahead walk cuts a prefix once some later position has no
    # label left.  Against the plain recursive walk it must keep the same
    # colourings in the same order on no more nodes, stop on the limit-th
    # one, and a budget one short of its own count must abort.
    rng = random.Random(20261019)
    pool = ([], [1], [2], [-1], [0, 1], [1, 1], [3], [1], [2])
    fewer = on_limit_th = 0
    for trial in range(96):
        members = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        if members and rng.random() < 0.3:
            members.append(rng.choice(members))
        rainbow = random_rainbow_family(rng, max_size=3, max_deg=2, coeff_abs=2)
        cfg = SearchConfig(
            mono_family=fam(*members),
            rainbow_family=rainbow if not members or rng.random() < 0.7 else None,
            h=trial % 3,
            d_policy=D_POLICIES[trial % len(D_POLICIES)],
            max_classes=(None, 1, 2, 3)[trial // 4 % 4],
            n_limit=8,
            self_check=trial % 5 == 0,
        )
        cap = rng.randint(1, 8)
        limit = (1, 3, None)[trial // 32]
        _, ref_nodes, ref_kept = reference_walk(cfg, cap, limit)
        kept, nodes = _look_ahead_walk(cfg, cap, limit)
        assert kept == ref_kept, (cfg, cap, limit)
        assert nodes <= ref_nodes, (cfg, cap, limit)
        fewer += nodes < ref_nodes
        on_limit_th += len(kept) == limit and nodes > 1
        found = extremal_colourings(replace(cfg, node_budget=max(nodes, 1)), cap, limit)
        assert [c.coordinate(1) for c in found] == kept
        if nodes > 1:
            with pytest.raises(EnumerationCapExceeded):
                extremal_colourings(replace(cfg, node_budget=nodes - 1), cap, limit)
    assert fewer > 20
    assert on_limit_th > 10


def test_look_ahead_ignores_a_cap_at_or_above_the_length():
    # A cap of at least the length never binds, so it walks as no cap does:
    # the same colourings, the same node counts and the same budget abort.
    # A 10**18-bit label mask could not even be built.
    for cfg in (W32, replace(W32, max_classes=3), AP3):
        for length in range(1, 10):
            for limit in (None, 3):
                want = _look_ahead_walk(replace(cfg, max_classes=None), length, limit)
                kept, nodes = want
                for cap in (length, 10**18):
                    capped = replace(cfg, max_classes=cap)
                    assert _look_ahead_walk(capped, length, limit) == want, (cfg, length, cap)
                    found = extremal_colourings(replace(capped, node_budget=nodes), length, limit)
                    assert [c.coordinate(1) for c in found] == kept
                    if nodes > 1:
                        starved = replace(capped, node_budget=nodes - 1)
                        assert _look_ahead_walk(starved, length, limit) == (None, nodes)
                        with pytest.raises(EnumerationCapExceeded):
                            extremal_colourings(starved, length, limit)


def test_look_ahead_on_classical_instances():
    # The look-ahead's lists are pinned by digest, with its node counts; a
    # full list is as long as the exact walk's count at its length, and
    # the exact walk's node counts are pinned too.  The small limits stop
    # among the leaves of one parent, and a budget one short of a limited
    # walk's nodes aborts it there.
    w33 = SearchConfig(mono_family=fam([1], [2]), max_classes=3, n_limit=26)
    w42 = SearchConfig(mono_family=fam([1], [2], [3]), max_classes=2, n_limit=34)
    ap3 = SearchConfig(mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"))
    ap4 = SearchConfig(
        mono_family=fam([1], [2], [3]), rainbow_family=fam([1], [2], [3], role="rainbow"), n_limit=13
    )
    for cfg, length, limit, size, ahead_nodes, exact_nodes, digest in (
        (w33, 26, None, 8, 30962, 337616, "e7b1420796cdfcf2121d984885efd8e60094b5e3a58b0a92bc782fb6035da112"),
        (w42, 34, None, 14, 4938, 20323, "791a2fbafeb410b7a03aca37af5031562b53c4ab19edd744a97ae52827cfcc2a"),
        (ap3, 8, None, 10, 61, 167, "325e01029b6d888738bba92e72a61daa117085eefd669d87bafe025062325a25"),
        (ap3, 9, None, 0, 55, 205, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (ap4, 13, 3, 3, 16, None, "52eb200f179f2aa03ee2045ac20140875840f37c8e111d73ba1fe3e9fea15ce5"),
        (ap4, 13, 1000, 1000, 1553, None, "5c7a98a81dd53a4f27e53abad9af64ef92bed1574377455d590b8f9fb18c0802"),
        (W32, 8, 2, 2, 26, None, "3dd948e534b74a327888156d03786262d1a1607743b9b33ba437e04288cea4ae"),
        (ap3, 8, 4, 4, 32, None, "4443320ae21f0f9f19bb771f711721ca0769ef95a197bd3b85061f8a88cc0b5e"),
        (w33, 26, 5, 5, 11561, None, "b23ca4b486183757fc34ac766a3b0b72d8b6009dac4559c2159196c924df0cb1"),
        (ap4, 13, 7, 7, 23, None, "22d19930795a7ed95077d88d51cb9bcc0171b5347dab2cdb77387db987c51cd9"),
    ):
        kept, nodes = _look_ahead_walk(cfg, length, limit)
        assert (len(kept), nodes) == (size, ahead_nodes), (cfg, length)
        assert hashlib.sha256(repr(kept).encode()).hexdigest() == digest, (cfg, length)
        if limit is None:
            exact = canonical_number(replace(cfg, n_limit=length))
            assert exact.witness_free_per_length[length - 1] == size, (cfg, length)
            assert exact.nodes_expanded == exact_nodes, (cfg, length)
        else:
            starved = replace(cfg, node_budget=nodes - 1)
            assert _look_ahead_walk(starved, length, limit) == (None, nodes), (cfg, length, limit)
    # At length 1 the root is the one leaf.
    for cfg in (W32, ap3, ap4):
        for self_check in (False, True):
            assert _look_ahead_walk(replace(cfg, self_check=self_check), 1, None) == ([(0,)], 1)
    # Under self_check every cut of a rainbow walk is named and confirmed.
    checked = extremal_colourings(replace(ap3, self_check=True), 8)
    assert checked == extremal_colourings(ap3, 8)


def test_self_check_confirms_look_ahead_cuts(monkeypatch):
    # Each label the look-ahead rules out must be confirmed by the public
    # mono or rainbow predicate; one that says no must stop the walk.
    ap3 = SearchConfig(
        mono_family=fam([1], [2]), rainbow_family=fam([1], [2], role="rainbow"), self_check=True
    )
    for name, liar, cfg in (
        ("is_monochromatic", lambda *args: None, replace(W32, self_check=True)),
        ("is_rainbow", lambda *args: False, ap3),
        ("is_monochromatic", lambda *args: None, replace(ap3, mono_family=fam([0]))),
    ):
        plain = replace(cfg, self_check=False)
        honest = extremal_colourings(plain, 8)
        with monkeypatch.context() as patch:
            patch.setattr(canvdw.search, name, liar)
            with pytest.raises(AssertionError, match=r"ruled out label \d+ at position \d+ after \("):
                extremal_colourings(cfg, 8)
            # Without self_check the walk never asks the predicates.
            assert extremal_colourings(plain, 8) == honest
