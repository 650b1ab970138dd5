import random

import pytest

from canvdw.search import (
    EnumerationCapExceeded,
    SearchConfig,
    canonical_number,
    extremal_colourings,
    naive_canonical_number,
    run_report,
)
from canvdw.witness import D_POLICIES, find_witness

from _helpers import fam, random_rainbow_family

LINEAR = SearchConfig(mono_family=fam([1]), rainbow_family=fam([1], role="rainbow"))
W32 = SearchConfig(mono_family=fam([1], [2]), max_classes=2)


def test_single_linear_family_both_engines():
    pruned = canonical_number(LINEAR)
    assert pruned.canonical_number == 2
    assert pruned.witness_free_per_length[:2] == (1, 0)
    assert all(v == 0 for v in pruned.witness_free_per_length[1:])
    assert pruned.extremal_count_at_nminus1 == 1
    assert pruned.engine == "pruned"
    assert not pruned.exhausted
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
    with pytest.raises(ValueError):
        extremal_colourings(W32, 99)
    with pytest.raises(ValueError):
        extremal_colourings(W32, 8, limit=0)


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


def test_budget_aborts_pruned_engine():
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, node_budget=10)
    res = canonical_number(cfg)
    assert res.canonical_number is None
    assert res.exhausted
    assert res.nodes_expanded == 11  # the walk stops on the first node past the budget
    assert res.witness_free_per_length == ()


def test_budget_caps_naive_engine():
    cfg = SearchConfig(mono_family=fam([1], [2]), max_classes=2, node_budget=10)
    with pytest.raises(EnumerationCapExceeded):
        naive_canonical_number(cfg)


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


def test_unfound_number_is_reported_as_exhausted():
    cfg = SearchConfig(
        mono_family=fam([1], [2]), max_classes=2, n_limit=5
    )
    res = canonical_number(cfg)
    assert res.canonical_number is None
    assert res.exhausted
    assert res.witness_free_per_length == (1, 2, 3, 5, 7)
    # with nothing found the count reported is the deepest layer's
    assert res.extremal_count_at_nminus1 == 7


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
        SearchConfig(mono_family=None, rainbow_family=None).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam(), rainbow_family=fam(role="rainbow")).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), n_start=0).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), n_start=5, n_limit=4).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), max_classes=0).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), node_budget=0).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), h=-1).validate()
    with pytest.raises(ValueError):
        SearchConfig(mono_family=fam([1]), d_policy="upward").validate()


def test_engines_agree_on_random_families():
    # The pruned engine regroups the scanner's probes by largest element and
    # checks only the newest position; the naive engine scans every whole
    # colouring.  Agreement under every policy and h checks that regrouping
    # and the prune on families beyond the fixed grids.
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
