import hashlib
import itertools
import random
import tracemalloc

import pytest

import canvdw.coloring
from canvdw.coloring import (
    FormatError,
    TypedColouring,
    block_coloring,
    canonicalize,
    colouring_digest,
    enumerate_colourings,
    parse_colouring,
    restricted_growth,
    restricted_growth_strings,
    serialize,
)

from _helpers import Loud, bell_sequence, merge_two_classes, random_colouring, relabel


def test_restricted_growth_examples():
    assert restricted_growth((5, 3, 5, 1)) == (0, 1, 0, 2)
    assert restricted_growth((7, 7, 7)) == (0, 0, 0)
    assert restricted_growth(()) == ()


def test_canonicalize_single_coordinate():
    c = TypedColouring.single((5, 3, 5, 1))
    assert canonicalize(c).strings == ((0, 1, 0, 2),)
    assert canonicalize(c).final is None


def test_canonicalize_keeps_final_coordinate_verbatim():
    c = TypedColouring(m=1, n=3, rows=((4, 3), (9, 1), (4, 3)))
    form = canonicalize(c)
    assert form.strings == ((0, 1, 0),)
    assert form.final == (3, 1, 3)


def _rebuild(form, m, n):
    length = len(form.strings[0]) if form.strings else len(form.final or ())
    rows = []
    for i in range(length):
        row = [form.strings[j][i] for j in range(m)]
        if n is not None:
            row.append(form.final[i])
        rows.append(tuple(row))
    return TypedColouring(m=m, n=n, rows=tuple(rows))


def test_canonicalize_idempotent_and_relabel_invariant():
    rng = random.Random(5)
    for _ in range(200):
        c = random_colouring(rng, rng.randint(1, 8), rng.randint(1, 2), rng.choice([None, 3]))
        form = canonicalize(c)
        assert canonicalize(_rebuild(form, c.m, c.n)) == form
        assert canonicalize(relabel(c, rng)) == form


def test_canonical_forms_agree_iff_partitions_agree():
    rng = random.Random(9)

    def parts(col):
        return {
            tuple(i for i in range(1, col.length + 1) if col.rows[i - 1][0] == col.rows[j - 1][0])
            for j in range(1, col.length + 1)
        }

    for _ in range(100):
        c = random_colouring(rng, rng.randint(2, 7), 1, None)
        other = random_colouring(rng, c.length, 1, None)
        assert (canonicalize(c) == canonicalize(other)) == (parts(c) == parts(other))


# Both enumerators, each read as its sequence of label strings.
ENUMERATORS = (
    restricted_growth_strings,
    lambda *args: (c.coordinate(1) for c in enumerate_colourings(*args)),
)


def test_enumerate_counts_are_bell_numbers():
    bells = bell_sequence(10)
    for strings in ENUMERATORS:
        for length in range(0, 8):
            forms = list(strings(length))
            assert len(forms) == bells[length]
            assert len(set(forms)) == len(forms)
            for string in forms:
                assert string == restricted_growth(string)


def test_enumerate_respects_class_cap():
    for strings in ENUMERATORS:
        forms = list(strings(4, 2))
        assert len(forms) == 8
        assert all(all(lab <= 1 for lab in string) for string in forms)
        # cap of 1 leaves only the constant colouring, at any length
        assert len(list(strings(5, 1))) == 1
        assert len(list(strings(3000, 1))) == 1
        with pytest.raises(ValueError, match="max_classes must be positive"):
            list(strings(3, 0))
        with pytest.raises(ValueError, match="length must be non-negative"):
            list(strings(-1))


def test_enumerate_is_lexicographic():
    for strings in ENUMERATORS:
        forms = list(strings(4))
        assert forms == sorted(forms)
        assert forms[0] == (0, 0, 0, 0)
        assert forms[-1] == (0, 1, 2, 3)
        long = list(itertools.islice(strings(3000, 2), 3))
        assert long == [(0,) * 3000, (0,) * 2999 + (1,), (0,) * 2998 + (1, 0)]


def test_enumeration_order_is_the_definition():
    # Restricted-growth strings with at most cap classes, in lexicographic
    # order, are exactly the strings of product(range(length)) that their
    # own restricted_growth leaves unchanged, in product's order.  Such a
    # string has at most i classes before position i, so s[i] <= i, and the
    # filter can run over the box product(range(1), ..., range(length)),
    # which lists those strings in the same order; up to length 6 the full
    # product is filtered too.
    for length in range(9):
        box = itertools.product(*(range(i + 1) for i in range(length)))
        rgs = [s for s in box if restricted_growth(s) == s]
        if length <= 6:
            full = itertools.product(range(length), repeat=length)
            assert rgs == [s for s in full if restricted_growth(s) == s]
        for cap in (None, 1, 2, 3):
            want = [s for s in rgs if cap is None or len(set(s)) <= cap]
            assert list(restricted_growth_strings(length, cap)) == want, (length, cap)


def test_enumerated_colourings_match_validated_ones():
    for length in range(9):
        for cap in (None, 1, 2, 3):
            pairs = itertools.zip_longest(
                enumerate_colourings(length, cap), restricted_growth_strings(length, cap)
            )
            for c, labels in pairs:
                built = TypedColouring(1, None, tuple((lab,) for lab in labels))
                assert c == built
                assert (hash(c), repr(c)) == (hash(built), repr(built))
                assert colouring_digest(c) == colouring_digest(built)


def test_bell_number():
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    assert bell_sequence(10) == expected


def test_block_coloring_example():
    c = TypedColouring.single((1, 2, 2, 1))
    derived = block_coloring(c, 2)
    assert derived.m == 2
    assert derived.n is None
    assert derived.rows == ((1, 2), (2, 1))
    with pytest.raises(ValueError):
        block_coloring(c, 3)
    with pytest.raises(ValueError):
        block_coloring(c, 0)


def test_serialize_and_digest():
    c = TypedColouring(m=1, n=2, rows=((0, 1), (0, 2), (1, 1)))
    text = serialize(c)
    assert text == "m=1 n=2 N=3\n0 1\n0 2\n1 1\n"
    assert colouring_digest(c) == hashlib.sha256(text.encode("ascii")).hexdigest()
    bare = TypedColouring.single((4, 4))
    assert serialize(bare) == "m=1 N=2\n4\n4\n"


def test_parse_colouring_round_trip():
    rng = random.Random(33)
    for _ in range(60):
        c = random_colouring(rng, rng.randint(0, 6), rng.randint(1, 3), rng.choice([None, 2]))
        assert parse_colouring(serialize(c)) == c
    # Without a bounded coordinate, rows with no labels serialize as empty
    # lines.
    for length in range(5):
        for n in (None, 2):
            c = random_colouring(rng, length, 0, n)
            assert parse_colouring(serialize(c)) == c


def test_parse_colouring_headerless():
    assert parse_colouring("1 2 2 1\n") == TypedColouring.single((1, 2, 2, 1))
    multi = parse_colouring("1 2\n2 1\n")
    assert multi.m == 2 and multi.n is None and multi.length == 2


def test_parse_colouring_errors_carry_line_numbers():
    cases = [
        ("m=1 n=2 N=2\n0 1\n0 7\n", 3),   # bounded value out of range
        ("m=1 N=2\n0\n", 1),              # row count disagrees with header
        ("m=1 N=1\n0 0\n", 2),            # too many labels on a row
        ("m=x N=1\n0\n", 1),              # bad header
        ("1 z\n", 1),                     # bad literal
    ]
    for text, line in cases:
        with pytest.raises(FormatError) as info:
            parse_colouring(text)
        assert info.value.line == line


def test_typed_colouring_validation():
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=2, rows=((1, 0),))  # bounded label below 1
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=2, rows=((1, 3),))  # bounded label above n
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=None, rows=((1, 2),))  # row wider than m
    with pytest.raises(ValueError):
        TypedColouring(m=2, n=1, rows=((1, 1),))  # row narrower than m + 1
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=0, rows=((1,),))  # n present but not positive
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=None, rows=((1,), (1, 2)))  # ragged rows
    for m, n in ((-1, None), (True, None), (1.0, None), (1, True), (1, Loud(2))):
        with pytest.raises(ValueError):
            TypedColouring(m=m, n=n, rows=())  # m or n not an exact int in range
    for bad in (-1, True, "1", Loud(1)):
        with pytest.raises(ValueError):
            TypedColouring(m=1, n=None, rows=((bad,),))  # unbounded label not a natural
    unbounded = TypedColouring.single((1, 2))
    with pytest.raises(ValueError):
        unbounded.final_coordinate()


@pytest.fixture
def row_table(monkeypatch):
    """An empty row table for one test; the module's own is restored after."""
    monkeypatch.setattr(canvdw.coloring, "_rows", {})
    monkeypatch.setattr(canvdw.coloring, "_rows_held", 0)
    return canvdw.coloring


def test_equal_rows_are_one_tuple(row_table):
    a = TypedColouring(m=1, n=2, rows=(tuple([0, 1]), tuple([2, 2]), tuple([0, 1])))
    b = TypedColouring(m=1, n=2, rows=[[2, 2], [0, 1]])
    assert a.rows[0] is a.rows[2] is b.rows[1]
    assert a.rows[1] is b.rows[0]
    assert a.rows == ((0, 1), (2, 2), (0, 1)) and b.rows == ((2, 2), (0, 1))
    assert row_table._rows_held == 4 == sum(map(len, row_table._rows))


def test_rows_that_only_equal_an_int_row_are_not_shared(row_table):
    # (True, 1), (1.0, 1) and a row of an int subclass all equal (1, 1) and
    # hash alike.  All are refused, so none becomes the row other colourings
    # share, and none serializes unlike the labels the predicates read.
    text = "m=1 n=1 N=1\n1 1\n"
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()

    def plain():
        c = TypedColouring(m=1, n=1, rows=[[1, 1]])
        assert list(map(type, c.rows[0])) == [int, int]
        assert (serialize(c), colouring_digest(c)) == (text, digest)
        return c

    shared = plain().rows[0]
    for bad in ((True, 1), (1.0, 1), (1, True), (1, 1.0), (Loud(1), 1), (1, Loud(1))):
        with pytest.raises(ValueError):
            TypedColouring(m=1, n=1, rows=(bad,))
    assert plain().rows[0] is shared and list(row_table._rows) == [shared]
    # A table that meets a refused row first stays empty.
    row_table._rows.clear()
    with pytest.raises(ValueError):
        TypedColouring(m=1, n=1, rows=((Loud(1), Loud(1)),))
    assert row_table._rows == {}
    plain()


def test_row_table_stays_within_its_bound(row_table):
    bound = row_table._ROW_TABLE_LABELS
    TypedColouring(m=3, n=None, rows=((1, 2, 3), (1, 2, 3), (4, 5, 6)))
    assert row_table._rows_held == 6 == sum(map(len, row_table._rows))
    # One colouring with more distinct labels than the bound leaves the
    # table empty rather than oversized, and keeps its own rows.
    labels = range(bound + 1)
    huge = TypedColouring.single(labels)
    assert huge.rows == tuple((lab,) for lab in labels)
    assert row_table._rows_held == 0 == len(row_table._rows)
    after = TypedColouring(m=3, n=None, rows=[[1, 2, 3]])
    assert row_table._rows == {(1, 2, 3): after.rows[0]} and row_table._rows_held == 3


def test_colourings_from_a_small_palette_share_memory():
    # 20,000 single-coordinate colourings of length 40 over 3 classes hold
    # 800,000 rows but only 3 distinct ones.  With a tuple per row they
    # peak at about 45 MiB; with shared rows at about 8 MiB, mostly each
    # colouring's own tuple of 40 row pointers.
    rng = random.Random(20_000)
    tracemalloc.start()
    try:
        kept = [TypedColouring.single(rng.choices(range(3), k=40)) for _ in range(20_000)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert len({id(row) for c in kept for row in c.rows}) == 3


def test_coarsening_helper_never_splits_classes():
    rng = random.Random(41)
    for _ in range(60):
        c = random_colouring(rng, rng.randint(2, 8), 1, None, classes=4)
        merged = merge_two_classes(c, rng)
        for i in range(1, c.length + 1):
            for j in range(1, c.length + 1):
                if c.rows[i - 1][0] == c.rows[j - 1][0]:
                    assert merged.rows[i - 1][0] == merged.rows[j - 1][0]
