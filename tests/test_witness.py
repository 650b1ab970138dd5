import dataclasses
import json
import random

import pytest

from canvdw.coloring import TypedColouring, colouring_digest, enumerate_colourings
from canvdw.witness import (
    KIND_FULLY_RAINBOW,
    KIND_MONO,
    KIND_RAINBOW,
    POLICY_ANY,
    POLICY_GT_H_FOR_RAINBOW,
    POLICY_POSITIVE,
    Certificate,
    FocusedCollection,
    collection_norm,
    find_focused_collection,
    find_witness,
    is_focused,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
    validate_collection,
    verify_certificate,
)

from _helpers import TWO_X, X, fam, merge_two_classes, random_colouring, relabel


def test_is_monochromatic():
    c = TypedColouring.single((1, 1, 1))
    assert is_monochromatic(c, (1, 2, 3)) == 1
    assert is_monochromatic(c, (1, 1, 2)) == 1  # repeats allowed
    mixed = TypedColouring(m=2, n=None, rows=((1, 2), (3, 2)))
    assert is_monochromatic(mixed, (1, 2)) == 2
    assert is_monochromatic(TypedColouring.single((1, 2)), (1, 2)) is None
    with pytest.raises(ValueError):
        is_monochromatic(c, ())


def test_is_rainbow():
    c = TypedColouring.single((1, 2, 3))
    assert is_rainbow(c, (1, 2, 3))
    assert is_rainbow(c, (2,))
    assert not is_rainbow(c, (1, 1))  # repeated position
    assert not is_rainbow(TypedColouring.single((1, 2, 1)), (1, 3))
    # a label repeated inside one element does not clash with itself
    wide = TypedColouring(m=2, n=None, rows=((5, 5), (1, 2)))
    assert is_rainbow(wide, (1, 2))
    assert not is_rainbow(TypedColouring(m=2, n=None, rows=((5, 1), (1, 2))), (1, 2))
    with pytest.raises(ValueError):
        is_rainbow(c, ())


def test_is_fully_rainbow():
    c = TypedColouring(m=1, n=2, rows=((1, 2), (2, 2), (3, 1)))
    assert is_fully_rainbow(c, (1, 2)) == 2
    assert is_fully_rainbow(c, (1, 3)) is None  # finals differ
    assert is_fully_rainbow(c, (3,)) == 1
    clash = TypedColouring(m=1, n=2, rows=((1, 1), (1, 1)))
    assert is_fully_rainbow(clash, (1, 2)) is None  # not rainbow
    with pytest.raises(ValueError):
        is_fully_rainbow(TypedColouring.single((1, 2)), (1, 2))


def test_is_focused():
    B = fam([1], [2], role="rainbow")
    assert is_focused((5, 7), 3, B, 2)
    assert not is_focused((5, 8), 3, B, 2)      # second offset wrong
    assert not is_focused((3, 5), 3, B, 0)      # focus among the elements
    assert not is_focused((5, 5), 3, fam([2], [2]), 1)  # repeated element
    with pytest.raises(ValueError):
        is_focused((5,), 3, B, 2)


def _norm_example():
    # four singleton members anchored at 1; three land on final label 1,
    # one on final label 2
    rows = ((99, 1), (10, 1), (20, 1), (30, 1), (40, 2))
    c = TypedColouring(m=1, n=2, rows=rows)
    B = fam([1], role="rainbow")
    coll = FocusedCollection(1, B, ((1, (2,)), (2, (3,)), (3, (4,)), (4, (5,))))
    return c, coll


def test_collection_norm_example():
    c, coll = _norm_example()
    info = collection_norm(c, coll)
    assert info.weights == {1: 3, 2: 1}
    assert info.small_labels == frozenset({2})  # weight 3 exceeds m + 1 = 2
    assert info.norm == 1
    assert validate_collection(c, coll)


def test_collection_norm_requires_fully_rainbow_members():
    rows = ((9, 1), (1, 1), (2, 2))
    c = TypedColouring(m=1, n=2, rows=rows)
    B = fam([1], [2], role="rainbow")
    coll = FocusedCollection(1, B, ((1, (2, 3)),))  # finals 1 and 2 differ
    with pytest.raises(ValueError):
        collection_norm(c, coll)
    assert not validate_collection(c, coll)


def test_validate_collection():
    c, coll = _norm_example()
    assert validate_collection(c, FocusedCollection(1, coll.family, ()))
    # union label clash: two members sharing an unbounded label
    rows = ((99, 1), (10, 1), (10, 1))
    clash = TypedColouring(m=1, n=2, rows=rows)
    bad = FocusedCollection(1, coll.family, ((1, (2,)), (2, (3,))))
    assert not validate_collection(clash, bad)
    # member not anchored at the focus
    off = FocusedCollection(2, coll.family, ((1, (2,)),))
    assert not validate_collection(c, off)


def test_find_witness_rainbow_example():
    c = TypedColouring.single((1, 2, 3))
    cert = find_witness(c, fam([1]), fam([1], role="rainbow"))
    assert cert is not None
    assert cert.kind == KIND_RAINBOW
    assert (cert.a, cert.d, cert.elements) == (1, 1, (1, 2))
    assert cert.evidence is None
    assert verify_certificate(c, cert).ok


def test_find_witness_absent_example():
    c = TypedColouring.single((1, 1, 2, 2))
    A = fam([1], [2])
    B = fam([1], [2], role="rainbow")
    assert find_witness(c, A, B) is None


def test_find_witness_mono_example():
    c = TypedColouring.single((1, 1, 1))
    cert = find_witness(c, fam([1]))
    assert cert is not None
    assert cert.kind == KIND_MONO
    assert (cert.a, cert.d, cert.elements, cert.evidence) == (1, 1, (1, 2), 1)


def test_find_witness_scan_order():
    # two rainbow witnesses exist at d=1; the smaller anchor wins
    c = TypedColouring.single((1, 2, 1))
    cert = find_witness(c, None, fam([1], role="rainbow"))
    assert (cert.a, cert.d) == (1, 1)
    # mono beats rainbow at the same (a, d)
    both = find_witness(TypedColouring.single((1, 1)), fam([1]), fam([1], role="rainbow"))
    assert both.kind == KIND_MONO


def test_find_witness_policies():
    c = TypedColouring.single((1, 1))
    assert find_witness(c, fam([1]), d_policy=POLICY_POSITIVE).d == 1
    # "any" admits d = 0, which is scanned first and pairs each anchor
    # with itself
    zero = find_witness(c, fam([1]), d_policy=POLICY_ANY)
    assert (zero.a, zero.d, zero.elements) == (1, 0, (1, 1))
    # rainbow steps must clear h under the threshold policy
    ramp = TypedColouring.single((1, 2, 3, 4))
    gated = find_witness(ramp, None, fam([1], role="rainbow"), h=2, d_policy=POLICY_GT_H_FOR_RAINBOW)
    assert gated.d == 3
    # mono steps are not gated by h
    mono = find_witness(c, fam([1]), h=5, d_policy=POLICY_GT_H_FOR_RAINBOW)
    assert mono is not None and mono.d == 1
    # too short an interval leaves nothing above h
    assert find_witness(TypedColouring.single((1, 2)), None, fam([1], role="rainbow"), h=3, d_policy=POLICY_GT_H_FOR_RAINBOW) is None
    with pytest.raises(ValueError):
        find_witness(c, fam([1]), d_policy="sideways")


def test_find_witness_bounded_colourings_use_fully_rainbow():
    c = TypedColouring(m=1, n=2, rows=((1, 2), (2, 2), (3, 1)))
    cert = find_witness(c, None, fam([1], role="rainbow"))
    assert cert.kind == KIND_FULLY_RAINBOW
    assert cert.elements == (1, 2)
    assert cert.evidence == 2
    assert verify_certificate(c, cert).ok


def test_find_witness_without_families():
    c = TypedColouring.single((1, 2))
    assert find_witness(c, None, None) is None
    assert find_witness(c, fam(), fam()) is None


def test_certificate_json_round_trip():
    c = TypedColouring.single((1, 2, 3))
    cert = find_witness(c, fam([1]), fam([1], role="rainbow"))
    text = cert.to_json()
    assert Certificate.from_json(text) == cert
    pairs = json.loads(text, object_pairs_hook=list)
    assert [k for k, _ in pairs] == [
        "kind", "a", "d", "elements", "evidence", "family", "digest", "d_policy",
    ]
    malformed = [
        {"a": "x"},
        {"d": "3"},
        {"a": 2.0},
        {"a": True},
        {"elements": [1, "2"]},
        {"elements": "12"},
        {"evidence": True},
        {"evidence": "1"},
        {"kind": 7},
        {"digest": None},
        {"d_policy": "bogus"},
    ]
    for change in malformed:
        with pytest.raises(ValueError):
            Certificate.from_json(json.dumps({**json.loads(text), **change}))
    with pytest.raises(ValueError):
        Certificate.from_json("{not json")
    with pytest.raises(ValueError):
        Certificate.from_json('{"kind": "rainbow"}')
    with pytest.raises(ValueError):
        Certificate.from_json("[1, 2]")


def test_verify_certificate_rejections():
    c = TypedColouring.single((1, 2, 3))
    cert = find_witness(c, None, fam([1], role="rainbow"))
    assert verify_certificate(c, cert).ok

    swapped = dataclasses.replace(cert, elements=(1, 3))
    assert verify_certificate(c, swapped).reason == "element mismatch"
    moved = dataclasses.replace(cert, a=2)  # stored elements no longer match
    assert verify_certificate(c, moved).reason == "element mismatch"
    forged = dataclasses.replace(cert, digest="0" * 64)
    assert verify_certificate(c, forged).reason == "digest mismatch"
    renamed = dataclasses.replace(cert, kind="sparkly")
    assert verify_certificate(c, renamed).reason == "kind mismatch"
    crosskind = dataclasses.replace(cert, kind=KIND_MONO)
    assert verify_certificate(c, crosskind).reason == "evidence mismatch"

    edge = Certificate(KIND_RAINBOW, 3, 1, (3, 4), None, fam([1], role="rainbow"), colouring_digest(c), "nonzero")
    assert verify_certificate(c, edge).reason == "out of range"

    flat = TypedColouring.single((1, 1, 1))
    broken = Certificate(KIND_RAINBOW, 1, 1, (1, 2), None, fam([1], role="rainbow"), colouring_digest(flat), "nonzero")
    assert verify_certificate(flat, broken).reason == "predicate failed"

    labelled = TypedColouring(m=1, n=2, rows=((1, 2), (2, 2)))
    good = find_witness(labelled, None, fam([1], role="rainbow"))
    wrong_label = dataclasses.replace(good, evidence=1)
    assert verify_certificate(labelled, wrong_label).reason == "evidence mismatch"


def test_verify_result_is_truthy():
    c = TypedColouring.single((1, 1))
    cert = find_witness(c, fam([1]))
    assert verify_certificate(c, cert)
    assert not verify_certificate(c, dataclasses.replace(cert, digest="0" * 64))


def test_witness_set_view():
    c = TypedColouring.single((1, 1))
    cert = find_witness(c, fam([1]))
    w = cert.witness()
    assert (w.kind, w.a, w.d, w.elements, w.evidence) == (
        cert.kind, cert.a, cert.d, cert.elements, cert.evidence,
    )


def test_witness_outcome_survives_relabeling():
    rng = random.Random(55)
    A = fam([1], [2])
    B = fam([1], [2], role="rainbow")
    for _ in range(50):
        c = random_colouring(rng, rng.randint(1, 9), 1, rng.choice([None, 2]), classes=3)
        cert = find_witness(c, A, B)
        other = find_witness(relabel(c, rng), A, B)
        if cert is None:
            assert other is None
        else:
            assert other is not None
            assert (cert.kind, cert.a, cert.d, cert.elements) == (
                other.kind, other.a, other.d, other.elements,
            )


def test_mono_witnesses_survive_coarsening():
    rng = random.Random(57)
    A = fam([1], [2])
    for _ in range(60):
        c = random_colouring(rng, rng.randint(3, 9), 1, None, classes=3)
        cert = find_witness(c, A, None)
        if cert is None:
            continue
        merged = merge_two_classes(c, rng)
        after = find_witness(merged, A, None)
        assert after is not None  # equal labels stay equal


def test_find_focused_collection_examples():
    distinct = TypedColouring(m=1, n=1, rows=tuple((10 * i, 1) for i in range(1, 6)))
    B = fam([1], role="rainbow")
    empty = find_focused_collection(distinct, B, 1, target_norm=0)
    assert empty is not None and empty.members == ()
    assert validate_collection(distinct, empty)

    found = find_focused_collection(distinct, B, 1, target_norm=1)
    assert found is not None
    assert found.members == ((1, (2,)),)
    assert collection_norm(distinct, found).norm == 1
    assert validate_collection(distinct, found)

    flat = TypedColouring(m=1, n=1, rows=tuple((5, 1) for _ in range(5)))
    # singletons are rainbow on their own, so norm 1 is reachable
    assert find_focused_collection(flat, B, 1, target_norm=1) is not None
    # but two members would share the one unbounded label
    assert find_focused_collection(flat, B, 1, target_norm=2) is None


def test_find_focused_collection_budget_and_errors():
    distinct = TypedColouring(m=1, n=1, rows=tuple((10 * i, 1) for i in range(1, 6)))
    B = fam([1], role="rainbow")
    assert find_focused_collection(distinct, B, 1, target_norm=1, node_budget=0) is None
    with pytest.raises(ValueError):
        find_focused_collection(distinct, B, 9, target_norm=1)
    with pytest.raises(ValueError):
        find_focused_collection(distinct, fam([1]), 1, target_norm=1)
    with pytest.raises(ValueError):
        find_focused_collection(TypedColouring.single((1, 2)), B, 1, target_norm=1)
    with pytest.raises(ValueError):
        find_focused_collection(distinct, B, 1, target_norm=-1)


def test_certificates_round_trip_exhaustively():
    # every canonical single-coordinate colouring up to length 8, checked
    # with the two-member linear families
    A = fam([1], [2])
    B = fam([1], [2], role="rainbow")
    seen = 0
    witnessed = 0
    for length in range(1, 9):
        for c in enumerate_colourings(length):
            seen += 1
            cert = find_witness(c, A, B)
            if cert is None:
                continue
            witnessed += 1
            assert verify_certificate(c, cert).ok
            assert Certificate.from_json(cert.to_json()) == cert
            bad = dataclasses.replace(cert, digest="f" * 64)
            assert verify_certificate(c, bad).reason == "digest mismatch"
    assert seen == 5295
    assert witnessed > seen // 2
