import dataclasses
import hashlib
import json
import random
import tracemalloc

import pytest

import canvdw.coloring
import canvdw.witness
from canvdw.coloring import TypedColouring, colouring_digest, enumerate_colourings, serialize
from canvdw.polynomial import FormatError, PolynomialFamily
from canvdw.witness import (
    KIND_FULLY_RAINBOW,
    KIND_MONO,
    KIND_RAINBOW,
    POLICY_ANY,
    POLICY_GT_H_FOR_RAINBOW,
    POLICY_POSITIVE,
    D_POLICIES,
    Certificate,
    FocusedCollection,
    admitted_steps,
    collection_norm,
    find_focused_collection,
    find_witness,
    first_witness,
    is_focused,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
    step_admitted,
    validate_collection,
    verify_certificate,
    witness_scanner,
)

from _helpers import (
    Loud,
    TWO_X,
    X,
    fam,
    merge_two_classes,
    random_colouring,
    random_rainbow_family,
    reference_first_witness,
    relabel,
)


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
    with pytest.raises(ValueError):
        collection_norm(TypedColouring.single((9, 1, 2)), coll)  # no final coordinate


def test_an_empty_member_is_not_fully_rainbow():
    # A family with no polynomial focuses a member with no element.  It has
    # no shared final label, so it fails the fully-rainbow condition rather
    # than reaching is_rainbow, which refuses an empty set.
    c = TypedColouring(m=1, n=1, rows=((0, 1), (1, 1)))
    coll = FocusedCollection(1, PolynomialFamily.from_coeff_lists([], "rainbow"), ((1, ()),))
    assert not validate_collection(c, coll)
    with pytest.raises(ValueError, match=r"^member \(\) is not fully-rainbow$"):
        collection_norm(c, coll)
    assert validate_collection(c, FocusedCollection(1, coll.family, ()))
    assert collection_norm(c, FocusedCollection(1, coll.family, ())).norm == 0


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
    # overlapping members: x, 2x at steps 1 and 2 from focus 1 both hold
    # position 3.  Each member is fully-rainbow and no label repeats across
    # distinct positions, so only the distinct-elements rule rejects it.
    rows = ((9, 1), (1, 1), (2, 1), (3, 1), (4, 1))
    shared = TypedColouring(m=1, n=1, rows=rows)
    ap = fam([1], [2], role="rainbow")
    assert validate_collection(shared, FocusedCollection(1, ap, ((1, (2, 3)),)))
    assert validate_collection(shared, FocusedCollection(1, ap, ((2, (3, 5)),)))
    assert not validate_collection(shared, FocusedCollection(1, ap, ((1, (2, 3)), (2, (3, 5)))))


def test_predicates_hold_elements_to_the_interval():
    # rows[e - 1] would read element 0 as the last row and fail one past it.
    c = TypedColouring.single((0, 1, 0))
    bounded = TypedColouring(m=1, n=1, rows=((0, 1), (1, 1), (2, 1)))
    for elems in ((0, 3), (0, 2), (1, 4)):
        with pytest.raises(ValueError):
            is_monochromatic(c, elems)
        with pytest.raises(ValueError):
            is_rainbow(c, elems)
        with pytest.raises(ValueError):
            is_fully_rainbow(bounded, elems)
    # A focused member at position 0 or past the end is no valid member.
    x = fam([1], role="rainbow")
    assert validate_collection(bounded, FocusedCollection(1, x, ((1, (2,)),)))
    assert not validate_collection(bounded, FocusedCollection(1, x, ((-1, (0,)),)))
    assert not validate_collection(bounded, FocusedCollection(3, x, ((1, (4,)),)))


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
    with pytest.raises(ValueError):
        step_admitted(KIND_MONO, 1, 0, "sideways")


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
        "kind", "a", "d", "elements", "evidence", "family", "digest", "d_policy", "h",
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
        {"h": -1},
        {"h": True},
    ]
    for change in malformed:
        with pytest.raises(ValueError):
            Certificate.from_json(json.dumps({**json.loads(text), **change}))
    without_h = json.loads(text)
    del without_h["h"]
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps(without_h))
    with pytest.raises(ValueError):
        Certificate.from_json("[" * 200_000)  # nested past the recursion limit
    with pytest.raises(ValueError):
        Certificate.from_json("{not json")
    with pytest.raises(ValueError):
        Certificate.from_json('{"kind": "rainbow"}')
    with pytest.raises(ValueError):
        Certificate.from_json("[1, 2]")


def _json_dumps_certificate(cert):
    obj = {
        "kind": cert.kind,
        "a": cert.a,
        "d": cert.d,
        "elements": list(cert.elements),
        "evidence": cert.evidence,
        "family": {"polys": cert.family.coeff_lists(), "role": cert.family.role},
        "digest": cert.digest,
        "d_policy": cert.d_policy,
        "h": cert.h,
    }
    return json.dumps(obj, indent=2) + "\n"


def test_certificate_text_is_json_dumps_with_indent_2():
    # to_json lays the text out itself; it must stay the bytes of
    # json.dumps(..., indent=2) + "\n", on found certificates of every kind
    # and on code-built ones whose fields are not ints.
    big = 10**40
    monos = (None, fam([1], [2]), fam([-1], [0, 1]), fam([], [1]), fam([-2, 0, 1]), fam([1], [big, -big]))
    rainbows = (None, fam([1], [2], [big, -big], role="rainbow"), fam([-1], [0, 0, 1], role="rainbow"))
    rng = random.Random(16072020)
    kinds = set()
    found = negative_d = shifted = with_big = 0
    for trial in range(4500):
        c = random_colouring(rng, rng.randint(1, 16), rng.choice((1, 2)), rng.choice((None, 2, 3)), rng.choice((2, 3, 6)))
        rain = rng.choice(rainbows) if trial % 3 else random_rainbow_family(rng)
        cert = find_witness(c, rng.choice(monos), rain, trial % 3, D_POLICIES[trial // 3 % 4])
        if cert is None:
            continue
        assert cert.to_json() == _json_dumps_certificate(cert), cert
        found += 1
        kinds.add(cert.kind)
        negative_d += cert.d < 0
        shifted += cert.h > 0
        with_big += any(big in cs for cs in cert.family.coeff_lists())
    assert found >= 3000
    assert kinds == {KIND_MONO, KIND_RAINBOW, KIND_FULLY_RAINBOW}
    assert negative_d and shifted and with_big
    base = find_witness(TypedColouring.single((1, 1, 1)), fam([1]))
    for name, values in (
        ("family", (fam(), fam([]), fam([big], [-big, 0, big]))),
        ("evidence", (None, 0, -5, True, 1.5, "s")),
        ("elements", ((), (True, 2.0, "a, b"), ([1, [2]], {"k": None}))),
        ("a", (False,)),
        ("h", (float("nan"),)),
        ("kind", ('é"\\',)),
    ):
        for value in values:
            cert = dataclasses.replace(base, **{name: value})
            assert cert.to_json() == _json_dumps_certificate(cert), (name, value)


def test_certificate_text_refuses_a_family_that_is_not_a_family():
    # A code-built certificate can carry any family value; to_json names
    # the field in a fixed message, and the verifier rejects it as usual.
    colouring = TypedColouring.single((1, 1, 1))
    base = find_witness(colouring, fam([1]))
    for family in ({"polys": []}, None, (fam([1]),), "mono"):
        cert = dataclasses.replace(base, family=family)
        with pytest.raises(TypeError) as e:
            cert.to_json()
        assert str(e.value) == "Certificate.family must be a PolynomialFamily", family
        assert not verify_certificate(colouring, cert).ok


def test_malformed_certificate_messages_are_fixed():
    # Certificates of the wrong shape read in parse_family's wording, not in
    # the words of the Python error that the lookup would raise.
    base = json.loads(find_witness(TypedColouring.single((1, 1, 1)), fam([1])).to_json())
    without_h = dict(base)
    del without_h["h"]
    for obj, message in (
        ([1, 2], "expected a JSON object"),
        (3, "expected a JSON object"),
        (None, "expected a JSON object"),
        ({**base, "family": "x"}, "'family' must be a JSON object"),
        ({**base, "family": [[1]]}, "'family' must be a JSON object"),
        ({k: v for k, v in base.items() if k != "family"}, "missing 'family' field"),
        ({**base, "family": {"role": "mono"}}, "missing 'polys' field"),
        ({**base, "family": {"polys": [[1]]}}, "missing 'role' field"),
        (without_h, "missing 'h' field"),
    ):
        with pytest.raises(FormatError) as e:
            Certificate.from_json(json.dumps(obj))
        assert str(e.value) == f"malformed certificate: {message}", obj


def test_certificate_text_with_the_family_text_cold_and_warm():
    # The polys text to_json keeps on each family gives the bytes of
    # json.dumps(..., indent=2): rendered afresh, and kept on the family.
    big = 10**40
    read = PolynomialFamily.from_coeff_lists
    monos = (read([[1], [2]]), read([[-1], [0, 1]]), read([[-2, 0, 1]]), read([[1], [big, -big]]))
    rainbows = (read([[1], [2], [-1, 1]], "rainbow"), read([[-1], [0, 0, 1]], "rainbow"))
    families = set(monos + rainbows)
    rng = random.Random(31)
    certs = []
    for trial in range(400):
        c = random_colouring(rng, rng.randint(3, 12), rng.choice((1, 2)), rng.choice((None, 2)), rng.choice((3, 6)))
        mono = rng.choice(monos) if trial % 2 else None
        cert = find_witness(c, mono, rng.choice(rainbows), 0, POLICY_ANY)
        if cert is not None:
            certs.append(dataclasses.replace(cert, kind="é✓") if trial % 7 == 0 else cert)
    assert {cert.family for cert in certs} == families

    def round_trip(cert):
        text = cert.to_json()
        assert text == _json_dumps_certificate(cert), cert
        back = Certificate.from_json(text)
        assert back.to_json() == text
        if cert.kind != "é✓":
            assert back == cert

    for cert in certs:  # cold
        object.__setattr__(cert.family, "_polys_text", None)
        round_trip(cert)
    for cert in certs:  # warm
        assert cert.family._polys_text is not None
        round_trip(cert)


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

    edge = Certificate(KIND_RAINBOW, 3, 1, (3, 4), None, fam([1], role="rainbow"), colouring_digest(c), "nonzero", 0)
    assert verify_certificate(c, edge).reason == "out of range"

    flat = TypedColouring.single((1, 1, 1))
    broken = Certificate(KIND_RAINBOW, 1, 1, (1, 2), None, fam([1], role="rainbow"), colouring_digest(flat), "nonzero", 0)
    assert verify_certificate(flat, broken).reason == "predicate failed"

    labelled = TypedColouring(m=1, n=2, rows=((1, 2), (2, 2)))
    good = find_witness(labelled, None, fam([1], role="rainbow"))
    wrong_label = dataclasses.replace(good, evidence=1)
    assert verify_certificate(labelled, wrong_label).reason == "evidence mismatch"

    # each kind's own predicate and evidence rules
    not_mono = Certificate(KIND_MONO, 1, 1, (1, 2), 1, fam([1]), colouring_digest(c), "nonzero", 0)
    assert verify_certificate(c, not_mono).reason == "predicate failed"
    assert verify_certificate(c, dataclasses.replace(cert, evidence=1)).reason == "evidence mismatch"
    unbounded = dataclasses.replace(cert, kind=KIND_FULLY_RAINBOW, evidence=1)
    assert verify_certificate(c, unbounded).reason == "predicate failed"
    clash = TypedColouring(m=1, n=2, rows=((1, 1), (1, 1)))
    not_rainbow = Certificate(
        KIND_FULLY_RAINBOW, 1, 1, (1, 2), 1, fam([1], role="rainbow"), colouring_digest(clash),
        "nonzero", 0,
    )
    assert verify_certificate(clash, not_rainbow).reason == "predicate failed"

    # Values equal to the right ints but not ints themselves would verify
    # and then fail Certificate.from_json; they are rejected here too.
    assert (cert.a, cert.d, cert.elements) == (1, 1, (1, 2))
    for name, value in (("a", True), ("d", True), ("elements", (True, 2)), ("a", 1.0), ("a", Loud(1))):
        odd = dataclasses.replace(cert, **{name: value})
        assert verify_certificate(c, odd).reason == "element mismatch", (name, value)
    pair = TypedColouring.single((1, 1))
    mono_cert = find_witness(pair, fam([1]))
    assert mono_cert.evidence == 1 and verify_certificate(pair, mono_cert).ok
    ones = TypedColouring(m=1, n=2, rows=((1, 1), (2, 1)))
    rainbow_one = find_witness(ones, None, fam([1], role="rainbow"))
    assert rainbow_one.evidence == 1 and verify_certificate(ones, rainbow_one).ok
    for col, good_cert in ((pair, mono_cert), (ones, rainbow_one)):
        for value in (True, 1.0):
            odd = dataclasses.replace(good_cert, evidence=value)
            assert verify_certificate(col, odd).reason == "evidence mismatch", (good_cert.kind, value)
        for value in (True, 0.0, -1, Loud(0)):
            odd = dataclasses.replace(good_cert, h=value)
            assert verify_certificate(col, odd).reason == "step not admitted", (good_cert.kind, value)

    # forged steps: every element is right for (a, d), but d is not admitted
    ap3 = fam([1], [2])
    zero = Certificate(KIND_MONO, 2, 0, (2, 2, 2), 1, ap3, colouring_digest(c), "nonzero", 0)
    assert verify_certificate(c, zero).reason == "step not admitted"
    flat7 = TypedColouring.single((0,) * 7)
    backwards = Certificate(KIND_MONO, 7, -3, (7, 4, 1), 1, ap3, colouring_digest(flat7), "positive", 0)
    assert verify_certificate(flat7, backwards).reason == "step not admitted"
    shifted = fam([1, 1], [3, 1], role="rainbow")  # h_value 1
    five = TypedColouring.single((1, 2, 3, 4, 5))
    low = Certificate(
        KIND_RAINBOW, 1, 1, (1, 3, 5), None, shifted, colouring_digest(five),
        POLICY_GT_H_FOR_RAINBOW, 1,
    )
    assert find_witness(five, None, shifted, h=1, d_policy=POLICY_GT_H_FOR_RAINBOW) is None
    assert verify_certificate(five, low).reason == "step not admitted"
    assert verify_certificate(five, dataclasses.replace(low, h=0)).ok

    # Fields no JSON certificate can hold are rejected, not raised on.
    sideways = dataclasses.replace(mono_cert, d_policy="sideways")
    assert verify_certificate(pair, sideways).reason == "step not admitted"
    for name in ("family", "elements"):
        odd = dataclasses.replace(mono_cert, **{name: None})
        assert verify_certificate(pair, odd).reason == "element mismatch", name


def test_verify_certificate_decides_elements_without_building_huge_values():
    c = TypedColouring.single((1, 2, 3))
    digest = colouring_digest(c)
    squares = fam([1], [0, 1])
    for d in (10**50, -(10**50)):  # the claimed elements are the true ones
        cert = Certificate(KIND_MONO, 1, d, (1, 1 + d, 1 + d * d), 1, squares, digest, "nonzero", 0)
        assert verify_certificate(c, cert).reason == "out of range", d
    # At |d| <= 1 the running value can pass the bound and come back:
    # x^26 + ... + x^75 - 2(x + ... + x^25) is 0 at d = 1.
    wave = fam([-2] * 25 + [1] * 50)
    assert verify_certificate(c, Certificate(KIND_MONO, 1, 1, (1, 1), 1, wave, digest, "any", 0)).ok
    # Agreement with evaluate on small steps, exact values and near misses.
    rng = random.Random(2004)
    for _ in range(3000):
        family = fam(*([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] for _ in range(2)))
        d = rng.randint(-6, 6)
        true = tuple(1 + p.evaluate(d) for p in family.polys)
        claimed = tuple(rng.choice((e, e, e, e + 1, e - 1, 1, rng.randint(-(10**6), 10**6))) for e in true)
        cert = Certificate(KIND_MONO, 1, d, (1,) + claimed, 1, family, digest, "any", 0)
        assert (verify_certificate(c, cert).reason == "element mismatch") == (claimed != true)


def test_verify_result_is_truthy():
    c = TypedColouring.single((1, 1))
    cert = find_witness(c, fam([1]))
    assert verify_certificate(c, cert)
    assert not verify_certificate(c, dataclasses.replace(cert, digest="0" * 64))


def test_one_digest_per_colouring(monkeypatch):
    serialized = []

    def counting(colouring):
        serialized.append(colouring)
        return serialize(colouring)

    monkeypatch.setattr(canvdw.coloring, "serialize", counting)
    c = TypedColouring(m=2, n=2, rows=((0, 3, 1), (1, 3, 2), (0, 4, 1), (2, 5, 2), (0, 6, 1)))
    cert = find_witness(c, fam([1], [2]), fam([1], role="rainbow"))
    assert cert is not None
    back = Certificate.from_json(cert.to_json())
    assert back == cert and verify_certificate(c, back).ok
    elems = cert.elements
    mutated = (
        dataclasses.replace(cert, elements=elems[:-1] + (elems[-1] + 1,)),
        dataclasses.replace(cert, a=cert.a + 1),
        dataclasses.replace(cert, digest="0" * 64),
    )
    assert [verify_certificate(c, m).reason for m in mutated] == [
        "element mismatch", "element mismatch", "digest mismatch",
    ]
    assert serialized == [c]

    fresh = TypedColouring(c.m, c.n, c.rows)
    assert colouring_digest(c) == hashlib.sha256(serialize(fresh).encode("utf-8")).hexdigest()
    assert colouring_digest(fresh) == colouring_digest(c)
    assert len(serialized) == 2

    changed = dataclasses.replace(c, rows=c.rows[:-1] + ((1, 6, 1),))
    assert colouring_digest(changed) == hashlib.sha256(serialize(changed).encode("utf-8")).hexdigest()
    assert colouring_digest(changed) != colouring_digest(c)
    assert len(serialized) == 3 and serialized[-1] is changed

    plain = TypedColouring(1, 2, ((4, 1), (4, 2)))
    twin = TypedColouring(1, 2, ((4, 1), (4, 2)))
    before = (plain == twin, hash(plain), repr(plain))
    colouring_digest(plain)
    assert (plain == twin, hash(plain), repr(plain)) == before
    assert before[0] and hash(twin) == before[1] and repr(twin) == before[2]


def test_first_witness_is_the_certified_witness():
    # find_witness certifies exactly what first_witness finds, on every
    # colouring shape, step policy and threshold.
    rng = random.Random(808)
    mono = fam([1], [2])
    found = 0
    for trial in range(600):
        m = rng.choice((1, 2))
        n = rng.choice((None, 2, 3))
        c = random_colouring(rng, rng.randint(1, 8), m, n, classes=rng.choice((2, 5)))
        rain = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2)
        for policy in D_POLICIES:
            for h in (0, 1):
                args = (c, mono if trial % 3 else None, rain if trial % 3 != 1 else None, h, policy)
                w = first_witness(*args)
                cert = find_witness(*args)
                assert (w is None) == (cert is None)
                if cert is not None:
                    found += 1
                    assert w == (cert.kind, cert.a, cert.d, cert.elements, cert.evidence)
    assert found > 1000


def test_first_witness_matches_the_reference_scan():
    # The column-picking scan against the scan written out from the public
    # predicates, on every coordinate shape from no labels to three
    # unbounded coordinates, lengths from 0, every step policy and h, and
    # mono families with zero or repeated members.  The first coordinate of
    # every colouring with one, scanned as a plain label tuple, gives the
    # reference's witness for the colouring of that one coordinate.
    rng = random.Random(20040776)
    monos = (None, fam([1], [2]), fam([]), fam([], [1]), fam([1], [1]), fam([0, 1]), fam([-1], [2]))
    kinds = set()
    shapes = set()
    for trial in range(3000):
        m = trial % 4
        n = (None, 2, 3)[trial // 4 % 3]
        length = 0 if trial % 13 == 0 else rng.randint(1, 12)
        c = random_colouring(rng, length, m, n, classes=rng.choice((2, 3, 6)))
        policy = D_POLICIES[trial // 12 % 4]
        h = trial // 48 % 3
        rain = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2) if trial % 5 else None
        args = (c, rng.choice(monos), rain, h, policy)
        w = first_witness(*args)
        assert w == reference_first_witness(*args), args
        if m >= 1:
            labels = c.coordinate(1)
            single = TypedColouring.single(labels)
            scan = witness_scanner(args[1], rain, length, h, policy)
            want = reference_first_witness(single, *args[1:])
            assert scan(labels) == scan(single) == want, args
        kinds.add(None if w is None else w.kind)
        shapes.add((m, n, length == 0))
    assert kinds == {None, KIND_MONO, KIND_RAINBOW, KIND_FULLY_RAINBOW}
    assert len(shapes) == 24


def test_witness_scanner_checks_its_inputs(monkeypatch):
    # Policy and h are refused before any plan is built, and a scanner only
    # takes colourings, or plain label tuples, of its own length.
    plans: dict = {}
    monkeypatch.setattr(canvdw.witness, "_plans", plans)
    mono = fam([1], [2])
    with pytest.raises(ValueError, match="unknown d policy"):
        witness_scanner(mono, None, 5, 0, "sideways")
    with pytest.raises(ValueError, match="h must be non-negative"):
        witness_scanner(mono, None, 5, -1)
    for h in (True, 1.0, Loud(1)):  # a certificate would store h as given
        with pytest.raises(ValueError, match="h must be an int"):
            witness_scanner(mono, None, 5, h)
    assert plans == {}
    scan = witness_scanner(mono, None, 5)
    assert len(plans) == 1
    for length in (0, 4, 6):
        with pytest.raises(ValueError, match=f"length 5 got a colouring of length {length}"):
            scan(TypedColouring.single((0,) * length))
        with pytest.raises(ValueError, match=f"length 5 got a colouring of length {length}"):
            scan((0,) * length)
    assert scan(TypedColouring.single((0, 1, 1, 0, 0))) is None
    assert scan(TypedColouring.single((0, 0, 0, 1, 1))) == (KIND_MONO, 1, 1, (1, 2, 3), 1)
    assert scan((0, 1, 1, 0, 0)) is None
    assert scan((0, 0, 0, 1, 1)) == (KIND_MONO, 1, 1, (1, 2, 3), 1)


def test_plan_cache_evicts_oldest_inserted_plans_within_its_bound(monkeypatch):
    # No benchmark workload fills the 500,000-probe plan cache, so shrink
    # it to 1,000 probes and scan lengths 20-40, whose plans hold 90 to 800
    # probes each.  The held probes stay within the bound, a hit does not
    # reorder the cache, the oldest-inserted plans leave first, an eviction
    # empties the probe table, and every answer is the one a scan from
    # empty caches gives.
    plans: dict = {}
    probes: dict = {}
    monkeypatch.setattr(canvdw.witness, "_plans", plans)
    monkeypatch.setattr(canvdw.witness, "_probes", probes)
    rng = random.Random(2718)
    mono = fam([1], [2])
    # Plans of one family pair at two lengths share every probe of the
    # shorter one, as the same objects.
    witness_scanner(mono, fam([1], role="rainbow"), 20)
    witness_scanner(mono, fam([1], role="rainbow"), 24)
    short, long = plans.values()
    assert {id(p) for p in short} < {id(p) for p in long}
    assert len(probes) == len(long)
    monkeypatch.setattr(canvdw.witness, "_PLAN_CACHE_PROBES", 1000)
    pairs = (
        (mono, None, D_POLICIES),
        (mono, fam([2], role="rainbow"), (POLICY_POSITIVE,)),
        (None, fam([1], role="rainbow"), (POLICY_POSITIVE, POLICY_GT_H_FOR_RAINBOW)),
    )
    cases = []
    for _ in range(400):
        c = random_colouring(rng, rng.randint(20, 40), rng.choice((1, 2)), rng.choice((None, 2)))
        mono_fam, rain_fam, policies = rng.choice(pairs)
        cases.append((c, mono_fam, rain_fam, 0, rng.choice(policies)))
    expected = []
    for args in cases:
        plans.clear()
        probes.clear()
        expected.append(first_witness(*args))
    plans.clear()
    probes.clear()
    evicted = 0
    for args, want in zip(cases, expected):
        before = list(plans)
        assert first_witness(*args) == want
        after = list(plans)
        if after != before:
            kept, new = after[:-1], after[-1]
            assert new not in before
            assert kept == before[len(before) - len(kept):]
            if len(kept) < len(before):
                # An eviction empties the probe table.
                assert probes == {}
            evicted += len(before) - len(kept)
        assert sum(map(len, plans.values())) <= 1000
        assert len(probes) <= 1000
    assert evicted > 50


def test_plan_cache_does_not_keep_a_plan_over_its_bound(monkeypatch):
    # A plan with more probes than the whole bound is scanned but not kept,
    # and its probes are not kept interned either, even when the cache was
    # empty before it.
    plans: dict = {}
    probes: dict = {}
    monkeypatch.setattr(canvdw.witness, "_plans", plans)
    monkeypatch.setattr(canvdw.witness, "_probes", probes)
    monkeypatch.setattr(canvdw.witness, "_PLAN_CACHE_PROBES", 100)
    rng = random.Random(35)
    mono = fam([1], [2])
    for c in (TypedColouring.single((0,) * 40), random_colouring(rng, 40, 1, None, 3)):
        assert first_witness(c, mono) == reference_first_witness(c, mono)
        assert plans == {} and probes == {}


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
    with pytest.raises(ValueError):
        find_focused_collection(distinct, B, 4, h=-3, target_norm=1)
    # Reaching norm 3 needs backtracking: the search first includes
    # (1, (2,)), whose label 1 blocks (4, (5,)), and must back up out of it.
    # Including, excluding and backing up each cost one unit: 15 fall short.
    tangled = TypedColouring(1, 2, ((0, 1), (1, 1), (2, 1), (4, 1), (1, 2)))
    assert find_focused_collection(tangled, B, 1, target_norm=3, node_budget=15) is None
    assert find_focused_collection(tangled, B, 1, target_norm=3, node_budget=16).members == (
        (2, (3,)),
        (3, (4,)),
        (4, (5,)),
    )
    # Every candidate is compatible and the norm never reaches 5 (one final
    # label, weight past m+1), so the search includes all 2,999 candidates
    # in a row before backing up: far deeper than the recursion limit.
    deep = TypedColouring(m=1, n=1, rows=tuple((i, 1) for i in range(1, 3001)))
    assert find_focused_collection(deep, B, 1, target_norm=5, node_budget=100000) is None
    assert find_focused_collection(deep, B, 1, target_norm=2, node_budget=100000).members == (
        (1, (2,)),
        (2, (3,)),
    )


def test_step_scans_do_not_expand_anchors():
    # find_focused_collection reads the step scan, not the anchor expansion:
    # at length 1000 the plan for x holds about 500,000 probes.
    B = fam([1], role="rainbow")
    length = 1000
    distinct = TypedColouring(m=1, n=1, rows=tuple((i, 1) for i in range(1, length + 1)))
    tracemalloc.start()
    try:
        found = find_focused_collection(distinct, B, length // 2, target_norm=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None and found.members == ((1, (length // 2 + 1,)),)
    assert peak < 1 << 20


def test_zero_mono_family_is_scanned_at_one_step():
    # A family with no nonzero member has offsets (0, ..., 0) at every
    # step, so the step scan lists it only at its first admitted step: 60
    # mono probes at length 60, not one per anchor of each of 120 steps.
    zero, x = fam([]), fam([1], role="rainbow")
    for policy in D_POLICIES:
        mono = [
            (d, a_min, a_max)
            for d, slots in admitted_steps(zero, x, 60, 0, policy)
            for kind, _, a_min, a_max in slots
            if kind == KIND_MONO
        ]
        assert mono == [(0 if policy == POLICY_ANY else 1, 1, 60)], policy
    # That first probe decides every scan: it hits whenever m >= 1, and no
    # mono probe can hit when m = 0.
    rng = random.Random(20201118)
    for _ in range(40):
        length = rng.randint(1, 12)
        col = random_colouring(rng, length, m=1, classes=3)
        cert = find_witness(col, zero, x)
        assert (cert.kind, cert.a, cert.d, cert.elements) == (KIND_MONO, 1, 1, (1, 1))
        col = random_colouring(rng, length, m=0, n=3)
        cert = find_witness(col, fam([], []), x)
        assert cert is None or cert.kind == KIND_FULLY_RAINBOW


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


def test_verifier_refuses_steps_the_scanner_does_not_admit():
    # Every certificate the scanner writes verifies.  Re-anchoring it at a
    # step its policy refuses, with elements and evidence recomputed so that
    # range and predicate still hold, must be rejected for the step alone.
    rng = random.Random(7766)
    forged = 0
    below_h = 0  # rainbow steps in 1..h under the threshold policy
    for _ in range(120):
        mono = fam(*random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2).coeff_lists())
        rainbow = random_rainbow_family(rng, max_size=2, max_deg=2, coeff_abs=2)
        length = rng.randint(4, 12)
        c = random_colouring(rng, length, rng.choice((1, 2)), rng.choice((None, 2)), classes=4)
        for policy in D_POLICIES:
            for h in (0, 1, 2):
                cert = find_witness(c, mono, rainbow, h, policy)
                if cert is None:
                    continue
                assert cert.h == h
                assert verify_certificate(c, cert).ok
                for d in range(-length, length + 1):
                    if step_admitted(cert.kind, d, h, policy):
                        continue
                    elems = (cert.a,) + tuple(cert.a + p.evaluate(d) for p in cert.family.polys)
                    if any(not 1 <= e <= length for e in elems):
                        continue
                    if cert.kind == KIND_MONO:
                        evidence = is_monochromatic(c, elems)
                        holds = evidence is not None
                    elif cert.kind == KIND_RAINBOW:
                        evidence, holds = None, is_rainbow(c, elems)
                    else:
                        evidence = is_fully_rainbow(c, elems)
                        holds = evidence is not None
                    if not holds:
                        continue
                    moved = dataclasses.replace(cert, d=d, elements=elems, evidence=evidence)
                    assert verify_certificate(c, moved).reason == "step not admitted", moved
                    forged += 1
                    below_h += d > 0
    assert forged > 200 and below_h > 0


def _brute_force_steps(mono, rainbow, length, h, policy):
    # Every step up to well past any window bound, checked one by one.
    fams = [(k, f) for k, f in ((KIND_MONO, mono), (KIND_RAINBOW, rainbow)) if f is not None and f.polys]
    reach = 2 * (length + max(sum(map(abs, p.coeffs)) for _, f in fams for p in f.polys)) + 10
    found = []
    for d in [0] + [s for size in range(1, reach + 1) for s in (size, -size)]:
        for kind, f in fams:
            offsets = (0,) + tuple(p.evaluate(d) for p in f.polys)
            if not step_admitted(kind, d, h, policy):
                continue
            if kind == KIND_RAINBOW and len(set(offsets)) < len(offsets):
                continue
            a_min, a_max = 1 - min(offsets), length - max(offsets)
            if max(1, a_min) <= min(length, a_max):
                found.append((d, kind, offsets, max(1, a_min), min(length, a_max)))
    return found


def test_step_scan_window_bound_matches_brute_force():
    # A family that never moves fits every step, so mono families here keep
    # at least one nonzero member; they may hold the zero polynomial and
    # repeated members.
    rng = random.Random(20200417)
    for _ in range(300):
        members = random_rainbow_family(rng, max_size=3, max_deg=3, coeff_abs=4).coeff_lists()
        members += [rng.choice(([], members[0])) for _ in range(rng.randint(0, 2))]
        mono = fam(*members) if rng.random() < 0.8 else None
        rainbow = random_rainbow_family(rng, max_size=3, max_deg=3, coeff_abs=4)
        if mono is not None and rng.random() < 0.3:
            rainbow = None
        length = rng.randint(1, 30)
        h = rng.randint(0, 3)
        policy = rng.choice(D_POLICIES)
        scanned = [
            (d, kind, offsets, a_min, a_max)
            for d, slots in admitted_steps(mono, rainbow, length, h, policy)
            for kind, offsets, a_min, a_max in slots
        ]
        assert scanned == _brute_force_steps(mono, rainbow, length, h, policy), (mono, rainbow, length, h, policy)
    # The bound divides by the leading coefficient: a 31-digit coefficient
    # ends the scan at once instead of after about 10**30 empty steps.
    assert list(admitted_steps(fam([10**30]), None, 3, 0, POLICY_ANY)) == [(0, [(KIND_MONO, (0, 0), 1, 3)])]
    assert find_witness(TypedColouring.single((0, 1, 2)), fam([10**30], [1])) is None
