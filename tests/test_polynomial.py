import random
import time

import pytest

from canvdw.polynomial import (
    FormatError,
    IntegralPolynomial,
    PolynomialFamily,
    bstar_family,
    dump_family,
    h_value,
    parse_family,
    scale_family,
    shift_difference,
    weight_less,
    weight_vector,
)

from _helpers import Loud, TWO_X, X, X_SQ, brute_force_shift_threshold, fam, poly, random_rainbow_family


def test_normal_form_strips_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (1, 2)
    assert poly(0, 0).coeffs == ()
    assert poly().is_zero()
    assert poly().degree == 0
    assert poly().leading_coefficient is None
    assert poly(0, 3).degree == 2
    assert poly(0, 3).leading_coefficient == 3


def test_evaluate():
    assert X_SQ.evaluate(3) == 9
    assert TWO_X.evaluate(0) == 0
    assert poly(1, 1).evaluate(2) == 6
    assert poly(-2, 0, 1).evaluate(-3) == -27 + 6
    assert poly().evaluate(17) == 0


def test_shift_difference_examples():
    assert shift_difference(X_SQ, 1) == poly(2, 1)
    assert shift_difference(poly(0, 0, 1), 2) == poly(12, 6, 1)
    # linear polynomials are shift-invariant
    assert shift_difference(TWO_X, 7) == TWO_X
    assert shift_difference(poly(), 5) == poly()


def test_shift_difference_is_a_shift():
    rng = random.Random(42)
    for _ in range(300):
        deg = rng.randint(1, 4)
        p = poly(*[rng.randint(-10, 10) for _ in range(deg)])
        h = rng.randint(-20, 20)
        q = shift_difference(p, h)
        for d in (rng.randint(-20, 20), 0, 1):
            assert q.evaluate(d) == p.evaluate(d + h) - p.evaluate(h)
        assert shift_difference(p, 0) == p
        if not p.is_zero():
            assert q.degree == p.degree
            assert q.leading_coefficient == p.leading_coefficient


def test_weight_vector_examples():
    assert weight_vector(fam([1], [2], [0, 1])) == (2, 1)
    assert weight_vector(fam([-1, 1], [1, 1])) == (0, 1)
    assert weight_vector(fam([1])) == (1,)
    with pytest.raises(ValueError):
        weight_vector(fam())
    with pytest.raises(ValueError):
        weight_vector(fam([0]))


def test_weight_less_examples():
    assert weight_less((3, 1), (1, 2))
    assert weight_less((0, 1), (1, 1))
    assert not weight_less((1, 2), (3, 1))
    assert not weight_less((2, 1), (2, 1))
    # shorter vectors are padded with zeros at the top
    assert weight_less((5,), (0, 1))
    assert not weight_less((0, 1), (5,))


def test_weight_less_is_a_strict_total_order():
    rng = random.Random(7)
    vecs = [tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4))) for _ in range(40)]
    for u in vecs:
        assert not weight_less(u, u)
        for v in vecs:
            padded_eq = u + (0,) * (len(v) - len(u)) == v + (0,) * (len(u) - len(v))
            assert weight_less(u, v) or weight_less(v, u) or padded_eq
            assert not (weight_less(u, v) and weight_less(v, u))
            for w in vecs:
                if weight_less(u, v) and weight_less(v, w):
                    assert weight_less(u, w)


def test_weight_descent_terminates():
    # Random strictly decreasing steps with entries capped at 6 must stop.
    rng = random.Random(11)
    for _ in range(50):
        current = tuple(rng.randint(0, 6) for _ in range(3))
        steps = 0
        while any(current):
            counts = list(current)
            drop_at = max(i for i, c in enumerate(counts) if c)
            counts[drop_at] -= 1
            for i in range(drop_at):
                counts[i] = rng.randint(0, 6)
            nxt = tuple(counts)
            assert weight_less(nxt, current)
            current = nxt
            steps += 1
            assert steps <= 7**3


def test_h_value_examples():
    grown = fam([1, 1], [3, 1])
    assert h_value(grown) == 1
    assert brute_force_shift_threshold(grown) == 1
    squares = fam([0, 1])
    assert h_value(squares) == 0
    assert brute_force_shift_threshold(squares) == 0
    lines = fam([1], [2])
    assert h_value(lines) == 0
    assert brute_force_shift_threshold(lines) == 0
    with pytest.raises(ValueError):
        h_value(fam())


def test_h_value_matches_brute_force_on_random_families():
    rng = random.Random(13)
    for _ in range(60):
        family = random_rainbow_family(rng, max_size=3, max_deg=3, coeff_abs=4)
        assert h_value(family) == brute_force_shift_threshold(family)


def test_h_value_nontrivial_thresholds():
    rng = random.Random(17)
    seen_positive = 0
    for _ in range(300):
        base = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 3))])
        if base.is_zero() or base.degree < 2:
            continue
        shift = rng.randint(1, 5)
        partner = shift_difference(base, shift)
        if partner == base:
            continue
        family = PolynomialFamily((base, partner))
        got = h_value(family)
        assert got >= shift
        assert got == brute_force_shift_threshold(family, cap=200)
        seen_positive += 1
    assert seen_positive > 50


def test_bstar_family_examples():
    derived = bstar_family(fam([1], [0, 1], role="rainbow"), 0, 1)
    assert [p.coeffs for p in derived.polys] == [(-1, 1), (1, 1)]
    collapsed = bstar_family(fam([1], [2], role="rainbow"), 0, 3)
    assert [p.coeffs for p in collapsed.polys] == [(1,)]
    assert weight_less(weight_vector(derived), weight_vector(fam([1], [0, 1])))


def test_bstar_family_errors():
    with pytest.raises(ValueError):
        bstar_family(fam([1], [0, 1], role="rainbow"), 2, 2)  # cap not above h
    with pytest.raises(ValueError):
        bstar_family(fam([0, 1], [1], role="rainbow"), 0, 1)  # first member not minimal degree
    with pytest.raises(ValueError):
        bstar_family(fam([1], [2]), 0, 1)  # mono role rejected
    with pytest.raises(ValueError):
        bstar_family(fam([1], [0, 1], role="rainbow"), -2, 1)  # would add a d = -1 shift
    with pytest.raises(ValueError):
        bstar_family(fam(role="rainbow"), 0, 1)  # empty family


def test_bstar_members_are_shifted_differences():
    rng = random.Random(19)
    for _ in range(40):
        family = random_rainbow_family(rng, max_size=3, max_deg=3, coeff_abs=3)
        h = h_value(family)
        derived = bstar_family(family, h, h + 3)
        base = family.polys[0]
        expected = set()
        for d in (0, *range(h + 1, h + 4)):
            for p in family.polys:
                cand = shift_difference(p, d) - base
                if not cand.is_zero():
                    expected.add(cand)
        assert set(derived.polys) == expected
        assert len(set(derived.polys)) == len(derived.polys)


def test_bstar_family_stops_at_zero_for_linear_members():
    # Every member linear: no d > 0 adds a member, so a huge cap answers at
    # once.  On random families, linear or not, the members and their order
    # are those of the plain formula over {0} and (h, d_cap].
    start = time.perf_counter()
    assert bstar_family(fam([1], role="rainbow"), 0, 10**8).polys == ()
    ap4 = fam([1], [2], [3], role="rainbow")
    assert [p.coeffs for p in bstar_family(ap4, 5, 10**18).polys] == [(1,), (2,)]
    assert time.perf_counter() - start < 1
    rng = random.Random(31)
    for trial in range(80):
        family = random_rainbow_family(rng, max_size=3, max_deg=1 + 2 * (trial % 2), coeff_abs=3)
        h = rng.randint(0, 3)
        d_cap = h + rng.randint(1, 4)
        base = family.polys[0]
        expected = []
        for d in (0, *range(h + 1, d_cap + 1)):
            for p in family.polys:
                cand = shift_difference(p, d) - base
                if not cand.is_zero() and cand not in expected:
                    expected.append(cand)
        assert bstar_family(family, h, d_cap).polys == tuple(expected)


def test_bstar_shift_members_never_equal_difference_members():
    # For steps beyond the family's shift threshold, a shifted-difference
    # member can only coincide with a plain difference member through the
    # shift-invariance of a linear member, which dedup folds away.
    rng = random.Random(23)
    for _ in range(60):
        family = random_rainbow_family(rng, max_size=3, max_deg=3, coeff_abs=3)
        h = h_value(family)
        base = family.polys[0]
        for d in range(h + 1, h + 4):
            for q in family.polys:
                for target in family.polys:
                    if q == target and q.degree < 2:
                        continue
                    assert shift_difference(q, d) - base != target - base


def test_scale_family():
    scaled = scale_family(fam([0, 1, 1]), 2)
    assert scaled.polys[0].coeffs == (0, 2, 4)
    assert scale_family(fam([1], [2]), 1) == fam([1], [2])
    with pytest.raises(ValueError):
        scale_family(fam([1]), 0)


def test_scale_family_preserves_size_and_weight():
    rng = random.Random(29)
    for _ in range(50):
        family = random_rainbow_family(rng)
        factor = rng.randint(1, 6)
        scaled = scale_family(family, factor)
        assert scaled.role == family.role
        assert len(set(scaled.polys)) == len(set(family.polys))
        assert weight_vector(scaled) == weight_vector(family)


def test_rainbow_family_invariants():
    with pytest.raises(ValueError):
        PolynomialFamily((X, X), "rainbow")
    with pytest.raises(ValueError):
        PolynomialFamily((X, poly()), "rainbow")
    # mono families may repeat and may hold the zero polynomial
    PolynomialFamily((X, X, poly()))
    with pytest.raises(ValueError):
        PolynomialFamily((X,), "sparkly")


def test_family_hash_follows_equality():
    padded = PolynomialFamily.from_coeff_lists([[1, 0]])
    plain = PolynomialFamily.from_coeff_lists([[1]])
    assert padded == plain and hash(padded) == hash(plain)
    rng = random.Random(29)
    for _ in range(100):
        lists = [[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 3))]
        same = PolynomialFamily.from_coeff_lists([cs + [0] * rng.randint(0, 2) for cs in lists])
        assert same == PolynomialFamily.from_coeff_lists(lists)
        assert hash(same) == hash(PolynomialFamily.from_coeff_lists(lists))
    mono = PolynomialFamily.from_coeff_lists([[1], [2]], "mono")
    rainbow = PolynomialFamily.from_coeff_lists([[1], [2]], "rainbow")
    assert mono != rainbow
    assert len({mono, rainbow, PolynomialFamily.from_coeff_lists([[1], [2]])}) == 2


def test_parse_and_dump_family():
    family = parse_family('{"polys": [[1], [2], [0, 1]], "role": "mono"}')
    assert [p.coeffs for p in family.polys] == [(1,), (2,), (0, 1)]
    assert parse_family(dump_family(family)) == family
    with pytest.raises(FormatError):
        parse_family('{"role": "mono"}')
    with pytest.raises(FormatError):
        parse_family('{"polys": [[1], ["x"]]}')
    for coeffs in ([True], [1, 2.0], [1, Loud(2)]):
        with pytest.raises(FormatError):
            PolynomialFamily.from_coeff_lists([[1], coeffs])
    with pytest.raises(FormatError):
        parse_family('{"polys": [[1], [1]], "role": "rainbow"}')
    with pytest.raises(FormatError):
        parse_family("[" * 200_000)  # nested past the recursion limit
    err = None
    try:
        parse_family('{"polys": [[1],\n [2],]}')
    except FormatError as e:
        err = e
    assert err is not None and err.line == 2


class Tag(str):
    """A str subclass: it equals its text, so a role of it passes as one."""


def _read(lists, role="mono"):
    # The reader's answer: its family, or its FormatError message.
    try:
        return PolynomialFamily.from_coeff_lists(lists, role)
    except FormatError as e:
        return e.message


def test_family_reader_refuses_lookalikes():
    # Reads that only compare equal to [[1], [2]] give their own answer:
    # a FormatError message, or a family of the role they were given.
    lookalikes = (
        ([[True], [2]], "mono"),
        ([[1.0], [2]], "mono"),
        ([[Loud(1)], [2]], "mono"),
        ([[1], [2]], ["mono"]),
        ([[1], [2]], None),
        ([[1], [2]], Tag("mono")),
        ([[1], [2]], "rainbow"),
    )
    got = [_read(lists, role) for lists, role in lookalikes]
    assert got[:5] == [
        "coefficients must be ints, got True",
        "coefficients must be ints, got 1.0",
        "coefficients must be ints, got 1",
        "unknown family role ['mono']",
        "unknown family role None",
    ]
    assert got[5] == fam([1], [2], role=Tag("mono")) and type(got[5].role) is Tag
    assert got[6] == fam([1], [2], role="rainbow") and type(got[6].role) is str
    # Equal exact-int reads give equal families, whatever their containers.
    assert _read([[1], [2]]) == _read(((1,), (2,)))
    assert _read([[1], [2]], "rainbow") == _read([(1,), [2]], "rainbow")
    # Trailing zeros read as equal families.
    assert _read([[1, 0]]) == _read([[1]]) == _read([[1]])
