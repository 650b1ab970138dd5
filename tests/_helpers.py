"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random

from canvdw import (
    D_POLICIES,
    FocusedCollection,
    TypedColouring,
    WitnessSet,
    admitted_steps,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
)
from canvdw.polynomial import IntegralPolynomial, PolynomialFamily
from canvdw.witness import KIND_FULLY_RAINBOW, KIND_MONO, KIND_RAINBOW


def poly(*coeffs: int) -> IntegralPolynomial:
    return IntegralPolynomial(tuple(coeffs))


def fam(*coeff_lists, role: str = "mono") -> PolynomialFamily:
    return PolynomialFamily(tuple(IntegralPolynomial(tuple(cs)) for cs in coeff_lists), role)


class Loud(int):
    """An int subclass that prints unlike its value: the library stores only
    exact ints, so it refuses this wherever it takes an integer."""

    def __str__(self):
        return "loud"


X = poly(1)
TWO_X = poly(2)
X_SQ = poly(0, 1)


def brute_force_shift_threshold(family: PolynomialFamily, cap: int = 100) -> int:
    """Largest h' in 1..cap at which some admissible pair collides under the
    shift-difference, checked by full polynomial equality."""
    from canvdw.polynomial import shift_difference

    members: list[IntegralPolynomial] = []
    for p in family.polys:
        if p not in members:
            members.append(p)
    worst = 0
    for h in range(1, cap + 1):
        for q in members:
            for target in members:
                if q == target and q.degree < 2:
                    continue
                if shift_difference(q, h) == target:
                    worst = max(worst, h)
    return worst


def reference_first_witness(
    colouring: TypedColouring,
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None = None,
    h: int = 0,
    d_policy: str = "nonzero",
) -> WitnessSet | None:
    """first_witness's scan written out from public pieces: the step scan
    expanded into anchors, mono before rainbow at each (a, d), each
    candidate judged by the public predicates on the colouring's rows.
    Shares no plan cache, probe or column picker with the library scan."""
    if d_policy not in D_POLICIES:
        raise ValueError(f"unknown d policy {d_policy!r}")
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    bounded = colouring.n is not None
    for d, slots in admitted_steps(mono_family, rainbow_family, colouring.length, h, d_policy):
        for a in range(min(s[2] for s in slots), max(s[3] for s in slots) + 1):
            for kind, offsets, a_min, a_max in slots:
                if not a_min <= a <= a_max:
                    continue
                elems = tuple(a + off for off in offsets)
                if kind == KIND_MONO:
                    j = is_monochromatic(colouring, elems)
                    if j is not None:
                        return WitnessSet(KIND_MONO, a, d, elems, j)
                elif bounded:
                    lab = is_fully_rainbow(colouring, elems)
                    if lab is not None:
                        return WitnessSet(KIND_FULLY_RAINBOW, a, d, elems, lab)
                elif is_rainbow(colouring, elems):
                    return WitnessSet(KIND_RAINBOW, a, d, elems, None)
    return None


def reference_walk(cfg, depth_cap: int, limit: int | None = None):
    """The pruned walk written as plain recursion over canonical prefixes,
    children in label order: a child is blocked iff reference_first_witness
    finds a witness in the prefix with the child appended, and every child
    tried, leaves included, is one node.  Returns (counts per length, nodes,
    the first limit colourings of length depth_cap, all when limit is
    None), stopping once it has limit of them, or (None, node_budget + 1,
    []) once the node budget runs out.  Its counts and nodes are what
    _run_tree returns at n_limit = depth_cap, and its colourings what
    _look_ahead_walk keeps.  Shares no probe, mask or bitset with the
    library walks."""
    budget = cfg.node_budget
    counts = [1] + [0] * depth_cap
    collected: list[tuple[int, ...]] = []
    nodes = 0

    def visit(prefix: list[int], classes: int) -> bool:
        # True once the walk must stop: the budget ran out or limit is met.
        nonlocal nodes
        fresh = cfg.max_classes is None or classes < cfg.max_classes
        for v in range(classes + 1 if fresh else classes):
            nodes += 1
            if budget is not None and nodes > budget:
                return True
            child = prefix + [v]
            found = reference_first_witness(
                TypedColouring.single(child), cfg.mono_family, cfg.rainbow_family, cfg.h, cfg.d_policy
            )
            if found is not None:
                continue
            counts[len(child)] += 1
            if len(child) < depth_cap:
                if visit(child, max(classes, v + 1)):
                    return True
            else:
                collected.append(tuple(child))
                if len(collected) == limit:
                    return True
        return False

    visit([], 0)
    if budget is not None and nodes > budget:
        return None, nodes, []
    return counts, nodes, collected


def bell_sequence(upto: int) -> list[int]:
    # Triangle recurrence, independent of the library implementation path:
    # each row starts with the previous row's last entry and accumulates.
    values = [1]
    row = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        values.append(row[0])
    return values


def random_colouring(
    rng: random.Random, length: int, m: int = 1, n: int | None = None, classes: int = 4
) -> TypedColouring:
    rows = []
    for _ in range(length):
        row = [rng.randrange(classes) for _ in range(m)]
        if n is not None:
            row.append(rng.randint(1, n))
        rows.append(tuple(row))
    return TypedColouring(m, n, tuple(rows))


def relabel(colouring: TypedColouring, rng: random.Random) -> TypedColouring:
    """Apply one random injective map to the whole unbounded palette.

    The map is shared by all unbounded coordinates: label equalities across
    coordinates carry meaning for the rainbow predicate, so per-coordinate
    maps would not be value-preserving.
    """
    labels = sorted({lab for row in colouring.rows for lab in row[: colouring.m]})
    fresh = rng.sample(range(100, 100 + 10 * len(labels) + 10), len(labels))
    mapping = dict(zip(labels, fresh))
    rows = []
    for row in colouring.rows:
        new = [mapping[row[k]] for k in range(colouring.m)]
        if colouring.n is not None:
            new.append(row[colouring.m])
        rows.append(tuple(new))
    return TypedColouring(colouring.m, colouring.n, tuple(rows))


def merge_two_classes(colouring: TypedColouring, rng: random.Random) -> TypedColouring:
    """Coarsen the unbounded palette by merging two label values wherever
    they appear, in every unbounded coordinate.

    Returns the colouring unchanged when only one value is in use.
    """
    labels = sorted({lab for row in colouring.rows for lab in row[: colouring.m]})
    if len(labels) < 2:
        return colouring
    a, b = rng.sample(labels, 2)
    rows = []
    for row in colouring.rows:
        new = [a if row[k] == b else row[k] for k in range(colouring.m)]
        if colouring.n is not None:
            new.append(row[colouring.m])
        rows.append(tuple(new))
    return TypedColouring(colouring.m, colouring.n, tuple(rows))


def random_rainbow_family(rng: random.Random, max_size: int = 4, max_deg: int = 3, coeff_abs: int = 5) -> PolynomialFamily:
    """Random pairwise-distinct family without the zero polynomial, reordered
    so the first member has minimal degree."""
    size = rng.randint(1, max_size)
    members: list[IntegralPolynomial] = []
    while len(members) < size:
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-coeff_abs, coeff_abs) for _ in range(deg)]
        coeffs[-1] = rng.choice([c for c in range(-coeff_abs, coeff_abs + 1) if c != 0])
        p = IntegralPolynomial(tuple(coeffs))
        if not p.is_zero() and p not in members:
            members.append(p)
    members.sort(key=lambda p: p.degree)
    first = members[0]
    rest = members[1:]
    rng.shuffle(rest)
    return PolynomialFamily((first, *rest), "rainbow")


def pigeonhole_instance(rng: random.Random):
    """A valid focused collection of norm (m+1)*n, with every bounded label
    carrying exactly m+1 members, plus a focus coloured adversarially.

    The focus's unbounded labels are sampled to clash with member elements
    about half the time, which can spoil at most m of the members.
    """
    m = rng.choice((1, 2))
    n = rng.choice((1, 2))
    family = rng.choice((fam([1], role="rainbow"), fam([1], [2], role="rainbow")))
    q = (m + 1) * n
    focus = 1
    steps = [2 * i - 1 for i in range(1, q + 1)]  # odd steps keep patterns disjoint
    member_elems = []
    for d in steps:
        member_elems.append(tuple(focus + p.evaluate(d) for p in family.polys))
    length = max(e for elems in member_elems for e in elems) + 1

    finals = [1 + (i // (m + 1)) for i in range(q)]  # m+1 members per label
    rng.shuffle(finals)

    # Unique unbounded labels everywhere; member positions then get the
    # member's shared final label.
    rows = []
    for pos in range(1, length + 1):
        row = [1000 + pos * 10 + k for k in range(m)]
        row.append(1)
        rows.append(row)
    for elems, fin in zip(member_elems, finals):
        for e in elems:
            rows[e - 1][m] = fin
    rows[focus - 1][m] = rng.randint(1, n)

    member_labels = [rows[e - 1][k] for elems in member_elems for e in elems for k in range(m)]
    for k in range(m):
        if rng.random() < 0.5 and member_labels:
            rows[focus - 1][k] = rng.choice(member_labels)
        else:
            rows[focus - 1][k] = 5000 + k

    colouring = TypedColouring(m, n, tuple(tuple(r) for r in rows))
    coll = FocusedCollection(focus, family, tuple(zip(steps, member_elems)))
    return colouring, coll
