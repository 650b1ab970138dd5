"""Witness predicates, deterministic witness search, and certificates.

A witness for a colouring is a set {a, a + p_1(d), ..., a + p_k(d)} built
from a polynomial family that is either monochromatic in some unbounded
coordinate, rainbow (no colour repeated across distinct elements, reading
all coordinate pairs), or fully-rainbow (rainbow with a constant bounded
final label).  Witnesses are packaged as certificates that can be re-checked
bit-exactly against the colouring they were found in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .coloring import TypedColouring, colouring_digest
from .polynomial import IntegralPolynomial, PolynomialFamily, ROLE_RAINBOW

KIND_MONO = "monochromatic"
KIND_RAINBOW = "rainbow"
KIND_FULLY_RAINBOW = "fully-rainbow"

POLICY_POSITIVE = "positive"
POLICY_NONZERO = "nonzero"
POLICY_GT_H_FOR_RAINBOW = "greater_than_h_for_rainbow"
POLICY_ANY = "any"
D_POLICIES = (POLICY_POSITIVE, POLICY_NONZERO, POLICY_GT_H_FOR_RAINBOW, POLICY_ANY)


@dataclass(frozen=True)
class WitnessSet:
    """A located witness: its kind, anchor, step, elements, and evidence
    (the constant coordinate for monochromatic witnesses, the shared final
    label for fully-rainbow ones, None for plain rainbow)."""

    kind: str
    a: int
    d: int
    elements: tuple[int, ...]
    evidence: int | None


@dataclass(frozen=True)
class Certificate:
    """Self-contained witness record bound to a colouring by digest."""

    kind: str
    a: int
    d: int
    elements: tuple[int, ...]
    evidence: int | None
    family: PolynomialFamily
    digest: str
    d_policy: str

    def witness(self) -> WitnessSet:
        return WitnessSet(self.kind, self.a, self.d, self.elements, self.evidence)

    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "a": self.a,
            "d": self.d,
            "elements": list(self.elements),
            "evidence": self.evidence,
            "family": {"polys": self.family.coeff_lists(), "role": self.family.role},
            "digest": self.digest,
            "d_policy": self.d_policy,
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed certificate: line {e.lineno}: {e.msg}") from None
        try:
            fam = obj["family"]
            family = PolynomialFamily.from_coeff_lists(fam["polys"], fam["role"])
            kind, a, d, elements, evidence, digest, d_policy = (
                obj[key]
                for key in ("kind", "a", "d", "elements", "evidence", "digest", "d_policy")
            )
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed certificate: {e}") from None
        problem = None
        if not isinstance(kind, str):
            problem = "kind must be a string"
        elif not (_is_int(a) and _is_int(d)):
            problem = "a and d must be integers"
        elif not (isinstance(elements, list) and all(map(_is_int, elements))):
            problem = "elements must be a list of integers"
        elif evidence is not None and not _is_int(evidence):
            problem = "evidence must be an integer or null"
        elif not isinstance(digest, str):
            problem = "digest must be a string"
        elif d_policy not in D_POLICIES:
            problem = f"unknown d policy {d_policy!r}"
        if problem is not None:
            raise ValueError(f"malformed certificate: {problem}")
        return cls(kind, a, d, tuple(elements), evidence, family, digest, d_policy)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None

    def __bool__(self) -> bool:  # truthiness follows the verdict
        return self.ok


@dataclass(frozen=True)
class FocusedCollection:
    """Members A(d_i) all focused at the same anchor: member elements are
    focus + p(d_i) over the family, never containing the focus itself."""

    focus: int
    family: PolynomialFamily
    members: tuple[tuple[int, tuple[int, ...]], ...]


class NormInfo(NamedTuple):
    weights: dict[int, int]
    small_labels: frozenset[int]
    norm: int


def is_monochromatic(colouring: TypedColouring, elems: tuple[int, ...]) -> int | None:
    """Smallest unbounded coordinate on which all elements share a label, or
    None.  Repeated elements are allowed; empty input is an error."""
    if not elems:
        raise ValueError("monochromatic check needs at least one element")
    rows = colouring.rows
    for j in range(colouring.m):
        first = rows[elems[0] - 1][j]
        if all(rows[e - 1][j] == first for e in elems):
            return j + 1
    return None


def is_rainbow(colouring: TypedColouring, elems: tuple[int, ...]) -> bool:
    """True iff the elements are pairwise distinct positions and no label
    value appears in two distinct elements, across all coordinate pairs.
    A repeated label inside one element is not a clash."""
    if not elems:
        raise ValueError("rainbow check needs at least one element")
    if len(set(elems)) != len(elems):
        return False
    m = colouring.m
    rows = colouring.rows
    owner: dict[int, int] = {}
    for e in elems:
        for lab in rows[e - 1][:m]:
            if owner.setdefault(lab, e) != e:
                return False
    return True


def is_fully_rainbow(colouring: TypedColouring, elems: tuple[int, ...]) -> int | None:
    """Shared final label of a rainbow set with constant final coordinate,
    else None.  Requires a bounded final coordinate."""
    if colouring.n is None:
        raise ValueError("fully-rainbow check needs a bounded final coordinate")
    if not is_rainbow(colouring, elems):
        return None
    m = colouring.m
    first = colouring.rows[elems[0] - 1][m]
    for e in elems[1:]:
        if colouring.rows[e - 1][m] != first:
            return None
    return first


def is_focused(elems: tuple[int, ...], focus: int, family: PolynomialFamily, d: int) -> bool:
    """Whether elems is the family's value pattern at step d anchored at
    focus, with distinct elements none of which is the focus."""
    if len(elems) != len(family.polys):
        raise ValueError(
            f"element count {len(elems)} does not match family size {len(family.polys)}"
        )
    if len(set(elems)) != len(elems):
        return False
    if focus in elems:
        return False
    return all(e - focus == p.evaluate(d) for e, p in zip(elems, family.polys))


def collection_norm(colouring: TypedColouring, coll: FocusedCollection) -> NormInfo:
    """Weights, small-weight label set and norm of a focused collection.

    weights[c] counts members whose shared final label is c; labels with
    weight at most m+1 are "small" and only they contribute to the norm.
    Every member must be fully-rainbow.
    """
    if colouring.n is None:
        raise ValueError("collection norm needs a bounded final coordinate")
    weights = {c: 0 for c in range(1, colouring.n + 1)}
    for _, elems in coll.members:
        lab = is_fully_rainbow(colouring, elems)
        if lab is None:
            raise ValueError(f"member {elems} is not fully-rainbow")
        weights[lab] += 1
    cut = colouring.m + 1
    small = frozenset(c for c, w in weights.items() if w <= cut)
    return NormInfo(weights, small, sum(weights[c] for c in small))


def validate_collection(colouring: TypedColouring, coll: FocusedCollection) -> bool:
    """Check the three structural conditions: every member focused at the
    collection's anchor with its own step, every member fully-rainbow, and
    the union of all members rainbow with all elements distinct."""
    union: list[int] = []
    for d, elems in coll.members:
        if not is_focused(elems, coll.focus, coll.family, d):
            return False
        if is_fully_rainbow(colouring, elems) is None:
            return False
        union.extend(elems)
    if not union:
        return True
    if len(set(union)) != len(union):
        return False
    return is_rainbow(colouring, tuple(union))


def _mono_step_ok(policy: str, d: int) -> bool:
    if policy == POLICY_POSITIVE:
        return d > 0
    if policy == POLICY_ANY:
        return True
    return d != 0


def _rainbow_step_ok(policy: str, d: int, h: int) -> bool:
    if policy == POLICY_POSITIVE:
        return d > 0
    if policy == POLICY_GT_H_FOR_RAINBOW:
        return d > h
    if policy == POLICY_ANY:
        return True
    return d != 0


def _window_bound(family: PolynomialFamily, length: int) -> int:
    # Beyond this |d| some member's value always overflows the window, so
    # the step scan below is finite.  Families whose values never move
    # (no nonzero member) only need |d| = 1.
    nonzero = family.nonzero_members()
    if not nonzero:
        return 1
    return length + min(sum(abs(c) for c in p.coeffs) for p in nonzero)


@lru_cache(maxsize=256)
def scan_plan(
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None,
    length: int,
    h: int,
    d_policy: str,
) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """Every candidate witness inside [length], in scan order.

    This is the one place that decides which steps d each family admits
    under d_policy and h, how far |d| can usefully go (the window bound),
    and which anchors a keep all elements inside the interval.  Rainbow
    steps whose elements repeat a position are dropped, since they can
    never be rainbow.  Probes are (kind, a, d, elements) with kind
    KIND_MONO or KIND_RAINBOW, ordered by increasing |d|, positive step
    first, then increasing anchor, the mono probe before the rainbow probe
    at each (a, d).
    """
    fams = []
    if mono_family is not None and mono_family.polys:
        fams.append((KIND_MONO, mono_family))
    if rainbow_family is not None and rainbow_family.polys:
        fams.append((KIND_RAINBOW, rainbow_family))
    if not fams:
        return ()
    bound = max(_window_bound(f, length) for _, f in fams)

    def step_ok(kind: str, d: int) -> bool:
        if kind == KIND_MONO:
            return _mono_step_ok(d_policy, d)
        return _rainbow_step_ok(d_policy, d, h)

    plan: list[tuple[str, int, int, tuple[int, ...]]] = []
    start = 0 if d_policy == POLICY_ANY else 1
    for size in range(start, bound + 1):
        for d in ((0,) if size == 0 else (size, -size)):
            slots = []
            for kind, fam in fams:
                if not step_ok(kind, d):
                    continue
                offsets = (0,) + tuple(p.evaluate(d) for p in fam.polys)
                if kind == KIND_RAINBOW and len(set(offsets)) != len(offsets):
                    continue  # repeated positions can never be rainbow
                lo = min(offsets)
                hi = max(offsets)
                a_min = max(1, 1 - lo)
                a_max = min(length, length - hi)
                if a_min > a_max:
                    continue
                slots.append((kind, offsets, a_min, a_max))
            if not slots:
                continue
            for a in range(min(s[2] for s in slots), max(s[3] for s in slots) + 1):
                for kind, offsets, a_min, a_max in slots:
                    if a_min <= a <= a_max:
                        plan.append((kind, a, d, tuple(a + off for off in offsets)))
    return tuple(plan)


def find_witness(
    colouring: TypedColouring,
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None = None,
    h: int = 0,
    d_policy: str = POLICY_NONZERO,
) -> Certificate | None:
    """First witness in the deterministic scan order, or None.

    The scan runs over increasing |d| with positive steps before negative
    ones, then over increasing anchor a, checking the mono family before the
    rainbow family at each (a, d).  Steps are admitted per d_policy; under
    "greater_than_h_for_rainbow" rainbow steps must exceed h.  On colourings
    with a bounded final coordinate the rainbow family is held to the
    fully-rainbow predicate.
    """
    if d_policy not in D_POLICIES:
        raise ValueError(f"unknown d policy {d_policy!r}")
    plan = scan_plan(mono_family, rainbow_family, colouring.length, h, d_policy)
    bounded = colouring.n is not None
    digest = None
    for kind, a, d, elems in plan:
        if kind == KIND_MONO:
            j = is_monochromatic(colouring, elems)
            if j is None:
                continue
            found = (KIND_MONO, j, mono_family)
        elif bounded:
            lab = is_fully_rainbow(colouring, elems)
            if lab is None:
                continue
            found = (KIND_FULLY_RAINBOW, lab, rainbow_family)
        else:
            if not is_rainbow(colouring, elems):
                continue
            found = (KIND_RAINBOW, None, rainbow_family)
        kind_out, evidence, fam = found
        if digest is None:
            digest = colouring_digest(colouring)
        return Certificate(kind_out, a, d, elems, evidence, fam, digest, d_policy)
    return None


def verify_certificate(colouring: TypedColouring, cert: Certificate) -> VerifyResult:
    """Re-check a certificate bit-exactly against a colouring.

    Rejections carry a reason code: "kind mismatch", "digest mismatch",
    "element mismatch", "out of range", "evidence mismatch" or
    "predicate failed".
    """
    if cert.kind not in (KIND_MONO, KIND_RAINBOW, KIND_FULLY_RAINBOW):
        return VerifyResult(False, "kind mismatch")
    if cert.digest != colouring_digest(colouring):
        return VerifyResult(False, "digest mismatch")
    expected = (cert.a,) + tuple(cert.a + p.evaluate(cert.d) for p in cert.family.polys)
    if tuple(cert.elements) != expected:
        return VerifyResult(False, "element mismatch")
    if any(not 1 <= e <= colouring.length for e in expected):
        return VerifyResult(False, "out of range")
    if cert.kind == KIND_MONO:
        j = cert.evidence
        if not isinstance(j, int) or not 1 <= j <= colouring.m:
            return VerifyResult(False, "evidence mismatch")
        first = colouring.rows[expected[0] - 1][j - 1]
        if any(colouring.rows[e - 1][j - 1] != first for e in expected):
            return VerifyResult(False, "predicate failed")
    elif cert.kind == KIND_RAINBOW:
        if cert.evidence is not None:
            return VerifyResult(False, "evidence mismatch")
        if not is_rainbow(colouring, expected):
            return VerifyResult(False, "predicate failed")
    else:
        if colouring.n is None:
            return VerifyResult(False, "predicate failed")
        lab = is_fully_rainbow(colouring, expected)
        if lab is None:
            return VerifyResult(False, "predicate failed")
        if lab != cert.evidence:
            return VerifyResult(False, "evidence mismatch")
    return VerifyResult(True, None)


def find_focused_collection(
    colouring: TypedColouring,
    family: PolynomialFamily,
    focus: int,
    h: int = 0,
    target_norm: int = 1,
    node_budget: int = 20000,
) -> FocusedCollection | None:
    """Bounded backtracking search for a valid focused collection of the
    requested norm.

    Candidate members are the family's value patterns at steps d > h that
    fit the interval, taken in increasing step order and accumulated
    greedily with backtracking.  The search gives up once node_budget
    include/exclude decisions have been spent; absence of a result is
    therefore not a proof that none exists.
    """
    if colouring.n is None:
        raise ValueError("focused collections need a bounded final coordinate")
    if family.role != ROLE_RAINBOW:
        raise ValueError("find_focused_collection requires a rainbow family")
    if not 1 <= focus <= colouring.length:
        raise ValueError(f"focus {focus} outside the interval")
    if target_norm < 0:
        raise ValueError(f"target norm must be non-negative, got {target_norm}")
    if target_norm == 0:
        return FocusedCollection(focus, family, ())

    length = colouring.length
    candidates: list[tuple[int, tuple[int, ...]]] = []
    for d in range(h + 1, _window_bound(family, length) + 1):
        elems = tuple(focus + p.evaluate(d) for p in family.polys)
        if any(not 1 <= e <= length for e in elems):
            continue
        if not is_focused(elems, focus, family, d):
            continue
        if is_fully_rainbow(colouring, elems) is None:
            continue
        candidates.append((d, elems))

    m = colouring.m
    rows = colouring.rows
    cut = m + 1
    budget = node_budget
    best: tuple[tuple[int, tuple[int, ...]], ...] | None = None

    def norm_of(weights: dict[int, int]) -> int:
        return sum(w for w in weights.values() if w <= cut)

    def dfs(idx: int, chosen, weights, used_vals, used_labs) -> None:
        nonlocal budget, best
        if best is not None or budget <= 0:
            return
        if norm_of(weights) == target_norm:
            best = tuple(chosen)
            return
        if idx == len(candidates):
            return
        d, elems = candidates[idx]
        labs = [lab for e in elems for lab in rows[e - 1][:m]]
        compatible = not (used_vals & set(elems)) and not (used_labs & set(labs))
        if compatible:
            budget -= 1
            fin = rows[elems[0] - 1][m]
            weights[fin] += 1
            dfs(idx + 1, chosen + [(d, elems)], weights, used_vals | set(elems), used_labs | set(labs))
            weights[fin] -= 1
            if best is not None:
                return
        budget -= 1
        dfs(idx + 1, chosen, weights, used_vals, used_labs)

    dfs(0, [], {c: 0 for c in range(1, colouring.n + 1)}, frozenset(), frozenset())
    if best is None:
        return None
    return FocusedCollection(focus, family, best)
