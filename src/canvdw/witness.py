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
from json.encoder import encode_basestring_ascii
from math import inf
from operator import itemgetter
from typing import Callable, NamedTuple

from .coloring import TypedColouring, colouring_digest
from .polynomial import FormatError, PolynomialFamily, ROLE_RAINBOW, parse_json

KIND_MONO = "monochromatic"
KIND_RAINBOW = "rainbow"
KIND_FULLY_RAINBOW = "fully-rainbow"

POLICY_POSITIVE = "positive"
POLICY_NONZERO = "nonzero"
POLICY_GT_H_FOR_RAINBOW = "greater_than_h_for_rainbow"
POLICY_ANY = "any"
D_POLICIES = (POLICY_POSITIVE, POLICY_NONZERO, POLICY_GT_H_FOR_RAINBOW, POLICY_ANY)


class WitnessSet(NamedTuple):
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
    h: int

    def to_json(self) -> str:
        # The bytes of json.dumps(obj, indent=2) + "\n" for the object with
        # these keys in this order.  With indent set, json.dumps runs its
        # pure-Python encoder, which cost most of a certificate round trip.
        family = self.family
        if not isinstance(family, PolynomialFamily):
            raise TypeError("Certificate.family must be a PolynomialFamily")
        return (
            '{\n  "kind": %s,\n  "a": %s,\n  "d": %s,\n  "elements": %s,\n  "evidence": %s,\n'
            '  "family": {\n    "polys": %s,\n    "role": %s\n  },\n'
            '  "digest": %s,\n  "d_policy": %s,\n  "h": %s\n}\n'
        ) % (
            _json(self.kind, "  "),
            _json(self.a, "  "),
            _json(self.d, "  "),
            _json_array([_json(e, "    ") for e in self.elements], "  "),
            _json(self.evidence, "  "),
            family._polys_text or _polys_json(family),
            _json(family.role, "    "),
            _json(self.digest, "  "),
            _json(self.d_policy, "  "),
            _json(self.h, "  "),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            obj = parse_json(text)
            if not isinstance(obj, dict):
                raise FormatError("expected a JSON object")
            fam = obj["family"]
            if not isinstance(fam, dict):
                raise FormatError("'family' must be a JSON object")
            family = PolynomialFamily.from_coeff_lists(fam["polys"], fam["role"])
            kind, a, d, elements, evidence, digest, d_policy, h = (
                obj[key]
                for key in ("kind", "a", "d", "elements", "evidence", "digest", "d_policy", "h")
            )
        except FormatError as e:
            raise FormatError(f"malformed certificate: {e.message}", e.line) from None
        except KeyError as e:  # only the lookups of keys above raise it
            raise FormatError(f"malformed certificate: missing {e.args[0]!r} field") from None
        problem = None
        if not isinstance(kind, str):
            problem = "kind must be a string"
        elif not (type(a) is int and type(d) is int):
            problem = "a and d must be integers"
        elif not (isinstance(elements, list) and all(type(e) is int for e in elements)):
            problem = "elements must be a list of integers"
        elif evidence is not None and type(evidence) is not int:
            problem = "evidence must be an integer or null"
        elif not isinstance(digest, str):
            problem = "digest must be a string"
        elif d_policy not in D_POLICIES:
            problem = f"unknown d policy {d_policy!r}"
        elif not (type(h) is int and h >= 0):
            problem = "h must be a non-negative integer"
        if problem is not None:
            raise FormatError(f"malformed certificate: {problem}")
        return cls(kind, a, d, tuple(elements), evidence, family, digest, d_policy, h)


def load_certificate(path: str) -> Certificate:
    with open(path, encoding="utf-8") as fh:
        return Certificate.from_json(fh.read())


def _json(value, pad: str) -> str:
    # value as json.dumps(..., indent=2) writes it on a line indented by pad.
    # Exact ints, None and strings cover every certificate the search
    # builds; a bool, float or container of a code-built one goes through
    # json.dumps itself.
    if type(value) is int:
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # what json.dumps(value) returns
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_array(items: list[str], pad: str) -> str:
    # JSON texts as the array indent=2 writes on a line indented by pad.
    if not items:
        return "[]"
    inner = "\n  " + pad
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _polys_json(family: PolynomialFamily) -> str:
    text = _json_array(
        [_json_array([_json(c, "        ") for c in p.coeffs], "      ") for p in family.polys], "    "
    )
    object.__setattr__(family, "_polys_text", text)
    return text


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


def _check_elements(colouring: TypedColouring, elems: tuple[int, ...], check: str) -> None:
    # The predicates index rows[e - 1], which would read element 0 as the
    # last row: hold every element to 1..length first.
    if not elems:
        raise ValueError(f"{check} check needs at least one element")
    if min(elems) < 1 or max(elems) > len(colouring.rows):
        raise ValueError(f"{check} check got an element outside 1..{len(colouring.rows)}")


def is_monochromatic(colouring: TypedColouring, elems: tuple[int, ...]) -> int | None:
    """Smallest unbounded coordinate on which all elements share a label, or
    None.  Repeated elements are allowed; empty input or an element outside
    1..length is an error."""
    _check_elements(colouring, elems, "monochromatic")
    rows = colouring.rows
    for j in range(colouring.m):
        if len({rows[e - 1][j] for e in elems}) == 1:
            return j + 1
    return None


def is_rainbow(colouring: TypedColouring, elems: tuple[int, ...]) -> bool:
    """True iff the elements are pairwise distinct positions and no label
    value appears in two distinct elements, across all coordinate pairs.
    A repeated label inside one element is not a clash.  Empty input or an
    element outside 1..length is an error."""
    _check_elements(colouring, elems, "rainbow")
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
    finals = {colouring.rows[e - 1][m] for e in elems}
    return finals.pop() if len(finals) == 1 else None


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
        lab = is_fully_rainbow(colouring, elems) if elems else None
        if lab is None:
            raise ValueError(f"member {elems} is not fully-rainbow")
        weights[lab] += 1
    cut = colouring.m + 1
    small = frozenset(c for c, w in weights.items() if w <= cut)
    return NormInfo(weights, small, sum(weights[c] for c in small))


def validate_collection(colouring: TypedColouring, coll: FocusedCollection) -> bool:
    """Check the three structural conditions: every member focused at the
    collection's anchor with its own step and inside the interval, every
    member fully-rainbow (an empty member never is), and the union of all
    members rainbow with all elements distinct."""
    union: list[int] = []
    for d, elems in coll.members:
        if not is_focused(elems, coll.focus, coll.family, d):
            return False
        if not elems or not all(1 <= e <= colouring.length for e in elems):
            return False
        if is_fully_rainbow(colouring, elems) is None:
            return False
        union.extend(elems)
    return not union or is_rainbow(colouring, tuple(union))


def step_admitted(kind: str, d: int, h: int, d_policy: str) -> bool:
    """Whether a witness of this kind may use step d under d_policy and h.

    "positive" admits d > 0, "nonzero" admits d != 0 and "any" admits every
    d.  "greater_than_h_for_rainbow" holds rainbow and fully-rainbow
    witnesses to d > h and mono witnesses to d != 0.  This is the one step
    rule: the scanner, both search engines, the focused-collection search
    and the certificate verifier all apply it.
    """
    if d_policy not in D_POLICIES:
        raise ValueError(f"unknown d policy {d_policy!r}")
    if d_policy == POLICY_ANY:
        return True
    if d_policy == POLICY_POSITIVE:
        return d > 0
    if d_policy == POLICY_GT_H_FOR_RAINBOW and kind != KIND_MONO:
        return d > h
    return d != 0


def admitted_steps(
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None,
    length: int,
    h: int,
    d_policy: str,
):
    """Yield (d, slots) for every step d that fits some family inside
    [length], in scan order: increasing |d|, positive step first.

    slots lists (kind, offsets, a_min, a_max) per family admitting d, mono
    first, where offsets are (0, p_1(d), ..., p_k(d)) and a_min..a_max are
    the anchors keeping every element inside the interval.  This is the one
    step scan: it applies step_admitted and the window bound, drops rainbow
    steps whose elements repeat a position, since they can never be
    rainbow, and lists a family with no nonzero member only at its first
    admitted step, since its offsets are the same at every step.
    """
    fams = []
    if mono_family is not None and mono_family.polys:
        fams.append((KIND_MONO, mono_family))
    if rainbow_family is not None and rainbow_family.polys:
        fams.append((KIND_RAINBOW, rainbow_family))
    if not fams:
        return
    # Window bound: beyond it some member's value always overflows the
    # window, so the step scan is finite.  For p with leading coefficient c
    # and lower coefficients of absolute sum s, |c*d| >= length + s gives
    # |p(d)| >= |d|**(deg-1) * (|c*d| - s) >= length.  Families whose values
    # never move (no nonzero member) only need |d| = 1.
    bound = 1
    for _, fam in fams:
        nonzero = fam.nonzero_members()
        if nonzero:
            bound = max(bound, min(
                -(-(length + sum(map(abs, p.coeffs[:-1]))) // abs(p.coeffs[-1]))
                for p in nonzero
            ))

    for size in range(bound + 1):
        for d in ((0,) if size == 0 else (size, -size)):
            slots = []
            for kind, fam in tuple(fams):
                if not step_admitted(kind, d, h, d_policy):
                    continue
                if not fam.nonzero_members():
                    fams.remove((kind, fam))
                offsets = (0,) + tuple(p.evaluate(d) for p in fam.polys)
                if kind == KIND_RAINBOW and len(set(offsets)) != len(offsets):
                    continue
                a_min = max(1, 1 - min(offsets))
                a_max = min(length, length - max(offsets))
                if a_min <= a_max:
                    slots.append((kind, offsets, a_min, a_max))
            if slots:
                yield d, slots


# Scan plans in insertion order, bounded by their total probe count rather
# than by entries: one plan at a long length holds hundreds of thousands of
# probes.  Plans of one family pair at different lengths hold mostly the
# same probes, so each probe is interned in _probes, which is emptied
# whenever the cache evicts and so never holds more than the bound.
_PLAN_CACHE_PROBES = 500_000
_plans: dict[tuple, tuple[tuple, ...]] = {}
_probes: dict[tuple, tuple] = {}


def _scan_plan(
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None,
    length: int,
    h: int,
    d_policy: str,
) -> tuple[tuple, ...]:
    # Every candidate witness inside [length], in the scan order: each
    # admitted step expanded into its anchors, mono before rainbow at each
    # (a, d), as a probe (is_mono, pick, want, hit).  pick is an itemgetter
    # of the elements' zero-based positions; elements number at least two,
    # so pick always returns a tuple.  want is the count of distinct labels
    # that makes the probe a witness on one unbounded coordinate: 1 for
    # mono, one per element for rainbow, whose admitted steps never repeat
    # a position.  hit is that one-coordinate witness, (monochromatic, a,
    # d, elements, 1) or (rainbow, a, d, elements, None), built once and
    # returned by every scan that finds it; the anchor a is elements[0],
    # since offsets start at 0.  The oldest-inserted plans are evicted to
    # make room for a new one.
    key = (mono_family, rainbow_family, length, h, d_policy)
    plan = _plans.get(key)
    if plan is None:
        probes = _probes
        entries = []
        for d, slots in admitted_steps(*key):
            for a in range(min(s[2] for s in slots), max(s[3] for s in slots) + 1):
                for kind, offsets, a_min, a_max in slots:
                    if a_min <= a <= a_max:
                        elems = tuple(a + off for off in offsets)
                        is_mono = kind == KIND_MONO
                        probe_key = (is_mono, d, elems)
                        probe = probes.get(probe_key)
                        if probe is None:
                            probe = probes[probe_key] = (
                                is_mono,
                                itemgetter(*(e - 1 for e in elems)),
                                1 if is_mono else len(elems),
                                WitnessSet(kind, a, d, elems, 1 if is_mono else None),
                            )
                        entries.append(probe)
        plan = tuple(entries)
        held = sum(map(len, _plans.values()))
        while _plans and held + len(plan) > _PLAN_CACHE_PROBES:
            held -= len(_plans.pop(next(iter(_plans))))
            probes.clear()
        _plans[key] = plan
    return plan


def witness_scanner(
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None,
    length: int,
    h: int = 0,
    d_policy: str = POLICY_NONZERO,
) -> Callable[[TypedColouring | tuple[int, ...]], WitnessSet | None]:
    """first_witness for colourings of one length, as scan(colouring).

    scan also takes a plain tuple of labels, read as the colouring with that
    one unbounded coordinate and no bounded one.  The policy and h are
    checked and the scan plan is looked up once, here; scan raises
    ValueError on a colouring of another length.  Scans may return the
    same WitnessSet object, which is immutable.
    """
    if d_policy not in D_POLICIES:
        raise ValueError(f"unknown d policy {d_policy!r}")
    if type(h) is not int:
        raise ValueError(f"h must be an int, got {h!r}")
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    plan = _scan_plan(mono_family, rainbow_family, length, h, d_policy)

    def scan(colouring: TypedColouring | tuple[int, ...]) -> WitnessSet | None:
        if isinstance(colouring, tuple):
            # The labels are already the one coordinate's column.
            size, m, bounded, cols = len(colouring), 1, False, (colouring,)
        else:
            rows = colouring.rows
            size, m, bounded = len(rows), colouring.m, colouring.n is not None
            # One tuple of labels per coordinate; at length 0 zip yields none.
            cols = tuple(zip(*rows)) or ((),) * (m + bounded)
        if size != length:
            raise ValueError(f"scanner for length {length} got a colouring of length {size}")
        if m == 1 and not bounded:
            # One plain column: a probe is a witness iff its labels number
            # want distinct values, and its witness is the prebuilt hit.
            col = cols[0]
            for _, pick, want, hit in plan:
                if len(set(pick(col))) == want:
                    return hit
            return None
        mono_cols = tuple(enumerate(cols[:m], start=1))
        final = cols[m] if bounded else None
        # With one unbounded coordinate the elements are rainbow iff their
        # labels are distinct; otherwise a label repeated inside one element
        # is not a clash, so is_rainbow decides.
        rain_col = cols[0] if m == 1 else None
        for is_mono, pick, want, hit in plan:
            if is_mono:
                for j, col in mono_cols:
                    if len(set(pick(col))) == 1:
                        return hit if j == 1 else hit._replace(evidence=j)
                continue
            if bounded:
                finals = set(pick(final))
                if len(finals) != 1:
                    continue
            if rain_col is not None:
                if len(set(pick(rain_col))) != want:
                    continue
            elif not is_rainbow(colouring, hit.elements):
                continue
            if bounded:
                return WitnessSet(KIND_FULLY_RAINBOW, hit.a, hit.d, hit.elements, finals.pop())
            return hit
        return None

    return scan


def first_witness(
    colouring: TypedColouring,
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None = None,
    h: int = 0,
    d_policy: str = POLICY_NONZERO,
) -> WitnessSet | None:
    """First witness in the deterministic scan order, or None.

    The scan runs over increasing |d| with positive steps before negative
    ones, then over increasing anchor a, checking the mono family before the
    rainbow family at each (a, d).  Steps are admitted per d_policy; under
    "greater_than_h_for_rainbow" rainbow steps must exceed h.  On colourings
    with a bounded final coordinate the rainbow family is held to the
    fully-rainbow predicate.
    """
    return witness_scanner(mono_family, rainbow_family, colouring.length, h, d_policy)(colouring)


def find_witness(
    colouring: TypedColouring,
    mono_family: PolynomialFamily | None,
    rainbow_family: PolynomialFamily | None = None,
    h: int = 0,
    d_policy: str = POLICY_NONZERO,
) -> Certificate | None:
    """first_witness's witness as a certificate bound to the colouring, or None."""
    w = first_witness(colouring, mono_family, rainbow_family, h, d_policy)
    if w is None:
        return None
    fam = mono_family if w.kind == KIND_MONO else rainbow_family
    digest = colouring_digest(colouring)
    return Certificate(w.kind, w.a, w.d, w.elements, w.evidence, fam, digest, d_policy, h)


def verify_certificate(colouring: TypedColouring, cert: Certificate) -> VerifyResult:
    """Re-check a certificate bit-exactly against a colouring.

    Rejections carry a reason code: "kind mismatch", "digest mismatch",
    "element mismatch", "out of range", "step not admitted" (per
    step_admitted under the certificate's d_policy and h), "evidence
    mismatch" or "predicate failed".  Fields are held to the types
    Certificate.from_json accepts, exact ints, so a bool, float or int
    subclass equal to the right int is rejected under the code of the check
    it would have passed.
    """
    if cert.kind not in (KIND_MONO, KIND_RAINBOW, KIND_FULLY_RAINBOW):
        return VerifyResult(False, "kind mismatch")
    if cert.digest != colouring_digest(colouring):
        return VerifyResult(False, "digest mismatch")
    if not (type(cert.a) is int and type(cert.d) is int and isinstance(cert.family, PolynomialFamily)):
        return VerifyResult(False, "element mismatch")
    a, d, polys = cert.a, cert.d, cert.family.polys
    elements = tuple(cert.elements) if isinstance(cert.elements, (tuple, list)) else ()
    if len(elements) != len(polys) + 1 or not all(type(e) is int for e in elements) or elements[0] != a:
        return VerifyResult(False, "element mismatch")
    for p, e in zip(polys, elements[1:]):
        # p(d) == e - a by p.evaluate's Horner rule, without building a p(d)
        # far larger than e - a: once |d| >= 2 and |acc| > 2 max|c| + |e - a|,
        # each step gives |(acc + c) * d| >= 2 |acc| - 2 max|c| > |acc|, so
        # |p(d)| ends above |e - a| and the loop can stop.
        t = e - a
        bound = inf if -2 < d < 2 else 2 * max(map(abs, p.coeffs), default=0) + abs(t)
        acc = 0
        for c in reversed(p.coeffs):
            acc = (acc + c) * d
            if abs(acc) > bound:
                break
        if acc != t:
            return VerifyResult(False, "element mismatch")
    if any(not 1 <= e <= colouring.length for e in elements):
        return VerifyResult(False, "out of range")
    known = type(cert.h) is int and cert.h >= 0 and cert.d_policy in D_POLICIES
    if not (known and step_admitted(cert.kind, cert.d, cert.h, cert.d_policy)):
        return VerifyResult(False, "step not admitted")
    if cert.kind == KIND_MONO:
        j = cert.evidence
        if type(j) is not int or not 1 <= j <= colouring.m:
            return VerifyResult(False, "evidence mismatch")
        if len({colouring.rows[e - 1][j - 1] for e in elements}) != 1:
            return VerifyResult(False, "predicate failed")
    elif cert.kind == KIND_RAINBOW:
        if cert.evidence is not None:
            return VerifyResult(False, "evidence mismatch")
        if not is_rainbow(colouring, elements):
            return VerifyResult(False, "predicate failed")
    else:
        if colouring.n is None:
            return VerifyResult(False, "predicate failed")
        lab = is_fully_rainbow(colouring, elements)
        if lab is None:
            return VerifyResult(False, "predicate failed")
        if type(cert.evidence) is not int or lab != cert.evidence:
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

    Candidate members are the family's fully-rainbow value patterns at
    steps d > h that fit the interval with the focus, taken in increasing
    step order and accumulated greedily with backtracking.  The search
    gives up once node_budget include/exclude decisions have been spent;
    absence of a result is therefore not a proof that none exists.
    """
    if colouring.n is None:
        raise ValueError("focused collections need a bounded final coordinate")
    if family.role != ROLE_RAINBOW:
        raise ValueError("find_focused_collection requires a rainbow family")
    if not 1 <= focus <= colouring.length:
        raise ValueError(f"focus {focus} outside the interval")
    if target_norm < 0:
        raise ValueError(f"target norm must be non-negative, got {target_norm}")
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    if target_norm == 0:
        return FocusedCollection(focus, family, ())

    # The rainbow steps whose anchor range holds the focus are exactly the
    # focused patterns (distinct, without the focus) that fit the interval.
    candidates = []
    for d, slots in admitted_steps(None, family, colouring.length, h, POLICY_GT_H_FOR_RAINBOW):
        _, offsets, a_min, a_max = slots[0]
        if a_min <= focus <= a_max:
            elems = tuple(focus + off for off in offsets[1:])
            if is_fully_rainbow(colouring, elems) is not None:
                candidates.append((d, elems))

    m = colouring.m
    rows = colouring.rows
    cut = m + 1
    budget = node_budget
    weights = {c: 0 for c in range(1, colouring.n + 1)}
    labels = [{lab for e in elems for lab in rows[e - 1][:m]} for _, elems in candidates]
    used_vals: set[int] = set()
    used_labs: set[int] = set()

    # The current node has decided candidates[:i] and included those whose
    # indices are on the stack.  Each candidate is included first, when
    # compatible, then excluded, one budget unit per decision and per
    # back-up, as an include/exclude backtracking search would.
    stack: list[int] = []
    i = 0
    while budget > 0:
        if sum(w for w in weights.values() if w <= cut) == target_norm:
            return FocusedCollection(focus, family, tuple(candidates[j] for j in stack))
        if i < len(candidates):
            elems = candidates[i][1]
            budget -= 1
            if used_vals.isdisjoint(elems) and used_labs.isdisjoint(labels[i]):
                weights[rows[elems[0] - 1][m]] += 1
                used_vals.update(elems)
                used_labs.update(labels[i])
                stack.append(i)
            i += 1
            continue
        # All candidates decided: back up to the latest inclusion and take
        # its exclude branch instead.
        if not stack:
            return None
        i = stack.pop()
        elems = candidates[i][1]
        weights[rows[elems[0] - 1][m]] -= 1
        used_vals.difference_update(elems)
        used_labs.difference_update(labels[i])
        i += 1
        budget -= 1
    return None
