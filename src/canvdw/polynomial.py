"""Exact arithmetic for integer polynomials with zero constant term.

Everything in this module is exact: coefficients are Python ints and no
floating point is ever involved.  The class of polynomials handled here is
closed under the shift-difference p(x+h) - p(h), which is the operation the
witness machinery is built on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from typing import Sequence


class FormatError(ValueError):
    """Raised for a malformed colouring, family or certificate document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class IntegralPolynomial:
    """Integer-coefficient polynomial with no constant term.

    ``coeffs[i]`` is the coefficient of x**(i+1).  Instances are kept in
    normal form: trailing zero coefficients are stripped, and the zero
    polynomial is the empty tuple.  The degree of the zero polynomial is 0
    and its leading coefficient is None.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def leading_coefficient(self) -> int | None:
        return self.coeffs[-1] if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, d: int) -> int:
        """Value at the integer d, computed exactly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc + c) * d
        return acc

    def __sub__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntegralPolynomial(tuple(x - y for x, y in zip(a, b)))


ROLE_MONO = "mono"
ROLE_RAINBOW = "rainbow"


@dataclass(frozen=True)
class PolynomialFamily:
    """Finite ordered family of integral polynomials with a role tag.

    Role "mono" families may repeat members and may contain the zero
    polynomial.  Role "rainbow" families must be pairwise distinct and must
    not contain the zero polynomial.
    """

    polys: tuple[IntegralPolynomial, ...] = ()
    role: str = ROLE_MONO
    # Families key the witness scanner's plan cache, so the hash is
    # computed once, from what __eq__ compares.  It hashes no string, so a
    # copied or unpickled family's stored hash holds in any process.
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if self.role not in (ROLE_MONO, ROLE_RAINBOW):
            raise ValueError(f"unknown family role {self.role!r}")
        if self.role == ROLE_RAINBOW:
            if any(p.is_zero() for p in self.polys):
                raise ValueError("rainbow families must not contain the zero polynomial")
            if len(set(self.polys)) != len(self.polys):
                raise ValueError("rainbow families must be pairwise distinct")
        members = tuple(p.coeffs for p in self.polys)
        object.__setattr__(self, "_hash", hash((members, self.role == ROLE_RAINBOW)))

    def __hash__(self) -> int:
        return self._hash

    def nonzero_members(self) -> tuple[IntegralPolynomial, ...]:
        return tuple(p for p in self.polys if not p.is_zero())

    def coeff_lists(self) -> list[list[int]]:
        return [list(p.coeffs) for p in self.polys]

    @classmethod
    def from_coeff_lists(cls, lists: Sequence[Sequence[int]], role: str = ROLE_MONO) -> "PolynomialFamily":
        """The family of a document's "polys" and "role", wherever it is
        read; FormatError unless "polys" is a list of lists of ints."""
        if not isinstance(lists, (list, tuple)) or not all(isinstance(cs, (list, tuple)) for cs in lists):
            raise FormatError("'polys' must be a list of coefficient lists")
        try:
            return cls(tuple(IntegralPolynomial(tuple(cs)) for cs in lists), role)
        except (TypeError, ValueError) as e:  # a coefficient that is not an int, or members unfit for the role
            raise FormatError(str(e)) from None


def shift_difference(p: IntegralPolynomial, h: int) -> IntegralPolynomial:
    """The polynomial x -> p(x+h) - p(h).

    The constant term cancels, so the result stays in the zero-constant
    class with integer coefficients.
    """
    out = [0] * p.degree
    for k, a in enumerate(p.coeffs, start=1):
        if a == 0:
            continue
        for j in range(1, k + 1):
            out[j - 1] += a * comb(k, j) * h ** (k - j)
    return IntegralPolynomial(tuple(out))


def weight_vector(family: PolynomialFamily) -> tuple[int, ...]:
    """Weight of a family: distinct leading-coefficient counts by degree.

    Entry i is the number of distinct leading coefficients among the
    degree-(i+1) members; the length equals the maximum degree present.
    Zero polynomials are ignored; a family with no nonzero member has no
    weight and raises ValueError.
    """
    members = family.nonzero_members()
    if not members:
        raise ValueError("weight vector undefined for a family with no nonzero members")
    top = max(p.degree for p in members)
    leads: list[set[int]] = [set() for _ in range(top)]
    for p in members:
        leads[p.degree - 1].add(p.leading_coefficient)
    return tuple(len(s) for s in leads)


def weight_less(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Strict order on weight vectors, compared from the top degree down.

    a < b iff at the highest degree where the counts differ (after zero
    padding to a common length) a has the smaller count.
    """
    size = max(len(a), len(b))
    a = a + (0,) * (size - len(a))
    b = b + (0,) * (size - len(b))
    for i in range(size - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def _shift_collision(q: IntegralPolynomial, target: IntegralPolynomial) -> int | None:
    # Unique h >= 1 with shift_difference(q, h) == target, if any.  Matching
    # leading terms forces the degree and leading coefficient to agree and
    # pins h through the next coefficient: n*q_n*h + q_{n-1} = t_{n-1}.
    # Callers exclude q == target below degree 2, and at degree 0 or 1 the
    # leading terms alone would force it, so n >= 2 past this check.
    n = q.degree
    if n != target.degree or q.leading_coefficient != target.leading_coefficient:
        return None
    num = target.coeffs[n - 2] - q.coeffs[n - 2]
    den = n * q.coeffs[n - 1]
    if num % den != 0:
        return None
    h = num // den
    if h < 1:
        return None
    # Coefficients of shift_difference(q, h) from x**(n-2) down, each by
    # Horner's rule in h, up to the first mismatch: a huge h fails at once.
    for j in range(n - 2, 0, -1):
        acc = 0
        for k in range(n, j - 1, -1):
            acc = acc * h + q.coeffs[k - 1] * comb(k, j)
        if acc != target.coeffs[j - 1]:
            return None
    return h


def h_value(family: PolynomialFamily) -> int:
    """Shift-collision threshold of a family.

    Smallest h >= 0 such that for every h' > h no admissible ordered pair
    (p, q) of members satisfies p(x+h') - p(h') = q(x).  Admissible pairs are
    all ordered pairs of distinct members plus (p, p) for members of degree
    at least 2; the self-pair of a linear member is excluded because it would
    collide at every shift.
    """
    if not family.polys:
        raise ValueError("h_value undefined for an empty family")
    distinct: list[IntegralPolynomial] = []
    for p in family.polys:
        if p not in distinct:
            distinct.append(p)
    best = 0
    for q in distinct:
        for target in distinct:
            if q == target and q.degree < 2:
                continue
            sol = _shift_collision(q, target)
            if sol is not None and sol > best:
                best = sol
    return best


def bstar_family(family: PolynomialFamily, h: int, d_cap: int) -> PolynomialFamily:
    """Derived rainbow family of differences and shifted differences.

    For each member p and each d in {0} union (h, d_cap], the candidate is
    (p(x+d) - p(d)) - p1(x) where p1 is the first member.  Zero candidates
    are dropped and duplicates keep the first (d, member) occurrence, so a
    family of linear members, whose later steps repeat d = 0, takes only
    d = 0.  The first member must have minimal degree and d_cap must exceed
    h.
    """
    if family.role != ROLE_RAINBOW:
        raise ValueError("bstar_family requires a rainbow family")
    if not family.polys:
        raise ValueError("bstar_family requires a nonempty family")
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    if d_cap <= h:
        raise ValueError(f"d_cap must exceed h, got d_cap={d_cap} h={h}")
    base = family.polys[0]
    if base.degree != min(p.degree for p in family.polys):
        raise ValueError("first member must have minimal degree")
    out: list[IntegralPolynomial] = []
    seen: set[IntegralPolynomial] = set()
    # A linear p has p(x + d) - p(d) = p(x): no d > 0 adds a member.
    steps: tuple[int, ...] = (0,)
    if any(p.degree > 1 for p in family.polys):
        # The x coefficient of p(x + d) - p(d) is p'(d), which takes each
        # value at most deg p - 1 times, so the output grows with d_cap.
        # Listing the steps first makes a cap too large to hold fail at once
        # (MemoryError or OverflowError) instead of filling memory.
        steps = (0, *range(h + 1, d_cap + 1))
    for d in steps:
        for p in family.polys:
            cand = shift_difference(p, d) - base
            if cand.is_zero() or cand in seen:
                continue
            seen.add(cand)
            out.append(cand)
    return PolynomialFamily(tuple(out), ROLE_RAINBOW)


def scale_family(family: PolynomialFamily, factor: int) -> PolynomialFamily:
    """Replace each member p(x) by p(factor*x)/factor, exactly.

    The coefficient at power i becomes a_i * factor**(i-1), so the result is
    again integral with zero constant term.  The role is preserved.
    """
    if factor < 1:
        raise ValueError(f"scale factor must be positive, got {factor}")
    scaled = tuple(
        IntegralPolynomial(tuple(a * factor**i for i, a in enumerate(p.coeffs)))
        for p in family.polys
    )
    return PolynomialFamily(scaled, family.role)


def parse_json(text: str):
    """The value of a JSON document, or FormatError(message, line)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(e.msg, e.lineno) from None
    except ValueError as e:  # an integer literal past Python's digit limit
        raise FormatError(str(e)) from None
    except RecursionError:
        raise FormatError("nested too deeply") from None


def parse_family(text: str, default_role: str = ROLE_MONO) -> PolynomialFamily:
    """Parse a family document: JSON object with "polys" and optional "role".

    "polys" is a list of coefficient lists, ascending powers starting at
    power 1, e.g. [[1], [2], [0, 1]] for the family {x, 2x, x^2}.  A rainbow
    read refuses a document that declares another role.
    """
    obj = parse_json(text)
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with a 'polys' field")
    if "polys" not in obj:
        raise FormatError("missing 'polys' field")
    role = obj.get("role", default_role)
    if default_role == ROLE_RAINBOW and role != ROLE_RAINBOW:
        raise FormatError(f"expected a rainbow family, got role {role!r}")
    return PolynomialFamily.from_coeff_lists(obj["polys"], role)


def dump_family(family: PolynomialFamily) -> str:
    return json.dumps({"polys": family.coeff_lists(), "role": family.role}, indent=2) + "\n"


def load_family(path: str, default_role: str = ROLE_MONO) -> PolynomialFamily:
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read(), default_role)
