"""Typed colourings of integer intervals and their canonical forms.

A typed colouring assigns to each element of {1, ..., N} a tuple of m
unbounded colour labels plus, optionally, one final label drawn from a
bounded palette {1, ..., n}.  Unbounded coordinates are considered up to
injective relabeling of their palettes; the bounded final coordinate is
always taken verbatim.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .polynomial import FormatError


# Rows of exact ints, each mapped to itself, so that equal rows of every
# colouring are one tuple: canonical colourings draw their rows from a few
# small palettes.  Bounded by the labels its rows hold rather than by
# entries, since one colouring may hold a long row; emptied once past the
# bound.
_ROW_TABLE_LABELS = 1 << 16
_rows: dict[tuple[int, ...], tuple[int, ...]] = {}
_rows_held = 0


@dataclass(frozen=True, slots=True)
class TypedColouring:
    """Colouring of {1, ..., N} with m unbounded coordinates and an optional
    bounded final coordinate.

    ``rows[t-1]`` holds the labels of element t, each an exact int: m
    non-negative ones, then the final label in 1..n when n is not None.
    """

    m: int
    n: int | None
    rows: tuple[tuple[int, ...], ...]
    # Hex digest of serialize(self), filled in by colouring_digest on first
    # use; declared so that the class has a slot for it.
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        global _rows_held
        if type(self.m) is not int or self.m < 0:
            raise ValueError(f"m must be a non-negative int, got {self.m!r}")
        if self.n is not None and (type(self.n) is not int or self.n < 1):
            raise ValueError(f"n must be a positive int when present, got {self.n!r}")
        width = self.m + (1 if self.n is not None else 0)
        rows = tuple(tuple(r) for r in self.rows)
        for t, row in enumerate(rows, start=1):
            if len(row) != width:
                raise ValueError(f"element {t} has {len(row)} labels, expected {width}")
            for lab in row[: self.m]:
                if type(lab) is not int or lab < 0:
                    raise ValueError(f"element {t} has invalid label {lab!r}")
            if self.n is not None:
                fin = row[self.m]
                if type(fin) is not int or not 1 <= fin <= self.n:
                    raise ValueError(f"element {t} final label {fin!r} outside 1..{self.n}")
        # Validated first: (True,) would otherwise come back as (1,).
        held = len(_rows)
        rows = tuple(map(_rows.setdefault, rows, rows))
        _rows_held += (len(_rows) - held) * width
        if _rows_held > _ROW_TABLE_LABELS:
            _rows.clear()
            _rows_held = 0
        object.__setattr__(self, "rows", rows)

    @property
    def length(self) -> int:
        return len(self.rows)

    def coordinate(self, coord: int) -> tuple[int, ...]:
        return tuple(r[coord - 1] for r in self.rows)

    def final_coordinate(self) -> tuple[int, ...]:
        if self.n is None:
            raise ValueError("colouring has no bounded final coordinate")
        return tuple(r[self.m] for r in self.rows)

    @classmethod
    def single(cls, labels: Sequence[int]) -> "TypedColouring":
        """Single unbounded coordinate, no bounded coordinate."""
        return cls(1, None, tuple((lab,) for lab in labels))


@dataclass(frozen=True)
class CanonicalForm:
    """Renaming-invariant normal form of a typed colouring.

    One restricted-growth string per unbounded coordinate; the bounded final
    coordinate, when present, is carried verbatim.
    """

    strings: tuple[tuple[int, ...], ...]
    final: tuple[int, ...] | None = None


def restricted_growth(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel by first appearance: new classes get 0, 1, 2, ... in order."""
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def canonicalize(colouring: TypedColouring) -> CanonicalForm:
    """Canonical form under injective relabeling of each unbounded palette."""
    strings = tuple(
        restricted_growth(colouring.coordinate(k)) for k in range(1, colouring.m + 1)
    )
    final = colouring.final_coordinate() if colouring.n is not None else None
    return CanonicalForm(strings, final)


def restricted_growth_strings(length: int, max_classes: int | None = None) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of the given length with at most
    max_classes classes, in lexicographic order: one per single-coordinate
    colouring of {1, ..., length} up to palette renaming, Bell(length) of
    them without a cap."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if max_classes is not None and max_classes < 1:
        raise ValueError(f"max_classes must be positive, got {max_classes}")
    # Enumeration without recursion, one prefix of length - 1 at a time:
    # each prefix is followed by every label its last position may take.
    # used[i] is the number of classes among labels[:i]; the next prefix
    # bumps the rightmost position that can still grow (to an existing
    # class, or to a fresh one while the palette cap allows) and resets
    # every later position to class 0.
    cap = length if max_classes is None else max_classes
    if length == 0:
        yield ()
        return
    n = length - 1
    labels = [0] * n
    used = [0] + [1] * n
    while True:
        prefix = tuple(labels)
        for v in range(min(used[n] + 1, cap)):
            yield prefix + (v,)
        i = n - 1
        while i >= 0 and (labels[i] >= used[i] or labels[i] + 1 >= cap):
            i -= 1
        if i < 0:
            return
        labels[i] += 1
        labels[i + 1 :] = [0] * (n - i - 1)
        used[i + 1 :] = [max(used[i], labels[i] + 1)] * (n - i)


def enumerate_colourings(length: int, max_classes: int | None = None) -> Iterator[TypedColouring]:
    """The colourings labelled by restricted_growth_strings, in its order."""
    return map(TypedColouring.single, restricted_growth_strings(length, max_classes))


def block_coloring(colouring: TypedColouring, block_len: int) -> TypedColouring:
    """Regroup a colouring into blocks of block_len consecutive elements.

    Block s becomes one element carrying the m*block_len concatenated
    unbounded labels (position-major).
    """
    if block_len < 1:
        raise ValueError(f"block length must be positive, got {block_len}")
    if colouring.length % block_len != 0:
        raise ValueError(
            f"block length {block_len} does not divide interval length {colouring.length}"
        )
    nblocks = colouring.length // block_len
    out_rows = []
    for s in range(1, nblocks + 1):
        start = (s - 1) * block_len
        concat: list[int] = []
        for r in colouring.rows[start : start + block_len]:
            concat.extend(r[: colouring.m])
        out_rows.append(tuple(concat))
    return TypedColouring(colouring.m * block_len, None, tuple(out_rows))


def serialize(colouring: TypedColouring) -> str:
    """Canonical text form: a header line, then one line of labels per
    element.  Certificates digest exactly this form."""
    if colouring.n is None:
        head = f"m={colouring.m} N={colouring.length}"
    else:
        head = f"m={colouring.m} n={colouring.n} N={colouring.length}"
    lines = [head]
    for row in colouring.rows:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def colouring_digest(colouring: TypedColouring) -> str:
    """Hex sha-256 of the canonical serialization, computed once per
    colouring object and cached on it."""
    digest = colouring._digest
    if digest is None:
        digest = hashlib.sha256(serialize(colouring).encode("utf-8")).hexdigest()
        object.__setattr__(colouring, "_digest", digest)
    return digest


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", lineno) from None


def parse_colouring(text: str) -> TypedColouring:
    """Parse a colouring document.

    With a header line "m=<m> [n=<n>] N=<N>", the next N lines each hold the
    labels of one element.  Without a header, a single line is read as a
    single-coordinate colouring and multiple lines as one element per line
    with m inferred from the first line.
    """
    raw = text.splitlines()
    numbered = [(i, ln.strip()) for i, ln in enumerate(raw, start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln]
    if not numbered:
        raise FormatError("empty colouring document")

    # Reduce the three layouts to (m, n, one numbered line per element).
    first_no, first = numbered[0]
    if "=" in first:
        fields: dict[str, int] = {}
        for tok in first.split():
            key, eq, val = tok.partition("=")
            if not eq or key not in ("m", "n", "N") or key in fields:
                raise FormatError(f"bad header token {tok!r}", first_no)
            fields[key] = _parse_int(val, first_no)
        if "m" not in fields or "N" not in fields:
            raise FormatError("header must declare m= and N=", first_no)
        m, n, length = fields["m"], fields.get("n"), fields["N"]
        if m < 0:
            raise FormatError(f"m must be non-negative, got {m}", first_no)
        if n is not None and n < 1:
            raise FormatError(f"n must be positive when present, got {n}", first_no)
        lines = numbered[1:]
        if not lines and (m, n) == (0, None):
            # Rows without labels serialize as the empty lines dropped above;
            # count those, never more than the document holds.
            lines = [(first_no, "")] * min(length, len(raw) - first_no)
        if len(lines) != length:
            raise FormatError(
                f"expected {length} element lines, found {len(lines)}", first_no
            )
    elif len(numbered) == 1:
        m, n, lines = 1, None, [(first_no, tok) for tok in first.split()]
    else:
        m, n, lines = len(first.split()), None, numbered

    width = m + (1 if n is not None else 0)
    rows = []
    for lineno, ln in lines:
        toks = ln.split()
        if len(toks) != width:
            raise FormatError(f"expected {width} labels, found {len(toks)}", lineno)
        vals = tuple(_parse_int(t, lineno) for t in toks)
        for lab in vals[:m]:
            if lab < 0:
                raise FormatError(f"negative label {lab}", lineno)
        if n is not None and not 1 <= vals[m] <= n:
            raise FormatError(f"final label {vals[m]} outside 1..{n}", lineno)
        rows.append(vals)
    return TypedColouring(m, n, tuple(rows))


def load_colouring(path: str) -> TypedColouring:
    with open(path, encoding="utf-8") as fh:
        return parse_colouring(fh.read())
