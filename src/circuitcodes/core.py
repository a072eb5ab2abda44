"""Cyclic transition sequences on the hypercube.

A length-N cyclic word over the labels 1..d encodes a walk on the
d-dimensional hypercube graph: start at the all-zero vertex and flip
coordinate ``word[i]`` at step i.  Vertices are represented as the set of
coordinates currently set to 1, i.e. the set of labels seen an odd number
of times so far.  Everything else in this package is built on the small
algebra of such words: segments, parity sets, odd-multiplicity counts,
and the two relevant distances (along the cycle, and through the cube).

Labels are 1-based everywhere in the public interface.  Dimensions are
capped at 64 so that a vertex always fits in a single machine word when
the fast paths pack coordinate sets into integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

MAX_DIMENSION = 64

Word = tuple[int, ...]


class MalformedSequenceError(ValueError):
    """A transition sequence contains an invalid label or cannot be parsed."""


@dataclass(frozen=True)
class CodeParams:
    """Hypercube dimension and spread, validated on construction."""

    d: int
    k: int

    def __post_init__(self) -> None:
        d, k = self.d, self.k
        # bool is an int subclass, but True is no dimension or spread
        if not isinstance(d, int) or not isinstance(k, int) or bool in (type(d), type(k)):
            raise ValueError("d and k must be integers")
        if not 2 <= self.d <= MAX_DIMENSION:
            raise ValueError(f"d must be in 2..{MAX_DIMENSION}, got {self.d}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


class Segment(NamedTuple):
    """A cyclically consecutive slice of a word: ``length`` transitions
    starting at 1-based position ``start`` (indices wrap modulo N)."""

    start: int
    length: int


def as_word(labels: Iterable[int], d: int | None = None) -> Word:
    """Normalize an iterable of labels to a validated tuple."""
    word = tuple(labels)
    limit = d if d is not None else MAX_DIMENSION
    for pos, c in enumerate(word, start=1):
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= limit:
            raise MalformedSequenceError(
                f"label {c!r} at position {pos} out of range 1..{limit}"
            )
    return word


def parse_sequence(text: str, d: int | None = None) -> Word:
    """Parse the plain-text syntax ``"1,2,1,2"`` into a word.

    Rejects empty tokens, zero, negatives, non-integers and labels > d,
    reporting the 1-based token position of the first offender.
    """
    stripped = text.strip()
    if not stripped:
        return ()
    labels = []
    for pos, token in enumerate(stripped.split(","), start=1):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise MalformedSequenceError(
                f"token {token!r} at position {pos} is not an integer"
            ) from None
        labels.append(value)
    return as_word(labels, d)


def format_sequence(word: Sequence[int]) -> str:
    """Inverse of :func:`parse_sequence`."""
    return ",".join(str(c) for c in word)


def rotate(word: Sequence[int], shift: int) -> Word:
    """Rotate left by ``shift`` positions: element ``shift`` comes first."""
    w = tuple(word)
    if not w:
        return w
    s = shift % len(w)
    return w[s:] + w[:s]


def segment_labels(word: Sequence[int], seg: Segment) -> Word:
    """Materialize the labels of a cyclic segment."""
    w = tuple(word)
    n = len(w)
    if seg.length < 0 or seg.length > n:
        raise ValueError(f"segment length {seg.length} out of range 0..{n}")
    if n == 0:
        return ()
    if not 1 <= seg.start <= n:
        raise ValueError(f"segment start {seg.start} out of range 1..{n}")
    i = seg.start - 1
    return tuple(w[(i + t) % n] for t in range(seg.length))


def is_closed(word: Sequence[int]) -> bool:
    """True iff every label occurs an even number of times, i.e. the walk
    returns to the origin."""
    counts = Counter(word)
    return all(v % 2 == 0 for v in counts.values())


def parity_set(labels: Iterable[int]) -> frozenset[int]:
    """The set of labels occurring an odd number of times.

    Applied to a walk prefix this is exactly the vertex reached, as a
    coordinate set.
    """
    out: set[int] = set()
    for c in labels:
        if c in out:
            out.discard(c)
        else:
            out.add(c)
    return frozenset(out)


def expand_vertices(
    word: Sequence[int], d: int | None = None
) -> tuple[frozenset[int], ...]:
    """The vertex walk of a word, as coordinate sets.

    Returns N vertices for a length-N word, starting at the origin
    (the empty set); the final transition leads back to ``walk[0]`` iff
    the word is closed.  The empty word yields just the origin.
    """
    w = as_word(word, d)
    cur: set[int] = set()
    walk = [frozenset()]
    for c in w[:-1] if w else w:
        if c in cur:
            cur.discard(c)
        else:
            cur.add(c)
        walk.append(frozenset(cur))
    return tuple(walk)


def delta(word: Sequence[int], seg: Segment | None = None) -> int:
    """Number of labels occurring an odd number of times in a segment.

    This is the direct recount, kept deliberately free of parity-mask
    shortcuts so it can serve as a cross-check for the mask arithmetic
    of ``verify``.  With ``seg=None`` the whole word is counted.
    """
    labels = tuple(word) if seg is None else segment_labels(word, seg)
    counts = Counter(labels)
    return sum(1 for v in counts.values() if v % 2 == 1)


def cyclic_code_distance(i: int, j: int, n: int) -> int:
    """Distance between positions i and j around an n-cycle."""
    if n <= 0:
        raise ValueError("cycle length must be positive")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must be in 1..{n}")
    a = abs(i - j)
    return min(a, n - a)


def hamming_distance(u: Iterable[int], v: Iterable[int]) -> int:
    """Number of coordinates in which two vertices differ."""
    return len(frozenset(u) ^ frozenset(v))


def prefix_masks(word: Sequence[int]) -> list[int]:
    """Parity masks of all prefixes; entry i covers the first i labels.

    For a closed word the last entry is 0, and the odd-count of the
    segment from position i+1 to j is ``(out[i] ^ out[j]).bit_count()``.
    """
    out = [0]
    v = 0
    for c in word:
        v ^= 1 << (c - 1)
        out.append(v)
    return out
