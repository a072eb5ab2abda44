"""Canonical forms for cyclic words under rotation and label permutation.

Two transition sequences describe isomorphic codes when one can be turned
into the other by a cyclic shift plus a relabeling of the coordinates.
The canonical representative of a class is the lexicographically
smallest first-occurrence relabeling (the first new label becomes 1, the
next 2, ...) over all rotations.  Traversal reversal is not part of the
default isomorphism; it can be opted in, which additionally considers
rotations of the reversed word.

Only some rotations can win.  Relabeled, a rotation starts 1, 2, ..., R
where R is its leading run, the number of positions before the first
repeated label; the next entry is a repeat, so at most R.  A rotation
with a shorter leading run is therefore smaller than one with a longer
run, and the minimum lies among the rotations of minimal leading run.
:func:`leading_runs` computes the run of every rotation in linear time
and only those rotations are relabeled and compared.  The exhaustive
search prunes by the same invariant, and the full rotation scan is the
test reference, in the test suite's ``oracles`` module.
Rotation s + p of a word of smallest period p is rotation s again and
ties go to the smaller shift, so only shifts below p are candidates; a
candidate is relabeled only while it ties the incumbent, and a loser
stops at its first larger label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Word, as_word


def _least_rotation(word: Word, starts: Iterable[int]) -> tuple[Word, int, dict[int, int]]:
    """(word, shift, mapping) of the least first-occurrence relabeling of
    the rotations at ``starts`` (ascending, not empty), earliest on ties."""
    n = len(word)
    doubled = word + word
    best: Word | None = None
    for s in starts:
        mapping: dict[int, int] = {}
        out = []
        tied = best is not None
        for i, c in enumerate(doubled[s : s + n]):
            label = mapping.setdefault(c, len(mapping) + 1)
            if tied and label != best[i]:
                if label > best[i]:
                    break
                tied = False
            out.append(label)
        else:
            if not tied:
                best, shift, best_mapping = tuple(out), s, mapping
    return best, shift, best_mapping


def leading_runs(word: Sequence[int]) -> list[int]:
    """Leading run of every rotation of a cyclic word.

    ``runs[s]`` is the number of distinct labels that rotation ``s``
    starts with before its first repeat (the word length if it never
    repeats).  A rotation's run is the smaller of the distance to the
    next occurrence of its first label and one more than the run of the
    following rotation, so one backward sweep of two periods fixes all.
    """
    n = len(word)
    gap = [n] * n
    last: dict[int, int] = {}
    for i in range(2 * n - 1, -1, -1):
        c = word[i % n]
        if i < n:
            gap[i] = last[c] - i
        last[c] = i
    runs = [n] * n
    r = n
    for i in range(2 * n - 1, -1, -1):
        g = gap[i % n]
        r = g if g < r + 1 else r + 1
        if i < n:
            runs[i] = r
    return runs


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical word plus the transform that produced it from the input.

    ``word == relabel(rotate(reverse?(input), shift))`` where the
    relabeling is given as (old, new) pairs for the labels that occur.
    """

    word: Word
    shift: int
    relabeling: tuple[tuple[int, int], ...]
    reversal_used: bool = False

    def relabel_map(self) -> dict[int, int]:
        return dict(self.relabeling)


def canonical_form(
    word: Sequence[int], include_reversal: bool = False
) -> CanonicalForm:
    """Smallest first-occurrence word over all rotations.

    Only rotations of minimal leading run (over both orientations when
    reversal is included) are compared.  Ties prefer the forward
    orientation, then the smaller shift; the result is a fixed point of
    canonicalization.
    """
    w = as_word(word)
    n = len(w)
    if n == 0:
        return CanonicalForm(word=(), shift=0, relabeling=())
    period = next(p for p in range(1, n + 1) if n % p == 0 and w[p:] == w[: n - p])
    orientations = [(w, False, leading_runs(w))]
    if include_reversal:
        orientations.append((w[::-1], True, leading_runs(w[::-1])))
    shortest = min(min(runs) for _, _, runs in orientations)
    best = None
    for base, reversed_flag, runs in orientations:
        starts = [s for s in range(period) if runs[s] == shortest]
        if starts:
            cand = _least_rotation(base, starts)
            if best is None or cand[0] < best[0][0]:
                best = (cand, reversed_flag)
    (best_word, shift, mapping), reversed_flag = best
    return CanonicalForm(
        word=best_word,
        shift=shift,
        relabeling=tuple(sorted(mapping.items())),
        reversal_used=reversed_flag,
    )


def are_isomorphic(
    a: Sequence[int], b: Sequence[int], include_reversal: bool = False
) -> bool:
    """True iff the words are related by shift + relabeling (+ optional
    reversal)."""
    wa, wb = tuple(a), tuple(b)
    if len(wa) != len(wb):
        return False
    return (
        canonical_form(wa, include_reversal).word
        == canonical_form(wb, include_reversal).word
    )


@dataclass(frozen=True)
class IsomorphismClass:
    """One isomorphism class of codes: canonical representative + how many
    of the classified inputs fell into it."""

    representative: CanonicalForm
    count: int


def classify(
    words: Iterable[Sequence[int]], include_reversal: bool = False
) -> list[IsomorphismClass]:
    """Partition words by canonical form.

    Classes come back sorted by representative word, counts summing to
    the input size, independent of input order.
    """
    buckets: dict[Word, int] = {}
    for w in words:
        key = canonical_form(w, include_reversal).word
        buckets[key] = buckets.get(key, 0) + 1
    out = []
    for key in sorted(buckets):
        # the representative is self-canonical: identity transform
        out.append(
            IsomorphismClass(
                representative=canonical_form(key, include_reversal),
                count=buckets[key],
            )
        )
    return out
