"""Canonical forms for cyclic words under rotation and label permutation.

Two transition sequences describe isomorphic codes when one can be turned
into the other by a cyclic shift plus a relabeling of the coordinates.
The canonical representative of a class is the lexicographically
smallest first-occurrence relabeling (the first new label becomes 1, the
next 2, ...) over all rotations.  Traversal reversal is not part of the
default isomorphism; it can be opted in, which additionally considers
rotations of the reversed word.

The gap of a position is the cyclic distance to the next occurrence of
its label (the word length for a label that occurs once); :func:`_gaps`
computes them all in one sweep.  Positions i and i + gap[i] carry the
same label, so the gaps chain the positions into label classes and fix
the word up to relabeling: two words are equal up to rotation and
relabeling exactly when their gap sequences are rotations of each other.
:func:`classify` therefore buckets words by the least rotation of their
gap sequence (with reversal, the smaller of the keys of both
orientations), which needs no relabeling, and computes one canonical
form per bucket.

Only some rotations can win.  Relabeled, a rotation starts 1, 2, ..., R
where R is its leading run, the number of positions before the first
repeated label; the next entry is a repeat, so at most R.  A rotation
with a shorter leading run is therefore smaller than one with a longer
run, and the minimum lies among the rotations of minimal leading run.
The run of rotation s is min over j of gap[s + j] + j, so the minimal
run equals the minimal gap and rotation s has it exactly when gap[s] is
minimal; only those rotations are relabeled and compared.  The least gap
rotation starts at such a position too, and the exhaustive search prunes
by the same invariant.  The full rotation scan is the test reference, in
the test suite's ``oracles`` module.
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


def _gaps(word: Sequence[int]) -> list[int]:
    """Cyclic distance from each position to the next occurrence of its
    label, the word length for a label that occurs once."""
    n = len(word)
    last = dict(zip(reversed(word), range(2 * n - 1, n - 1, -1)))
    gap = [0] * n
    for i in range(n - 1, -1, -1):
        c = word[i]
        gap[i] = last[c] - i
        last[c] = i
    return gap


def leading_runs(word: Sequence[int]) -> list[int]:
    """Leading run of every rotation of a cyclic word.

    ``runs[s]`` is the number of distinct labels that rotation ``s``
    starts with before its first repeat (the word length if it never
    repeats).  A rotation's run is the smaller of its gap (the distance
    to the next occurrence of its first label) and one more than the run
    of the following rotation, so one backward sweep of two periods over
    the gaps fixes all; the minimal run equals the minimal gap.
    """
    n = len(word)
    gap = _gaps(word)
    runs = [n] * n
    r = n
    for i in range(2 * n - 1, -1, -1):
        g = gap[i % n]
        r = g if g < r + 1 else r + 1
        if i < n:
            runs[i] = r
    return runs


_HEAD = 16  # gap entries compared before a whole rotation is sliced


def _least_gap_rotation(word: Word) -> tuple[int, ...]:
    """Least rotation of the word's gap sequence; it starts at a minimal
    gap.  Rotations are compared by their first ``_HEAD`` entries, and
    whole only on a tie; a rotation equal to an earlier one means every
    later start repeats an earlier one."""
    gap = _gaps(word)
    n = len(gap)
    if n == 0:
        return ()
    low = min(gap)
    doubled = tuple(gap + gap)
    s = gap.index(low)
    best, best_head, best_full = s, doubled[s : s + _HEAD], None
    for _ in range(gap.count(low) - 1):
        s = gap.index(low, s + 1)
        head = doubled[s : s + _HEAD]
        if head < best_head:
            best, best_head, best_full = s, head, None
        elif head == best_head:
            full = doubled[s : s + n]
            if best_full is None:
                best_full = doubled[best : best + n]
            if full < best_full:
                best, best_head, best_full = s, head, full
            elif full == best_full:
                break
    return best_full or doubled[best : best + n]


def _class_key(word: Word, include_reversal: bool) -> tuple[int, ...]:
    """Equal exactly for words of one class: the least gap rotation, of
    either orientation when reversal is included."""
    key = _least_gap_rotation(word)
    if include_reversal:
        key = min(key, _least_gap_rotation(word[::-1]))
    return key


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

    Only rotations of minimal gap (over both orientations when reversal
    is included) are compared.  Ties prefer the forward orientation, then
    the smaller shift; the result is a fixed point of canonicalization.
    """
    w = as_word(word)
    n = len(w)
    if n == 0:
        return CanonicalForm(word=(), shift=0, relabeling=())
    period = next(p for p in range(1, n + 1) if n % p == 0 and w[p:] == w[: n - p])
    orientations = [(w, False, _gaps(w))]
    if include_reversal:
        orientations.append((w[::-1], True, _gaps(w[::-1])))
    shortest = min(min(gap) for _, _, gap in orientations)
    best = None
    for base, reversed_flag, gap in orientations:
        starts = [s for s in range(period) if gap[s] == shortest]
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
    the input size, independent of input order.  Words are bucketed by
    their gap key and one word per bucket is canonicalized; the
    representative is the canonical word's own form (shift 0, the
    identity relabeling).
    """
    buckets: dict[tuple[int, ...], list] = {}
    for w in words:
        w = as_word(w)
        key = _class_key(w, include_reversal)
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [w, 1]
        else:
            entry[1] += 1
    out = []
    for w, count in buckets.values():
        canon = canonical_form(w, include_reversal).word
        # the canonical word is its own form: rotation 0, forward, and its
        # first-occurrence labels map to themselves
        identity = tuple((c, c) for c in sorted(set(canon)))
        out.append(
            IsomorphismClass(
                representative=CanonicalForm(word=canon, shift=0, relabeling=identity),
                count=count,
            )
        )
    out.sort(key=lambda c: c.representative.word)
    return out
