"""Test oracles: slow, obviously-correct references for the fast code.

They live outside the public API.  The test suite compares the pruned
search (:func:`all_valid_codes`) against unpruned enumeration
(:func:`enumerate_codes_bruteforce`), the run-filtered canonical form
against the full rotation scan (:func:`canonical_form_bruteforce`) and
the bit-run normal form against its definition
(:func:`normal_form_bruteforce`).  They share no relabeling code with
the package.

:class:`RecordingKernel` is the search kernel with one change: it
records every valid code it closes, at any length, where the product
kernel keeps only the longest.  It never raises ``best``, so the
closure gate lets every code of length >= 4 through.
"""

from __future__ import annotations

from typing import Sequence

from circuitcodes.canon import CanonicalForm
from circuitcodes.core import CodeParams, Word, as_word
from circuitcodes.search import _Kernel
from circuitcodes.verify import NormalizedForm, brute_force_check


def _relabel(word: Word) -> tuple[Word, dict[int, int]]:
    """First-occurrence relabeling: the first new label becomes 1, the next 2, ..."""
    mapping: dict[int, int] = {}
    for c in word:
        if c not in mapping:
            mapping[c] = len(mapping) + 1
    return tuple(mapping[c] for c in word), mapping


def canonical_form_bruteforce(
    word: Sequence[int], include_reversal: bool = False
) -> CanonicalForm:
    """Canonical form by definition: relabel every rotation, keep the least.

    Scans the forward rotations by shift, then the reversed ones, and
    keeps the first rotation that attains the minimum.
    """
    w = as_word(word)
    if not w:
        return CanonicalForm(word=(), shift=0, relabeling=())
    bases = [(w, False)] + ([(w[::-1], True)] if include_reversal else [])
    best = None
    for base, reversed_flag in bases:
        for s in range(len(w)):
            cand, mapping = _relabel(base[s:] + base[:s])
            if best is None or cand < best.word:
                best = CanonicalForm(
                    word=cand,
                    shift=s,
                    relabeling=tuple(sorted(mapping.items())),
                    reversal_used=reversed_flag,
                )
    return best


def normal_form_bruteforce(word: Sequence[int], params: CodeParams) -> NormalizedForm:
    """Bit-run normal form by definition, without its applicability and
    tail checks: relabel every rotation whose first k+2 labels are
    distinct and keep the least, the smallest shift winning ties.
    """
    w = as_word(word, params.d)
    k = params.k
    best = None
    for s in range(len(w)):
        rotation = w[s:] + w[:s]
        if len(set(rotation[: k + 2])) < k + 2:
            continue
        cand, mapping = _relabel(rotation)
        if best is None or cand < best[0]:
            best = (cand, s, mapping)
    norm, shift, mapping = best
    return NormalizedForm(
        word=norm,
        head_run=norm[: k + 2],
        link=norm[k + 2],
        tail=norm[k + 3 : 2 * k + 3],
        shift=shift,
        relabeling=tuple(sorted(mapping.items())),
    )


class RecordingKernel(_Kernel):
    """A search kernel that keeps every code it closes, of any length."""

    def _record(self, code: Word) -> None:
        self.witnesses.append(code)


def all_valid_codes(
    params: CodeParams,
    max_length_bound: int,
    mode: str = "general",
    l: int | None = None,
) -> list[Word]:
    """Every valid code in the symmetry-broken space, any length.

    Testing aid for completeness comparisons against unpruned
    enumeration; output is sorted by (length, word).
    """
    kernel = RecordingKernel(params, mode, l, min(max_length_bound, 1 << params.d))
    assert kernel.run() == "complete"
    return sorted(kernel.witnesses, key=lambda w: (len(w), w))


def enumerate_codes_bruteforce(params: CodeParams, max_length_bound: int) -> list[Word]:
    """Unpruned oracle: every closed word that is a valid code.

    Enumerates all origin-rooted self-avoiding closed walks up to the
    bound with no spread-based pruning at all, then filters with the
    set-based checker.  Exponential; intended for toy dimensions.
    """
    d = params.d
    found: list[Word] = []
    word: list[int] = []
    seen = {0}
    bit = [0] + [1 << (c - 1) for c in range(1, d + 1)]
    cap = min(max_length_bound, 1 << d)

    def rec(v: int) -> None:
        t = len(word)
        for c in range(1, d + 1):
            w = v ^ bit[c]
            if w == 0:
                if t + 1 >= 4:
                    code = tuple(word) + (c,)
                    if brute_force_check(code, params) is None:
                        found.append(code)
                continue
            if t + 1 >= cap or w in seen:
                continue
            seen.add(w)
            word.append(c)
            rec(w)
            word.pop()
            seen.discard(w)

    if cap >= 4:
        rec(0)
    return sorted(found, key=lambda w: (len(w), w))
