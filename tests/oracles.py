"""Test oracles: slow, obviously-correct references for the fast code.

They live outside the public API.  The test suite compares the pruned
search (:func:`all_valid_codes`) against unpruned enumeration
(:func:`enumerate_codes_bruteforce`) and the run-filtered canonical form
against the full rotation scan (:func:`canonical_form_bruteforce`).
"""

from __future__ import annotations

from typing import Sequence

from circuitcodes.canon import CanonicalForm, _first_occurrence_relabel
from circuitcodes.core import CodeParams, Word, as_word
from circuitcodes.search import IncompleteEnumerationError, SearchOptions, _run_search
from circuitcodes.verify import brute_force_check


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
            cand, mapping = _first_occurrence_relabel(base[s:] + base[:s])
            if best is None or cand < best.word:
                best = CanonicalForm(
                    word=cand,
                    shift=s,
                    relabeling=tuple(sorted(mapping.items())),
                    reversal_used=reversed_flag,
                )
    return best


def all_valid_codes(
    params: CodeParams,
    max_length_bound: int,
    mode: str = "general",
) -> list[Word]:
    """Every valid code in the symmetry-broken space, any length.

    Testing aid for completeness comparisons against unpruned
    enumeration; output is sorted by (length, word).
    """
    options = SearchOptions(max_length=max_length_bound)
    result = _run_search(params, mode, None, options, collect_all=True)
    if result.stop_reason not in ("complete", "length"):
        raise IncompleteEnumerationError("collect-all run did not finish")
    return sorted(result.raw_witnesses, key=lambda w: (len(w), w))


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
