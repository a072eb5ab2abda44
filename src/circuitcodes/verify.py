"""Deciding whether a transition sequence is a circuit code, and auditing
the structural facts that every valid code must satisfy.

The central requirement, for a cycle C in the d-cube with spread k:

    cube_distance(x, y) >= min(cycle_distance(x, y), k)   for all x, y in C.

Two independent deciders are provided.  ``check_spread`` works on parity
masks with bit counting; ``brute_force_check`` expands the vertex walk to
coordinate sets and measures pairwise symmetric differences.  They share
no arithmetic and are cross-validated exhaustively in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .canon import _least_rotation, leading_runs
from .core import (
    CodeParams,
    Segment,
    Word,
    as_word,
    expand_vertices,
    format_sequence,
    prefix_masks,
)


class StructuralError(ValueError):
    """Input is not a cycle at all: open walk, or fewer than 4 transitions."""


class InapplicableError(ValueError):
    """An audit's precondition does not hold for this input."""


class NotACircuitCodeError(ValueError):
    """An operation required a valid code and was given something else."""


class InternalConsistencyError(Exception):
    """A structural fact that holds for every valid code failed to hold.

    Breaches indicate an implementation bug, not bad user input, and are
    therefore a distinct error channel.
    """


@dataclass(frozen=True)
class ViolationReport:
    """Witness pair proving the spread requirement fails.

    ``i`` and ``j`` are 1-based vertex indices; the offending segment is
    the transition run from vertex i to vertex j.  Duplicate vertices
    surface here as ``cube_dist == 0``.
    """

    i: int
    j: int
    code_dist: int
    cube_dist: int
    required: int
    segment: Word

    def to_line(self) -> str:
        return (
            f"violation i={self.i} j={self.j} code_dist={self.code_dist} "
            f"cube_dist={self.cube_dist} required={self.required} "
            f"segment={format_sequence(self.segment)}"
        )


def _require_cycle(word: Word) -> None:
    n = len(word)
    if n < 4:
        raise StructuralError(
            f"a cycle in the hypercube has at least 4 transitions, got {n}"
        )
    mask = 0
    for c in word:
        mask ^= 1 << (c - 1)
    if mask:
        raise StructuralError("sequence is not closed: walk does not return to origin")


def check_spread(word: Sequence[int], params: CodeParams) -> ViolationReport | None:
    """Decide the spread requirement; None means valid.

    Scans vertex pairs in lexicographic (i, j) order and reports the
    first violation, so error reports are deterministic.  Pair distances
    come from parity prefix masks: each unordered pair is examined once,
    the long way around a pair's cycle never recomputed.
    """
    w = as_word(word, params.d)
    _require_cycle(w)
    n = len(w)
    k = params.k
    pm = prefix_masks(w)
    for i in range(n):
        pi = pm[i]
        for j in range(i + 1, n):
            m = j - i
            code_dist = m if m <= n - m else n - m
            required = code_dist if code_dist < k else k
            cube_dist = (pi ^ pm[j]).bit_count()
            if cube_dist < required:
                return ViolationReport(
                    i=i + 1,
                    j=j + 1,
                    code_dist=code_dist,
                    cube_dist=cube_dist,
                    required=required,
                    segment=w[i:j],
                )
    return None


def brute_force_check(
    word: Sequence[int], params: CodeParams
) -> ViolationReport | None:
    """Independent spread decider: expand the walk, compare coordinate sets.

    Same verdict contract as :func:`check_spread`, no shared shortcut.
    """
    w = as_word(word, params.d)
    _require_cycle(w)
    n = len(w)
    k = params.k
    walk = expand_vertices(w, params.d)
    for i in range(n):
        vi = walk[i]
        for j in range(i + 1, n):
            m = j - i
            code_dist = min(m, n - m)
            required = min(code_dist, k)
            cube_dist = len(vi ^ walk[j])
            if cube_dist < required:
                return ViolationReport(
                    i=i + 1,
                    j=j + 1,
                    code_dist=code_dist,
                    cube_dist=cube_dist,
                    required=required,
                    segment=w[i:j],
                )
    return None


def is_valid_code(word: Sequence[int], params: CodeParams) -> bool:
    """Convenience wrapper: True iff the word is a (d,k) circuit code."""
    try:
        return check_spread(word, params) is None
    except StructuralError:
        return False


def is_symmetric(word: Sequence[int]) -> bool:
    """True iff the second half of the word repeats the first half.

    Odd-length words are never symmetric.
    """
    w = tuple(word)
    n = len(w)
    if n % 2 != 0:
        return False
    half = n // 2
    return w[:half] == w[half:]


@dataclass(frozen=True)
class BitRunReport:
    """All maximal runs of pairwise-distinct labels, under cyclic reading."""

    runs: tuple[Segment, ...]
    longest: int


def bit_runs(word: Sequence[int]) -> BitRunReport:
    """Find every maximal bit run of a cyclic word.

    A run is maximal when extending it by one transition on either side
    introduces a repeated label.  If the whole word is distinct, the
    single run covering the full cycle is reported once, anchored at
    position 1.
    """
    w = as_word(word)
    n = len(w)
    if n == 0:
        return BitRunReport(runs=(), longest=0)
    # run_len[i] = longest distinct stretch starting at 0-based i, capped at n
    run_len = leading_runs(w)
    if max(run_len) == n:
        return BitRunReport(runs=(Segment(1, n),), longest=n)
    runs = []
    for i in range(n):
        # maximal to the left iff starting one earlier cannot reach further
        if run_len[(i - 1) % n] <= run_len[i]:
            runs.append(Segment(i + 1, run_len[i]))
    longest = max(s.length for s in runs)
    return BitRunReport(runs=tuple(runs), longest=longest)


def in_family(word: Sequence[int], params: CodeParams, l: int) -> bool:
    """Membership in the family of codes containing a bit run >= k + l."""
    if l < 2:
        raise ValueError(f"family parameter l must be >= 2, got {l}")
    w = as_word(word, params.d)
    if check_spread(w, params) is not None:
        raise NotACircuitCodeError(
            f"family membership is defined for valid ({params.d},{params.k}) codes"
        )
    return bit_runs(w).longest >= params.k + l


def check_window_bitrun_property(
    word: Sequence[int], params: CodeParams
) -> Segment | None:
    """Every window of k+3 transitions must begin or end with a (k+2)-run.

    Holds for any valid (d,k) code longer than 2(k+1); a counterexample
    (returned as the offending window) would mean the implementation is
    broken, not the input.  None means the property holds.
    """
    w = as_word(word, params.d)
    n = len(w)
    k = params.k
    if n <= 2 * (k + 1):
        raise InapplicableError(
            f"window property needs length > {2 * (k + 1)}, got {n}"
        )
    runs = leading_runs(w)
    for i in range(n):
        # the window at i begins with a (k+2)-run, or its last k+2 labels are one
        if runs[i] < k + 2 and runs[(i + 1) % n] < k + 2:
            return Segment(i + 1, k + 3)
    return None


def audit_delta_inequalities(
    word: Sequence[int], params: CodeParams
) -> tuple[Segment, ...]:
    """Check the two segment inequalities every valid code obeys.

    For a code of length N > 2k: segments of length <= k+1 have
    odd-count equal to their length (short segments repeat nothing),
    and segments with k <= length <= N-k have odd-count >= k.  Returns
    the offending segments, empty when all hold.  Run against an invalid
    code this simply reports where the structure breaks down.

    No segment is recounted.  Odd-count L means L distinct labels (each
    odd count is at least 1), so the short offenders are the starts whose
    leading run is below L.  In a closed word a segment (s, L) and its
    complement ((s + L) mod N, N - L) have one odd-set, so lengths above
    N/2 mirror their complement's offenders when it is at least k+2.
    """
    w = as_word(word, params.d)
    n = len(w)
    k = params.k
    if n <= 2 * k:
        raise InapplicableError(f"delta audit needs length > {2 * k}, got {n}")
    pm = prefix_masks(w)
    if pm[-1] != 0:
        raise StructuralError("delta audit expects a closed sequence")

    offenders: list[Segment] = []
    runs = leading_runs(w)
    for length in range(min(runs) + 1, min(k + 1, n - 1) + 1):
        offenders += (Segment(s + 1, length) for s in range(n) if runs[s] < length)
    wrapped = pm[:n] * 2
    low: dict[int, list[int]] = {}
    for length in range(k + 2, n - k + 1):
        if length <= n // 2 or n - length < k + 2:
            ends = zip(pm, wrapped[length : length + n])
            starts = low[length] = [s for s, (a, b) in enumerate(ends) if (a ^ b).bit_count() < k]
        else:  # segment (s, L) is the complement of ((s + L) mod n, n - L)
            starts = sorted((t - length) % n for t in low[n - length])
        offenders += (Segment(s + 1, length) for s in starts)
    return tuple(offenders)


@dataclass(frozen=True)
class NormalizedForm:
    """A symmetric code rotated and relabeled into run-first layout.

    The word reads ``head_run, link, tail, head_run, link, tail`` where
    ``head_run`` is the bit run 1,2,...,k+2, ``link`` is one transition
    and ``tail`` has k transitions.
    """

    word: Word
    head_run: Word
    link: int
    tail: Word
    shift: int
    relabeling: tuple[tuple[int, int], ...]


def normalize_to_bitrun_form(
    word: Sequence[int], params: CodeParams
) -> NormalizedForm:
    """Rotate+relabel a maximum symmetric code so a longest-possible run
    leads, then audit the tail constraints.

    Applies to valid symmetric codes of length 4k+6 with k even and
    2d = 3k+4 that contain a bit run of length k+2.  Among all
    qualifying rotations the lexicographically smallest normalized word
    is chosen, the smallest shift winning ties; the word repeats after
    n/2 shifts, so only shifts below n/2 are scanned.  The tail must
    satisfy: tail[i] > i+1 for every 0-based i, and tail[j] avoids
    j+4..k+2 for 0-based j < k-1; a breach is an internal-consistency
    failure because it cannot happen for a genuine maximum symmetric
    code.
    """
    d, k = params.d, params.k
    w = as_word(word, d)
    n = len(w)
    if k % 2 != 0:
        raise InapplicableError(f"normal form needs even spread, got k={k}")
    if 2 * d != 3 * k + 4:
        raise InapplicableError(
            f"normal form needs 2d = 3k+4, got d={d}, k={k}"
        )
    if n != 4 * k + 6:
        raise InapplicableError(f"normal form needs length {4 * k + 6}, got {n}")
    if not is_symmetric(w):
        raise InapplicableError("normal form needs a symmetric sequence")
    if check_spread(w, params) is not None:
        raise InapplicableError("normal form needs a valid circuit code")
    # the largest leading run starts a maximal run: it is bit_runs' longest
    runs = leading_runs(w)
    if max(runs) < k + 2:
        raise InapplicableError(f"normal form needs a bit run of length {k + 2}")

    norm, shift, mapping = _least_rotation(w, [s for s in range(n // 2) if runs[s] >= k + 2])
    half = n // 2
    if norm[:half] != norm[half:]:
        raise InternalConsistencyError(
            "rotation of a symmetric sequence stopped being symmetric"
        )
    head_run = norm[: k + 2]
    if head_run != tuple(range(1, k + 3)):
        raise InternalConsistencyError("leading run not relabeled to 1..k+2")
    link = norm[k + 2]
    tail = norm[k + 3 : 2 * k + 3]
    for i0, label in enumerate(tail):
        if label <= i0 + 1:
            raise InternalConsistencyError(
                f"tail position {i0 + 1} carries label {label}, expected > {i0 + 1}"
            )
    for j0 in range(k - 1):
        lo, hi = j0 + 4, k + 2
        if lo <= tail[j0] <= hi:
            raise InternalConsistencyError(
                f"tail position {j0 + 1} carries label {tail[j0]}, "
                f"forbidden range {lo}..{hi}"
            )
    return NormalizedForm(
        word=norm,
        head_run=head_run,
        link=link,
        tail=tail,
        shift=shift,
        relabeling=tuple(sorted(mapping.items())),
    )
