"""Deciding whether a transition sequence is a circuit code, and auditing
the structural facts that every valid code must satisfy.

The central requirement, for a cycle C in the d-cube with spread k:

    cube_distance(x, y) >= min(cycle_distance(x, y), k)   for all x, y in C.

Two independent deciders are provided.  ``check_spread`` works on parity
masks with bit counting; ``brute_force_check`` expands the vertex walk to
coordinate sets and measures pairwise symmetric differences.  They share
no arithmetic and are cross-validated exhaustively in the test suite.

``check_spread`` and the delta audit test every vertex pair of a word
with a few whole-word integer operations instead of one Python step per
pair.  Vertex s is the parity mask m_s of the first s labels, and the n
masks are packed into one int, one field of W bits per vertex, where W is
the smallest power of two that is at least max(8, d).  Pairs at cycle
distance L are then one XOR of that int with itself rotated by L fields:
field s holds m_s ^ m_(s+L mod n), whose popcount is the cube distance.
A SWAR popcount (bit-parallel arithmetic on all fields of one int) counts
every field at once: three mask steps leave each byte's count in that
byte, and log2(W/8) shift-and-add folds gather a field's bytes into its
low byte.  One add of 128 - t to every field then decides every pair
against its threshold t.  A count c is at most d <= 64, so a threshold
above d + 1 decides like d + 1 and is capped there.  Then c + 128 - t
lies in 63..191: it never carries out of its byte, and bit 7 of the low
byte is set exactly when c >= t (the field's other bytes hold partial
sums of at most 64 and are masked off).  The fields whose bit 7 is clear
are the offending starts.  Lengths are taken one at a time, so the kernel
holds a few ints of 2nW bits and no more.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .canon import _least_rotation, leading_runs
from .core import (
    CodeParams,
    Segment,
    Word,
    as_word,
    expand_vertices,
    format_sequence,
    is_closed,
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


def _require_cycle(n: int, closed: bool) -> None:
    if n < 4:
        raise StructuralError(
            f"a cycle in the hypercube has at least 4 transitions, got {n}"
        )
    if not closed:
        raise StructuralError("sequence is not closed: walk does not return to origin")


@functools.cache
def _array_of(width: int) -> functools.partial:
    """An ``array`` constructor with items ``width`` bits wide.

    One entry per field width (8, 16, 32 or 64), and ``array`` is imported
    on first use, so importing the package does not load it.
    """
    from array import array

    return functools.partial(array, next(c for c in "BHILQ" if array(c).itemsize * 8 == width))


class _WordFacts:
    """A validated word and what the deciders and audits read off it: its
    prefix masks, their packed int and, on first use, its run table."""

    def __init__(self, word: Word, d: int) -> None:
        self.word = word
        self.d = d
        self.n = n = len(word)
        self.masks = prefix_masks(word)
        self.width = max(8, 1 << (d - 1).bit_length())
        fields = _array_of(self.width)(self.masks[:n])
        if sys.byteorder == "big":
            fields.byteswap()
        # masks[s] in bits s*W .. s*W + W - 1
        self.packed = int.from_bytes(fields.tobytes(), "little")
        self._runs: list[int] | None = None

    @property
    def runs(self) -> list[int]:
        if self._runs is None:
            self._runs = leading_runs(self.word)
        return self._runs


_last_facts: _WordFacts | None = None


def _word_facts(word: Sequence[int], d: int) -> _WordFacts:
    """The facts of ``word`` validated against dimension ``d``.

    A one-entry memo: the header and the three audits of one ``audit``
    record share one validation, run table and packed int.  It holds the
    last word only, so its size does not grow with the input.  It is keyed by identity, not equality: the memo keeps
    its word alive, so an id cannot be reused while it is cached, and an
    equal word with other label types (``True`` for 1) is validated afresh.
    """
    global _last_facts
    facts = _last_facts
    if facts is None or facts.word is not word or facts.d != d:
        facts = _last_facts = _WordFacts(as_word(word, d), d)
    return facts


def _short_pairs(
    facts: _WordFacts, lengths: Iterable[int], k: int
) -> Iterator[tuple[int, int]]:
    """Yield ``(L, flags)`` for each length L at which some pair falls short.

    Bit 7 of field s of ``flags`` is set iff vertices s and (s + L) mod n
    are fewer than min(L, k) cube steps apart; every other bit is clear.
    The word must be closed.  The packed kernel of the module docstring.
    """
    n, width, packed = facts.n, facts.width, facts.packed
    k = min(k, facts.d + 1)  # no count exceeds d, so larger thresholds act alike
    doubled = packed | (packed << n * width)
    ones = int.from_bytes(b"\x01".ljust(width // 8, b"\x00") * n, "little")
    bytes_ = ones * int.from_bytes(b"\x01" * (width // 8), "little")
    m1, m2, m4 = 0x55 * bytes_, 0x33 * bytes_, 0x0F * bytes_
    top = 0x80 * ones
    folds = [shift for shift in (8, 16, 32) if shift < width]
    add_k = (128 - k) * ones
    for length in lengths:
        x = packed ^ (doubled >> length * width)
        x -= (x >> 1) & m1
        x = (x & m2) + ((x >> 2) & m2)
        x = (x + (x >> 4)) & m4
        for shift in folds:
            x += x >> shift
        met = (x + (add_k if length >= k else (128 - length) * ones)) & top
        if met != top:
            yield length, met ^ top


def _fields(flags: int, width: int) -> list[int]:
    """Indices of the fields with a set bit, ascending."""
    out = []
    while flags:
        low = flags & -flags
        out.append((low.bit_length() - 1) // width)
        flags ^= low
    return out


def check_spread(word: Sequence[int], params: CodeParams) -> ViolationReport | None:
    """Decide the spread requirement; None means valid.

    Reports the first violating vertex pair in lexicographic (i, j) order,
    so error reports are deterministic.  The packed kernel decides the
    word and stops at the first length that has an offending pair; only
    then are the pairs scanned one by one, up to the first violation.
    """
    return _first_violation(_word_facts(word, params.d), params.k)


def _first_violation(facts: _WordFacts, k: int) -> ViolationReport | None:
    n, pm = facts.n, facts.masks
    _require_cycle(n, pm[-1] == 0)
    if next(_short_pairs(facts, range(1, n // 2 + 1), k), None) is None:
        return None
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
                    segment=facts.word[i:j],
                )
    raise InternalConsistencyError("the packed kernel flagged a pair that the scan does not find")


def brute_force_check(
    word: Sequence[int], params: CodeParams
) -> ViolationReport | None:
    """Independent spread decider: expand the walk, compare coordinate sets.

    Same verdict contract as :func:`check_spread`, no shared shortcut.
    """
    w = as_word(word, params.d)
    _require_cycle(len(w), is_closed(w))
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
    facts = _word_facts(word, params.d)
    if _first_violation(facts, params.k) is not None:
        raise NotACircuitCodeError(
            f"family membership is defined for valid ({params.d},{params.k}) codes"
        )
    return max(facts.runs) >= params.k + l


def check_window_bitrun_property(
    word: Sequence[int], params: CodeParams
) -> Segment | None:
    """Every window of k+3 transitions must begin or end with a (k+2)-run.

    Holds for any valid (d,k) code longer than 2(k+1); a counterexample
    (returned as the offending window) would mean the implementation is
    broken, not the input.  None means the property holds; a word that is
    not a cycle raises StructuralError.
    """
    facts = _word_facts(word, params.d)
    n = facts.n
    k = params.k
    if n <= 2 * (k + 1):
        raise InapplicableError(
            f"window property needs length > {2 * (k + 1)}, got {n}"
        )
    _require_cycle(n, facts.masks[-1] == 0)
    runs = facts.runs
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
    leading run is below L.  Every longer length goes through the packed
    kernel with threshold k.  Offenders are ordered by length, then start.
    """
    facts = _word_facts(word, params.d)
    n = facts.n
    k = params.k
    if n <= 2 * k:
        raise InapplicableError(f"delta audit needs length > {2 * k}, got {n}")
    _require_cycle(n, facts.masks[-1] == 0)

    offenders: list[Segment] = []
    runs = facts.runs
    for length in range(min(runs) + 1, min(k + 1, n - 1) + 1):
        offenders += (Segment(s + 1, length) for s in range(n) if runs[s] < length)
    for length, flags in _short_pairs(facts, range(k + 2, n - k + 1), k):
        offenders += (Segment(s + 1, length) for s in _fields(flags, facts.width))
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
    facts = _word_facts(word, d)
    w, n = facts.word, facts.n
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
    if _first_violation(facts, k) is not None:
        raise InapplicableError("normal form needs a valid circuit code")
    # the largest leading run starts a maximal run: it is bit_runs' longest
    runs = facts.runs
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
