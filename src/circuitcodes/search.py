"""Exhaustive search for maximum-length circuit codes.

The search walks transition words depth-first in a symmetry-broken space:
a new label may be appended only in first-occurrence order (label m+1
cannot appear before label m), so every rotation class of every code has
a representative in the space and no work is spent on relabelings.

Pruning is by a necessary condition on partial words.  Any segment of a
finished cycle of length N must have odd-count >= min(len, N - len, k).
A partial word of length t whose walk is not back at the origin is
still open: every completion closes at N >= t + 1.  For a segment ending
at its newest transition that makes

    odd_count(segment) >= min(len(segment), k, t + 1 - len(segment))

a sound filter: the third term accounts for completions that close the
cycle soon after the segment started (the naive min(len, k) bound would
wrongly discard short cycles such as 1,2,1,2 at spread 2).  A word back
at the origin is a closed code, decided by the full verifier.  In
symmetric mode the doubled word always has N >= 2t, which removes the
third term for pairs inside the half-word.

In walk terms, a new vertex w != 0 at index j closes only at N >= j+1,
so it must keep cube distance at least min(j-i, k) (symmetric mode) or
min(j-i, k, i+1) (general mode) from every earlier walk[i], i >= lo = 0
(symmetric) or 1 (general).  For j - i < k the distance is read off the
word: walk[i] ^ w flips the labels word[i:j], so it reaches j - i
exactly when they are distinct.  Let near = max(lo, j+1-k), and
fresh = near in symmetric mode and max(near, ceil((j-1)/2)) in general
mode.  From fresh on the threshold is j - i; the parent passed the same
test one step earlier, so word[fresh:j-1] is distinct and the new label
passes when it last occurred before fresh.  Below fresh, j - i >= k in
symmetric mode and j - i >= min(i+2, k) in general mode, so the
threshold is k or min(i+1, k), one more than the radius k-1 or
min(i, k-1) of the ball around walk[i]: those pairs are decided by one
bit of a ball mask, the union of these balls over lo <= i < fresh as a
bitmask over the 2^d vertices, grown by one ball per push.  A ball is
built the first time its centre and radius are needed, by translating
the cached origin ball by XOR with the centre (one shift-and-mask step
per set bit of the centre), and kept for the rest of the traversal.

A symmetric half-word of length t closes as its doubled word, a cycle of
length 2t whose vertex t+s is walk[t] ^ walk[s].  The half-word is a
descendant of length T = t of its parent, so by rule (d) its doubled
word can be valid only if its top walk[t] is in the parent's tops list;
a parent with no list yet (t <= k+1) lets every top through.  That is a
necessary condition only: the wrap check of rule (a) and the full
verifier decide every pair of a doubled word that passes it.

Four more rules make the search a branch-and-bound search.

(a) Rotation breaking, in every mode (orderly generation, after McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 1998).  The
    leading run R of a word is the number of labels before its first
    repeat (0 while there is none).  Relabeled by first occurrence, a
    rotation with a shorter leading run is lexicographically smaller, so
    the canonical rotation of a code has the minimal leading run (see
    ``canon``).  Appending label c at index j, where c last occurred at
    p >= 1, is pruned if R == 0 or j - p < R: the rotation starting at p
    then has a leading run of at most j - p, shorter than the word's own
    (R, or j if this is its first repeat), and every completion is a
    non-canonical rotation.  The canonical rotation never meets this
    case, so every class keeps its canonical word.  A closed word is
    also dropped when a rotation across the wrap has a shorter run, so
    exactly the rotations of minimal leading run are found.  The partial
    words of symmetric mode are half-words, prefixes of the doubled word
    they close to, so the same argument holds for the doubled word:
    every rotation of a doubled word is the doubled word of a rotated
    half-word, so a rotation of minimal run is itself the doubled word
    of a half-word in the space, and the wrap check on the doubled word
    keeps exactly those.
(b) Parity bound (in the spirit of Ostergard & Pettersson, "Exhaustive
    search for snake-in-the-box codes", Graphs Combin. 2015), general
    mode with a floor.  Let g_t be the union of the balls of the centres
    walk[1..t]; the ball mask at depth t is fm = g_{t+1-k}.  A vertex
    walk[j] with i + k <= j <= N-1 is min(j-i, N-j+i) >= min(k, i+1)
    steps from centre i around the cycle, one more than the radius of its
    ball, so it lies outside that ball.  Hence every vertex walk[t+k..N-1]
    lies outside g_t.  The vertices are distinct, and along the cycle they
    alternate in parity, so each parity class of the vertices outside g_t
    holds at least floor((N-t-k)/2) of them, which gives, with free the
    vertices outside g_t,

        N <= t + k + 1 + 2 * min(|free & even|, |free & odd|)

    A node where it is below the floor cannot lead to a code of the
    floor's length and is not expanded.  The same bound over fm,
    N <= t + 2 + 2 * min(...), never cuts: with t0 = t+1-k it is term for
    term that of the ancestor at depth t0, which passed it under the same
    fixed floor (in a task, the head task tested the prefix nodes), and
    for t0 <= 0 the mask is empty.
(c) A static floor.  Every symmetric code is a general code, so the
    symmetric maximum is a lower bound on K(d,k).  A general run that
    can claim a maximum (length cap 2^d) first runs the symmetric search
    in-process on the same node budget, deadline and target; a target the
    seed meets ends the run there, as its codes are general codes.  Its
    length is the floor of the closure gate, so shorter closures are not
    verified, and of rule (b).  The floor is fixed for the run, and a
    kernel's own best never feeds rule (b), so witnesses and node totals
    do not depend on the number of workers.
(d) Closability, in every mode: a node is not expanded when none of its
    descendants can close.  Both rules read only the node's own walk and
    ball mask, never the best length found, so node totals are the same
    for any number of workers.
    In symmetric and family mode, let a half-word of length t have a
    descendant of length T >= t+1 that closes, with top x = walk[T].
    Every centre i <= t+1-k of fm is T - i >= k steps before x, so x
    lies outside fm.  For 1 <= s <= t-k, vertex T+s of the doubled walk,
    x ^ walk[s], is T + s - i >= k steps after centre i and T - s + i >= k
    steps before it around the cycle, so it lies outside fm as well.  The
    tops list holds the vertices x that pass both tests; when it is
    empty, the node gets no children, but its own closure is still
    tested against its parent's list.  A child's list is a sublist of its
    parent's, so each push narrows the parent's list
    (``_Kernel._narrow``), starting at t = k+1 from the vertices of
    weight >= k.  In pair terms x keeps distance k from walk[s] ^ walk[i]
    for s <= t-k and i <= t+1-k; the parent met every pair with
    s, i <= t-k, so the new pairs are (s, t+1-k) for s <= t-k, and x
    passes them all exactly when x ^ walk[t+1-k] lies outside the balls
    of walk[0..t-k], the parent's ball mask: one bit test per entry.  The
    start list meets only the pair (0, 0), so at t = k+1 the pair (0, 1)
    is tested too.  At k = 1 the origin's ball {0} never joins the mask
    list (centre 0 would join at depth k-1 = 0, before any push), so the
    test adds it.  A CPython bit test of a 2^d-bit int costs O(2^d), about
    0.3 us at d = 14, 1.8 us at d = 17 and 14-22 us at d = 20, against
    ~60 ns for a popcount; on budgeted runs of 50,000 nodes the bit test
    takes S(17,10) from 1.34 to 0.87 s and S(18,11) from 1.17 to 1.43 s
    (2-core Intel Xeon, CPython 3.11.7).  So above d = 17 each s is one
    popcount per entry instead, against the two newest centres at once.
    In general mode, let a word of length t have a descendant code of
    length N >= t+2.  Its vertex N-1 is a unit vector e_c.  A centre
    i <= t+1-k of fm is min(N-1-i, i+1) steps from it around the cycle,
    and N-1-i >= k, so the pair needs distance min(i+1, k), more than the
    ball's radius min(i+1, k) - 1: e_c lies outside fm.  Once fm holds
    every unit vector, the only child tried is the closing step, the
    label that takes the walk back to the origin, and that child is a
    leaf.

The masks take 2^d bits each, so the search takes d <= 20 only; each
kernel keeps the balls it has built, per radius, by centre.

The traversal is one loop, ``_Kernel.run``: it is the only code that
pushes, pops and counts a node, and it tests the candidate labels and the
parity bound inline.  In general mode the closing step, the label that
takes the walk back to the origin, is pushed like any other child, as a
leaf: it is explored before its siblings, and a closed word is never
extended or handed to a task.  Each node is counted and checked against
the node budget and the deadline at one site, right after its push, and
one closure test follows.  Past the gate n >= max(4, floor) and
n >= best, the kernel's longest code so far, a word back at the origin
closes as itself, and a symmetric half-word closes as its doubled word
when its top is in its parent's tops list.
The per-depth state (one ball-mask list, the rule (d) tops list and the
last occurrence each push replaced) lives in lists that grow with the
depth reached.  Each push ORs one ball into the mask list, that of
centre walk[t+1-k+ahead], ahead being k-1 in general mode and 0 in
symmetric mode, which builds a ball only when a mask first needs it.
After ahead leading zeros, entry x holds the balls of the centres up to
x+1-k: entry t is the node's fm, and in general mode entry fresh+k-2 is
g_{fresh-1}, read by the candidate test, and the newest entry is g_t.
A task of a multi-worker run starts from a prefix found by the head task:
``run(prefix)`` pushes the prefix labels along the same path, without
counting, closing or checking them (the head already did), and then
explores every extension.

Everything a pruned partial word could ever become is invalid, or a
non-canonical rotation, or shorter than a code already known; everything
accepted as a code has passed the full verifier.  The completeness of
this arrangement against unpruned enumeration is part of the test suite.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from .canon import IsomorphismClass, canonical_form, classify, leading_runs
from .core import CodeParams, Word
from .verify import InternalConsistencyError, check_spread

_MAX_SEARCH_D = 20  # vertex masks and balls of 2^d bits
# rule (d) narrows by one bit test of the parent's ball mask up to this d,
# and by popcounts above it (measured crossover; see ``_Kernel._narrow``)
_MASK_NARROW_MAX_D = 17


class IncompleteEnumerationError(RuntimeError):
    """Enumeration was requested but the search did not finish."""


@dataclass
class SearchOptions:
    """Knobs for a search run.

    ``target`` switches to decision mode: stop as soon as a code of at
    least that length is found, by the symmetric seed of a general run
    as well.  ``max_length`` bounds the word length (default 2^d, which
    no cycle can exceed); a bound below 2^d leaves longer codes
    unsearched, so such a run ends with stop reason ``length`` and is
    not exhaustive.  Budgets make the run stop early and report itself
    as non-exhaustive.  A target or a node budget needs a single worker:
    tasks share no state to honour either.
    """

    target: int | None = None
    max_length: int | None = None
    node_budget: int | None = None
    time_limit: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        # bool is an int subclass, but True is no count; workers is never None
        for name in ("target", "max_length", "node_budget", "time_limit", "workers"):
            value = getattr(self, name)
            kinds, what = ((int, float), "a number") if name == "time_limit" else (int, "an integer")
            if (value is not None or name == "workers") and (
                isinstance(value, bool) or not isinstance(value, kinds)
            ):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.target is not None:
            if self.target % 2 != 0 or self.target < 4:
                raise ValueError("target length must be an even number >= 4")
            if self.workers != 1:
                raise ValueError("decision-mode runs (target set) are single-worker")
        if self.node_budget is not None and self.workers != 1:
            raise ValueError("node-budgeted runs are single-worker")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be >= 1")
        # a NaN limit would never expire: `not > 0` rejects it
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time limit must be positive")
        if self.max_length is not None and self.max_length < 0:
            raise ValueError("max length must be >= 0")


@dataclass
class SearchRecord:
    """Outcome of one search run.

    ``witnesses`` holds the canonical forms (deduplicated, sorted) of
    every code of the maximum length found.  ``exhaustive`` is True only
    when the whole symmetry-broken tree was traversed; truncated runs
    never claim optimality.  ``stop_reason`` is one of ``complete``,
    ``target``, ``nodes``, ``time``, ``length``.
    """

    params: CodeParams
    mode: str
    l: int | None
    n: int
    exhaustive: bool
    witnesses: tuple[Word, ...]
    nodes: int
    seconds: float
    stop_reason: str = "complete"

    def to_json_obj(self) -> dict:
        return {
            "d": self.params.d,
            "k": self.params.k,
            "mode": self.mode,
            "l": self.l,
            "n": self.n,
            "exhaustive": self.exhaustive,
            "stop_reason": self.stop_reason,
            "witnesses": [list(w) for w in self.witnesses],
            "nodes": self.nodes,
            "seconds": round(self.seconds, 3),
        }


class _Stop(Exception):
    """Ends a traversal early; ``reason`` is the stop reason it returns."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


@functools.cache
def _low_masks(d: int) -> tuple[int, ...]:
    """low[b] = bitmask of the vertices of the d-cube with bit b clear."""
    out = []
    for b in range(d):
        # 2^b set bits, 2^b clear, repeated: double the pattern up to 2^d
        m, width = (1 << (1 << b)) - 1, 2 << b
        while width < 1 << d:
            m |= m << width
            width <<= 1
        out.append(m)
    return tuple(out)


@functools.cache
def _origin_balls(d: int, max_radius: int) -> tuple[int, ...]:
    """balls[r] = bitmask of the vertices within Hamming distance r of 0."""
    low = _low_masks(d)
    balls = [1]
    for _ in range(max_radius):
        m = grown = balls[-1]
        # weight <= r+1 is weight <= r with one more bit set
        for b in range(d):
            grown |= (m & low[b]) << (1 << b)
        balls.append(grown)
    return tuple(balls)


@functools.cache
def _heavy(d: int, k: int) -> tuple[int, ...]:
    """The vertices of weight >= k: the tops list before any filter."""
    return tuple(x for x in range(1 << d) if x.bit_count() >= k)


@functools.cache
def _even_mask(d: int) -> int:
    """Bitmask of the vertices of even weight in the d-cube."""
    even = 1
    for b in range(d):
        # vertices with bit b set flip parity: the odd ones below, moved up
        even |= (even ^ ((1 << (1 << b)) - 1)) << (1 << b)
    return even


class _Kernel:
    """One depth-first traversal of the symmetry-broken word space."""

    def __init__(
        self,
        params: CodeParams,
        mode: str,
        l_req: int | None,
        max_word: int,
        floor: int = 0,
        target: int | None = None,
        deadline: float | None = None,
        node_budget: int | None = None,
        stop_depth: int | None = None,
    ) -> None:
        self.params = params
        self.d = params.d
        self.k = params.k
        self.symmetric = mode != "general"
        # lowest walk index a new vertex is checked against: in general mode
        # walk[0] is the origin the cycle returns to
        self.lo = 0 if self.symmetric else 1
        self.l_req = l_req
        self.max_word = max_word
        self.target = target
        self.deadline = deadline
        self.node_budget = node_budget
        self.stop_depth = stop_depth
        # balls[r]: the balls of radius r built so far, by centre; symmetric
        # mode only uses radius k-1
        self.origin_balls = _origin_balls(self.d, self.k - 1)
        self.low = _low_masks(self.d)
        self.balls: list[dict[int, int]] = [{} for _ in range(self.k)]
        self.bit = [0] + [1 << (c - 1) for c in range(1, self.d + 1)]
        # rule (d) in general mode: the vertex mask of e_1 ... e_d
        self.units = sum(1 << (1 << b) for b in range(self.d))
        # rule (b) of the module docstring: general mode with a floor
        self.floor = floor
        self.even = _even_mask(self.d) if not self.symmetric and floor > 0 else None

        # the word and walk of the current node; the rest of the traversal
        # state lives in run()
        self.word: list[int] = []
        self.walk: list[int] = [0]

        self.best = 0
        self.witnesses: list[Word] = []
        self.nodes = 0
        self.frontier: list[Word] = []

    # -- balls ---------------------------------------------------------------

    def _new_ball(self, radius: int, v: int) -> int:
        """Build and keep the ball of the radius around v: the origin ball
        translated by XOR v, one shift-and-mask step per set bit of v.  The
        ball holds v, so it is never 0, and run() tests a cache miss as
        ``get(v) or``; the ball around v = 0 (walk[0] in symmetric mode) is
        built once like any other."""
        m = self.origin_balls[radius]
        low = self.low
        for b in range(self.d):
            if v >> b & 1:
                s = 1 << b
                m = ((m & low[b]) << s) | ((m >> s) & low[b])
        self.balls[radius][v] = m
        return m

    # -- closability (rule (d)) ----------------------------------------------

    def _narrow(self, tops: Sequence[int] | None, t: int, fm: int) -> list[int]:
        """The tops list of the half-word of length t > k, from its parent's
        (None at t = k+1) and the parent's ball mask fm, the balls of
        walk[0..t-k].

        A top x keeps distance k from walk[s] ^ walk[i] for every
        0 <= s <= t-k and 0 <= i <= t+1-k.  The parent's list meets the
        pairs with s, i <= t-k, and as walk[s] ^ walk[i] is symmetric in s
        and i, the new pairs are every s <= t-k against walk[t+1-k]: x
        passes them all when x ^ walk[t+1-k] lies outside fm.  The start
        list, the vertices of weight >= k, meets only (0, 0), so at
        t = k+1 the pair (0, 1) is tested too, as x ^ walk[1] outside fm.
        At k = 1 the mask list never holds the origin's ball, {0}, so it
        is added here.  Up to d = _MASK_NARROW_MAX_D that is one bit test
        per entry; above it, where a bit test of the 2^d-bit mask costs
        more than the popcounts, ``_narrow_by_count`` decides the same
        pairs.  Both filter in order, so the list stays ascending.
        """
        if self.d > _MASK_NARROW_MAX_D:
            return self._narrow_by_count(tops, t)
        walk = self.walk
        if self.k == 1:
            fm |= 1
        centre = walk[t + 1 - self.k]
        if tops is None:
            first = walk[1]
            return [
                x for x in _heavy(self.d, self.k)
                if not fm >> (x ^ centre) & 1 and not fm >> (x ^ first) & 1
            ]
        return [x for x in tops if not fm >> (x ^ centre) & 1]

    def _narrow_by_count(self, tops: Sequence[int] | None, t: int) -> list[int]:
        """``_narrow`` for d > _MASK_NARROW_MAX_D, by popcounts.

        Each s <= t-k is tested against both newest centres at once,
        a = walk[t-k] and walk[t+1-k] = a ^ e, which differ in one bit e;
        that covers the new pairs, (0, 1) of the start list included.  For
        y = x ^ a ^ walk[s], |y| >= k and |y ^ e| >= k both hold exactly
        when |y & ~e| >= k: one popcount per s and entry.
        """
        k, walk = self.k, self.walk
        if tops is None:
            tops = _heavy(self.d, k)
        a = walk[t - k]
        keep = ~(a ^ walk[t + 1 - k])
        for s in range(t - k + 1):
            c = a ^ walk[s]
            tops = [x for x in tops if ((x ^ c) & keep).bit_count() >= k]
            if not tops:
                break
        return tops

    # -- closing a code ------------------------------------------------------

    def _record(self, code: Word) -> None:
        # past the gate of run(), n >= best
        n = len(code)
        if n > self.best:
            self.best, self.witnesses = n, []
        self.witnesses.append(code)
        if self.target is not None and n >= self.target:
            raise _Stop("target")

    def _close(self, n: int) -> None:
        """Verify the code of length n closed at this node and record it if
        it is a wanted code: the word itself, back at the origin, in general
        mode, the doubled half-word in symmetric mode.  run() calls it only
        past the gate n >= max(4, floor) and n >= best, and in symmetric
        mode only for a top in the parent's tops list."""
        # n is t in general mode and 2t in symmetric mode
        code = tuple(self.word) * (n // len(self.word))
        # rule (a) across the wrap: some rotation has a shorter run
        runs = leading_runs(code)
        if min(runs) < runs[0]:
            return
        if check_spread(code, self.params) is not None:
            return
        if self.l_req is not None and max(runs) < self.k + self.l_req:
            return
        self._record(code)

    # -- traversal -----------------------------------------------------------

    def run(self, prefix: Sequence[int] = ()) -> str:
        """Push the prefix, then explore every extension of it; returns the
        stop reason.

        This loop is the only code that pushes, pops, counts and closes a
        node.  The prefix labels take the same push path but are not
        counted, closed or checked: they come from a traversal that already
        did.  Children are explored in ascending label order, the closing
        step first, so node totals are reproducible.  Call it once, on a
        fresh kernel.
        """
        d, k, lo, symmetric = self.d, self.k, self.lo, self.symmetric
        word, walk, bit, balls = self.word, self.walk, self.bit, self.balls
        frontier, close, narrow = self.frontier, self._close, self._narrow
        units = self.units
        stop_depth = self.stop_depth
        word_cap = self.max_word // 2 if symmetric else self.max_word
        if stop_depth is not None:
            # split above the last level, where every node is a leaf
            stop_depth = min(stop_depth, max(word_cap - 1, 1))
        budget = self.node_budget
        deadline = self.deadline
        # rule (b): on in general mode with a floor
        even = self.even
        pfloor = self.floor if even is not None else 0
        full = 1 << d
        # the closure gate: no code shorter than 4 or than the floor is wanted
        least = max(4, self.floor)
        # general mode keeps g_t, k-1 balls ahead of fm; symmetric mode none
        ahead = 0 if symmetric else k - 1
        # per-depth state (module docstring): masks[t] is the ball mask of
        # the word of length t (masks[-1] is g_t in general mode), bounds[t]
        # its rule (d) tops list (symmetric mode, t > k; else None), prevs[j]
        # the last index of label word[j] before index j
        masks = [0] * (ahead + 1)
        bounds: list = [None]
        prevs: list[int] = []
        # rule (a) state: the last index of each label, and the leading
        # run R (0 before any repeat); used is the number of labels seen
        last = [-1] * (d + 1)
        used = run_r = 0
        base = len(prefix)
        nodes = self.nodes
        t = 0
        pend: list[list[int]] = []
        try:
            while True:
                # the children of the node at depth t, as a list that pops
                # the closing step first, then the rest in ascending label order
                if t < base:
                    cands = [prefix[t]]
                elif (
                    t >= word_cap
                    or (stop_depth is not None and t >= stop_depth)
                    or (t > 0 and walk[t] == 0)
                    or (symmetric and t > k and not bounds[-1])
                ):
                    # a closed code is a leaf; rule (d) in symmetric mode:
                    # no tops left, so no half-word below this one can close
                    cands = []
                else:
                    cands = []
                    # rule (b): reaching the floor needs 2 * min(free even,
                    # free odd) = full - taken - |even taken - odd taken|
                    # >= need outside g_t
                    need = pfloor - t - k - 1
                    g = masks[-1]
                    if need <= 0 or (
                        full - (taken := g.bit_count())
                        - abs(2 * (g & even).bit_count() - taken) >= need
                    ):
                        # pairs (i, t+1) (module docstring): below fresh one
                        # bit of gm, g_{fresh-1} (fm in symmetric mode), decides
                        # them; from fresh on, a label absent from word[fresh:]
                        # meets them all
                        near = t + 2 - k if t + 2 - k > lo else lo
                        fresh = near if symmetric else max(near, (t + 1) // 2)
                        v, fm = walk[t], masks[t]
                        gm = fm if symmetric else masks[fresh + k - 2]
                        if symmetric or fm & units != units:
                            labels = range(used + 1 if used < d else d, 0, -1)
                        else:
                            # rule (d) in general mode: every unit vector is
                            # in fm, so only the label closing here is tried
                            labels = (v.bit_length(),) if v & (v - 1) == 0 else ()
                        # rule (a): keep c unless its last index p >= 1
                        # has t - p < R
                        cut = t - run_r if run_r else 0
                        closer = 0
                        for c in labels:
                            p = last[c]
                            if p > cut:
                                continue
                            w = v ^ bit[c]
                            if w == 0:
                                closer = c
                                continue
                            if p < fresh and not (gm >> w) & 1:
                                cands.append(c)
                        if closer and not symmetric:
                            # back at the origin: the closed code is a leaf
                            # child, popped first; a symmetric half-word never
                            # revisits the origin and closes by doubling
                            cands.append(closer)
                pend.append(cands)
                # backtrack to the deepest node with a child left
                while not cands:
                    pend.pop()
                    if not pend:
                        return "complete"
                    cands = pend[-1]
                    c = word.pop()
                    walk.pop()
                    masks.pop()
                    bounds.pop()
                    p = last[c] = prevs.pop()
                    # a first occurrence raised used; the first repeat of
                    # word[0] fixed R
                    if p < 0:
                        used -= 1
                    elif p == 0:
                        run_r = 0
                    t -= 1
                # push the next child
                c = cands.pop()
                p = last[c]
                prevs.append(p)
                last[c] = t
                if p < 0:
                    used += 1
                elif p == 0:
                    # a surviving first repeat is always of word[0]; it fixes R
                    run_r = t
                walk.append(walk[t] ^ bit[c])
                word.append(c)
                t += 1
                mask, bound = masks[-1], bounds[-1]
                # the next vertex lies k steps past walk[i - ahead]; the
                # ball of walk[i] joins the mask
                i = t + 1 - k + ahead
                if i >= lo:
                    radius = i if not symmetric and i < k else k - 1
                    v = walk[i]
                    mask |= balls[radius].get(v) or self._new_ball(radius, v)
                if symmetric and t > k:
                    bound = narrow(bound, t, masks[-1])
                masks.append(mask)
                bounds.append(bound)
                if t <= base:
                    continue
                nodes += 1
                if budget is not None and nodes >= budget:
                    raise _Stop("nodes")
                if deadline is not None and nodes & 0xFF == 0 and time.monotonic() > deadline:
                    raise _Stop("time")
                n = 2 * t if symmetric else t
                if n >= least and n >= self.best:
                    if symmetric:
                        # rule (d) at T = t: the top must be in the parent's
                        # tops list, which is ascending (_heavy yields the
                        # vertices in order and _narrow filters in order)
                        tops, x = bounds[-2], walk[t]
                        j = 0 if tops is None else bisect_left(tops, x)
                        if tops is None or j < len(tops) and tops[j] == x:
                            close(n)
                    elif walk[t] == 0:
                        close(n)
                if stop_depth is not None and t >= stop_depth and walk[t]:
                    frontier.append(tuple(word))
        except _Stop as stop:
            return stop.reason
        finally:
            self.nodes = nodes


@dataclass
class _RunResult:
    best: int
    raw_witnesses: list[Word]
    nodes: int
    stop_reason: str
    frontier: list[Word] = field(default_factory=list)


def _run_subtree(job: dict, prefix: Word = (), stop_depth: int | None = None) -> _RunResult:
    """Search every extension of one prefix, down to ``stop_depth`` when
    given: the only code that builds a kernel, in a pool worker and
    in-process alike.  ``job`` holds the kernel's run arguments, its stop
    rules included, so a task's result depends on ``(job, prefix)``
    alone."""
    kernel = _Kernel(**job, stop_depth=stop_depth)
    reason = kernel.run(prefix)
    return _RunResult(kernel.best, kernel.witnesses, kernel.nodes, reason, kernel.frontier)


def _pool_map(job: dict, prefixes: list[Word], workers: int) -> list[_RunResult] | None:
    """Run one task per prefix in a process pool of at most one process per
    task; None when no pool can be started here.  ``multiprocessing`` is
    imported here, so that importing the package does not load it."""
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    try:
        with ctx.Pool(processes=min(workers, len(prefixes))) as pool:
            return pool.map(functools.partial(_run_subtree, job), prefixes)
    except (OSError, RuntimeError):
        return None


def _run_tree(job: dict, workers: int) -> _RunResult:
    """Traverse one search tree, split over ``workers`` processes.

    The head task covers the whole tree on one worker.  On more, it stops
    at depth max(4, k+3), which its kernel lowers to fit the word length
    cap, and every open word at that depth is a task; closed codes are
    leaves and never become tasks.  A task is its prefix: no task reads
    another's result, so the merged answer and node total do not depend
    on the split.  Tasks share no state, so a node budget comes with one
    worker only.
    """
    stop_depth = max(4, job["params"].k + 3) if workers > 1 else None
    head = _run_subtree(job, (), stop_depth)
    prefixes = head.frontier if head.stop_reason == "complete" else []
    done = _pool_map(job, prefixes, workers) if prefixes else None
    if done is None:
        # no subprocess support here: the same tasks in-process
        done = [_run_subtree(job, prefix) for prefix in prefixes]
    results = [head, *done]

    best = max(r.best for r in results)
    raws = [w for r in results for w in r.raw_witnesses if len(w) == best]
    reasons = {r.stop_reason for r in results}
    stop = next((r for r in ("time", "nodes", "target") if r in reasons), "complete")
    return _RunResult(best, raws, sum(r.nodes for r in results), stop)


def _symmetric_floor(job: dict) -> _RunResult:
    """The symmetric maximum, searched in-process: a lower bound on K(d,k)."""
    return _run_subtree({**job, "mode": "symmetric"})


def _run_search(
    params: CodeParams, mode: str, l_req: int | None, options: SearchOptions
) -> _RunResult:
    """Run one search.

    A general run that may claim a maximum first searches the symmetric
    maximum (rule (c)); that seed shares the node budget, the deadline and
    the target, and its nodes count in the total.
    """
    if mode not in ("general", "symmetric", "family"):
        raise ValueError(f"mode must be general, symmetric or family, got {mode!r}")
    if mode == "family":
        if not isinstance(l_req, int):
            raise ValueError(f"family search needs an integer l, got {l_req!r}")
        if l_req < 2:
            raise ValueError(f"family parameter l must be >= 2, got {l_req}")
    elif l_req is not None:
        raise ValueError(f"{mode} search takes no l, got {l_req!r}")
    if params.d > _MAX_SEARCH_D:
        raise ValueError(
            f"search takes d <= {_MAX_SEARCH_D}: its vertex masks have 2^d bits"
        )
    full = 1 << params.d
    max_word = full if options.max_length is None else min(options.max_length, full)
    deadline = (
        time.monotonic() + options.time_limit if options.time_limit is not None else None
    )
    job = dict(
        params=params, mode=mode, l_req=l_req, max_word=max_word, floor=0,
        target=options.target, deadline=deadline, node_budget=options.node_budget,
    )
    seed = None
    if mode == "general" and max_word == full:
        seed = _symmetric_floor(job)
        if seed.stop_reason != "complete":
            return seed  # its codes are general codes too, but nothing is proved
        job["floor"] = seed.best
        if job["node_budget"] is not None:
            job["node_budget"] -= seed.nodes
    result = _run_tree(job, options.workers)
    if seed is not None:
        result.nodes += seed.nodes
        if result.best < seed.best:
            if result.stop_reason == "complete":
                raise InternalConsistencyError(
                    f"exhaustive search found no code of the symmetric floor {seed.best}"
                )
            # stopped before it re-found a code as long as the seed's
            result.best, result.raw_witnesses = seed.best, seed.raw_witnesses
    if result.stop_reason == "complete" and max_word < full:
        result.stop_reason = "length"  # longer codes were never looked at: not a proof
    return result


def _search_record(
    params: CodeParams, mode: str, l_req: int | None, options: SearchOptions | None
) -> SearchRecord:
    """Run and time one search; the record lists canonical witnesses."""
    options = options or SearchOptions()
    t0 = time.perf_counter()
    result = _run_search(params, mode, l_req, options)
    seconds = time.perf_counter() - t0
    return SearchRecord(
        params=params,
        mode=mode,
        l=l_req,
        n=result.best,
        exhaustive=result.stop_reason == "complete",
        witnesses=tuple(sorted({canonical_form(w).word for w in result.raw_witnesses})),
        nodes=result.nodes,
        seconds=seconds,
        stop_reason=result.stop_reason,
    )


def max_length(params: CodeParams, options: SearchOptions | None = None) -> SearchRecord:
    """Maximum length of a (d,k) circuit code, with all witnesses.

    Exhaustive unless a budget interrupts; decision mode (``target``)
    stops at the first code of at least the target length.  Unless the
    length is capped below 2^d, the symmetric maximum is searched first as
    a lower bound; its nodes count in ``nodes``, and a target it meets
    ends the run with its symmetric codes.
    """
    return _search_record(params, "general", None, options)


def symmetric_max(
    params: CodeParams, options: SearchOptions | None = None
) -> SearchRecord:
    """Maximum length of a symmetric (d,k) circuit code.

    Searches half-words; a candidate closes as the doubled word, which is
    put through the full verifier when the half-word's top is in its
    parent's rule (d) tops list.
    """
    return _search_record(params, "symmetric", None, options)


def family_symmetric_max(
    params: CodeParams, l: int, options: SearchOptions | None = None
) -> SearchRecord:
    """Maximum symmetric length among codes with a bit run >= k + l."""
    return _search_record(params, "family", l, options)


def enumerate_max(
    params: CodeParams,
    options: SearchOptions | None = None,
    mode: str = "general",
    l: int | None = None,
) -> list[IsomorphismClass]:
    """All maximum-length codes, partitioned into isomorphism classes.

    Counts are multiplicities within the symmetry-broken search space; in
    general mode that is one word per distinct relabeled rotation of
    minimal leading run.
    Raises :class:`IncompleteEnumerationError` rather than returning a
    partial answer when the search was truncated.
    """
    options = options or SearchOptions()
    result = _run_search(params, mode, l, options)
    if result.stop_reason != "complete":
        raise IncompleteEnumerationError(
            f"search stopped early ({result.stop_reason}); no class list is claimed"
        )
    return classify(result.raw_witnesses)
