"""Exhaustive search for maximum-length circuit codes.

The search walks transition words depth-first in a symmetry-broken space:
a new label may be appended only in first-occurrence order (label m+1
cannot appear before label m), so every rotation class of every code has
a representative in the space and no work is spent on relabelings.

Pruning is by a necessary condition on partial words.  Any segment of a
finished cycle of length N must have odd-count >= min(len, N - len, k).
For a segment ending at the newest transition of a partial word of
length t, every completion satisfies N >= t, which makes

    odd_count(segment) >= min(len(segment), k, t - len(segment))

a sound filter: the third term accounts for completions that close the
cycle soon after the segment started (the naive min(len, k) bound would
wrongly discard short cycles such as 1,2,1,2 at spread 2).  In symmetric
mode the doubled word always has N >= 2t, which removes the third term
for pairs inside the half-word.

In walk terms, a new vertex w at index j must keep cube distance at
least a threshold from every earlier vertex walk[i].  Each depth j has
one schedule of (i, threshold) pairs, built the first time the search
reaches that depth: the threshold is min(j-i, k) in symmetric mode and
min(j-i, k, i) in general mode, and i runs from j-2 down to 0 (symmetric)
or 1 (general); walk[j-1] is one flip away and always far enough.  For
d <= 11 an optional ball mask short-cuts the far pairs: a bitmask over
the 2^d vertices of everything within the threshold of some walk[i] with
j - i >= k, grown by one ball per push, so the schedule stops at
i > j - k.  Without it the mask stays 0 and the schedule covers every i.

A symmetric half-word of length t closes as its doubled word, a cycle of
length 2t whose vertex t+s is walk[t] ^ walk[s].  Two vertices in the
same half are at most t apart along that cycle, so their requirement is
min(j-i, k), which extension pruning has already enforced (the second
half repeats the differences of the first).  Only the cross pairs are
left: vertex i of the first half and vertex t+s of the second, with
1 <= i, s <= t-1, are t - |s-i| apart, so the closure needs

    (walk[i] ^ walk[s] ^ walk[t]).bit_count() >= min(t - |s-i|, k).

The test is symmetric in i and s, so it runs over i <= s only, nearest
pairs first (where the violations turn up), and the s == i pairs all
reduce to one weight test on walk[t].  It works on the raw walk; only a
doubled word that passes it, and would be recorded, goes through the
full verifier.

General mode adds three rules that make it a branch-and-bound search.
Symmetric and family runs do not use them.

(a) Rotation breaking (orderly generation, after McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).  The leading run R of a
    word is the number of labels before its first repeat (0 while there
    is none).  Relabeled by first occurrence, a rotation with a shorter
    leading run is lexicographically smaller, so the canonical rotation
    of a code has the minimal leading run (see ``canon``).  Appending
    label c at index j, where c last occurred at p >= 1, is pruned if
    R == 0 or j - p < R: the rotation starting at p then has a leading
    run of at most j - p, shorter than the word's own (R, or j if this
    is its first repeat), and every completion is a non-canonical
    rotation.  The canonical rotation never meets this
    case, so every class keeps its canonical word.  A closed word is
    also dropped when a rotation across the wrap has a shorter run, so
    exactly the rotations of minimal leading run are found.
(b) Parity bound (in the spirit of Ostergard & Pettersson, "Exhaustive
    search for snake-in-the-box codes", Graphs Combin. 2015).  With the
    ball mask fm at depth t, every later vertex walk[t+1..N-1] lies
    outside fm, the vertices are distinct, and along the cycle they
    alternate in parity.  So each parity class of the free vertices
    holds at least floor((N-1-t)/2) of them, which gives
    N <= t + 2 * min(|free & even|, |free & odd|) + 2.  A node where
    that is below the floor cannot lead to a code of the floor's length
    and is not expanded.  Without the ball mask (d > 11) the bound is off.
(c) A static floor.  Every symmetric code is a general code, so the
    symmetric maximum is a lower bound on K(d,k).  A general run that
    can claim a maximum (not collect-all, length cap 2^d) and has the
    ball mask (d <= 11) first runs the symmetric search in-process on
    the same node budget and deadline.  Its length seeds the incumbent,
    so shorter closures are not verified, and it is the floor of rule
    (b).  Without the ball mask rule (b) is off, and the seed would only
    spend the budget, so it is skipped.  The floor is fixed for the run,
    and the pool's shared incumbent never feeds rule (b), so node totals
    do not depend on the number of workers.

Everything a pruned partial word could ever become is invalid, or a
non-canonical rotation, or shorter than a code already known; everything
accepted as a code has passed the full verifier.  The completeness of
this arrangement against unpruned enumeration is part of the test suite.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Sequence

from .canon import IsomorphismClass, canonical_form, classify, leading_runs
from .core import CodeParams, Word
from .verify import InternalConsistencyError, bit_runs, check_spread

_TABLE_MAX_D = 11  # ball-mask tables take 2^d ints of 2^d bits; cap the memory


class IncompleteEnumerationError(RuntimeError):
    """Enumeration was requested but the search did not finish."""


@dataclass
class SearchOptions:
    """Knobs for a search run.

    ``target`` switches to decision mode: stop as soon as a code of at
    least that length is found.  ``max_length`` bounds the word length
    (default 2^d, which no cycle can exceed); a bound below 2^d leaves
    longer codes unsearched, so such a run ends with stop reason
    ``length`` and is not exhaustive.  Budgets make the run stop early
    and report itself as non-exhaustive.
    """

    target: int | None = None
    max_length: int | None = None
    node_budget: int | None = None
    time_limit: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.target is not None:
            if self.target % 2 != 0 or self.target < 4:
                raise ValueError("target length must be an even number >= 4")
            if self.workers != 1:
                raise ValueError("decision-mode runs (target set) are single-worker")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
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
    options: SearchOptions | None = field(default=None, repr=False)

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


class _Truncated(Exception):
    def __init__(self, reason: str) -> None:
        self.reason = reason


class _TargetReached(Exception):
    pass


def _ball_masks(d: int, max_radius: int) -> list[list[int]]:
    """balls[r][v] = bitmask of vertices within Hamming distance r of v."""
    size = 1 << d
    balls = [[1 << v for v in range(size)]]
    for _ in range(max_radius):
        prev = balls[-1]
        cur = []
        for v in range(size):
            acc = prev[v]
            for b in range(d):
                acc |= prev[v ^ (1 << b)]
            cur.append(acc)
        balls.append(cur)
    return balls


_BALL_CACHE: dict[tuple[int, int], list[list[int]]] = {}


def _cached_balls(d: int, max_radius: int) -> list[list[int]]:
    key = (d, max_radius)
    if key not in _BALL_CACHE:
        _BALL_CACHE[key] = _ball_masks(d, max_radius)
    return _BALL_CACHE[key]


_EVEN_CACHE: dict[int, int] = {}


def _even_mask(d: int) -> int:
    """Bitmask of the vertices of even weight in the d-cube."""
    if d not in _EVEN_CACHE:
        _EVEN_CACHE[d] = sum(1 << v for v in range(1 << d) if v.bit_count() % 2 == 0)
    return _EVEN_CACHE[d]


class _LocalBest:
    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def get(self) -> int:
        return self.value

    def offer(self, v: int) -> None:
        if v > self.value:
            self.value = v


class _SharedBest:
    """Cross-process monotone maximum; stale reads only cost extra checks."""

    def __init__(self, mp_value) -> None:
        self._v = mp_value

    def get(self) -> int:
        return self._v.value

    def offer(self, v: int) -> None:
        with self._v.get_lock():
            if v > self._v.value:
                self._v.value = v


class _Kernel:
    """One depth-first traversal of the symmetry-broken word space."""

    def __init__(
        self,
        params: CodeParams,
        mode: str,
        l_req: int | None,
        max_word: int,
        collect_all: bool,
        best_box=None,
        floor: int = 0,
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
        self.collect_all = collect_all
        self.best_box = best_box if best_box is not None else _LocalBest()
        self.balls = (
            _cached_balls(self.d, max(0, self.k - 1)) if self.d <= _TABLE_MAX_D else None
        )
        self.bit = [0] + [1 << (c - 1) for c in range(1, self.d + 1)]
        self.schedule: dict[int, tuple[tuple[int, int], ...]] = {}
        self.cross_schedule: dict[int, tuple[tuple[int, int, int], ...]] = {}
        # rule (b) of the module docstring: general mode with the ball mask
        self.floor = floor
        self.even = (
            _even_mask(self.d)
            if not self.symmetric and floor > 0 and self.balls is not None
            else None
        )

        self.word: list[int] = []
        self.walk: list[int] = [0]
        self.used_stack: list[int] = [0]
        self.fmask_stack: list[int] = [0]
        # rule (a) state, general mode only: last index of each label, the
        # value it replaced per push, and the leading run R per depth (0
        # before any repeat)
        self.last = [-1] * (self.d + 1)
        self.last_stack: list[int] = []
        self.run_stack: list[int] = [0]

        self.best = 0
        self.witnesses: list[Word] = []
        self.nodes = 0
        self.node_budget: int | None = None
        self.deadline: float | None = None
        self.target: int | None = None
        self.stop_depth: int | None = None
        self.frontier: list[Word] = []

    # -- state maintenance ------------------------------------------------

    def replay(self, prefix: Sequence[int]) -> None:
        """Rebuild the stacks for a trusted prefix; no checks, no counting."""
        for c in prefix:
            self._push(c, self.walk[-1] ^ self.bit[c])

    def _push(self, c: int, w: int) -> None:
        if not self.symmetric:
            j = len(self.word)
            prev = self.last[c]
            self.last_stack.append(prev)
            self.last[c] = j
            # a surviving first repeat is always of word[0]; it fixes R
            self.run_stack.append(j if prev == 0 else self.run_stack[-1])
        self.word.append(c)
        self.walk.append(w)
        used = self.used_stack[-1]
        self.used_stack.append(used + 1 if c > used else used)
        fm = self.fmask_stack[-1]
        # the next vertex lies k steps past walk[istar]; its ball joins the mask
        istar = len(self.word) + 1 - self.k
        if self.balls is not None and istar >= self.lo:
            radius = (self.k if self.symmetric else min(istar, self.k)) - 1
            fm |= self.balls[radius][self.walk[istar]]
        self.fmask_stack.append(fm)

    def _pop(self) -> None:
        c = self.word.pop()
        if not self.symmetric:
            self.last[c] = self.last_stack.pop()
            self.run_stack.pop()
        self.walk.pop()
        self.used_stack.pop()
        self.fmask_stack.pop()

    def _pairs(self, j: int) -> tuple[tuple[int, int], ...]:
        """The (i, threshold) schedule for a new vertex at walk index j."""
        k = self.k
        last = self.lo if self.balls is None else max(self.lo, j - k + 1)
        return tuple(
            (i, min(j - i, k) if self.symmetric else min(j - i, k, i))
            for i in range(j - 2, last - 1, -1)
        )

    def _cross_pairs(self, t: int) -> tuple[tuple[int, int, int], ...]:
        """The (i, s, threshold) cross-half schedule of a half-word of
        length t: 1 <= i < s <= t-1, nearest pairs first."""
        k = self.k
        return tuple(
            (i, i + gap, min(t - gap, k))
            for gap in range(1, t - 1)
            for i in range(1, t - gap)
        )

    def _cross_half_clear(self) -> bool:
        """Whether every cross-half pair of the doubled walk is far enough.

        Vertex i of the first half and vertex t+s of the second are
        t - |s-i| apart along the cycle; the second is walk[s] ^ walk[t].
        """
        t = len(self.word)
        walk = self.walk
        top = walk[t]
        # the s == i pairs all measure walk[t] at cycle distance t
        if top.bit_count() < min(t, self.k):
            return False
        pairs = self.cross_schedule.get(t)
        if pairs is None:
            pairs = self.cross_schedule[t] = self._cross_pairs(t)
        for i, s, thr in pairs:
            if (walk[i] ^ walk[s] ^ top).bit_count() < thr:
                return False
        return True

    # -- bookkeeping -------------------------------------------------------

    def _count_node(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes >= self.node_budget:
            raise _Truncated("nodes")
        if (
            self.deadline is not None
            and self.nodes & 0xFF == 0
            and time.monotonic() > self.deadline
        ):
            raise _Truncated("time")

    def _record(self, code: Word) -> None:
        n = len(code)
        if self.collect_all:
            self.witnesses.append(code)
            if n > self.best:
                self.best = n
                self.best_box.offer(n)
        elif n > self.best:
            self.best = n
            self.witnesses = [code]
            self.best_box.offer(n)
        elif n == self.best:
            self.witnesses.append(code)
        if self.target is not None and n >= self.target:
            raise _TargetReached()

    def _close(self, n: int, c: int = 0) -> None:
        """Verify the code of length n closed at this node and record it if
        it is a wanted code: the word plus label c back at the origin in
        general mode, the doubled half-word in symmetric mode."""
        if n < 4 or not (self.collect_all or n >= self.best_box.get()):
            return
        if self.symmetric:
            if not self._cross_half_clear():
                return
            code = tuple(self.word) * 2
        else:
            code = tuple(self.word) + (c,)
            # rule (a) across the wrap: some rotation has a shorter run
            runs = leading_runs(code)
            if min(runs) < runs[0]:
                return
        if check_spread(code, self.params) is not None:
            return
        if self.l_req is not None and bit_runs(code).longest < self.k + self.l_req:
            return
        self._record(code)

    # -- candidate generation ----------------------------------------------
    # Lists are built in descending label order so that pop() explores
    # children in ascending order (reproducible node counts).

    def _candidates(self) -> list[tuple[int, int]]:
        t = len(self.word)
        pairs = self.schedule.get(t + 1)
        if pairs is None:
            pairs = self.schedule[t + 1] = self._pairs(t + 1)
        v = self.walk[t]
        walk = self.walk
        bit = self.bit
        fm = self.fmask_stack[t]
        used = self.used_stack[t]
        maxc = used + 1 if used < self.d else self.d
        labels = range(maxc, 0, -1)
        if not self.symmetric:
            if self.even is not None:
                # rule (b): reaching the floor needs 2 * min(free even,
                # free odd) >= need; half - taken bounds both from below
                need = self.floor - t - 2
                if need > 0:
                    half = 1 << (self.d - 1)
                    taken = fm.bit_count()
                    if 2 * (half - taken) < need:
                        even = (fm & self.even).bit_count()
                        if 2 * (half - max(even, taken - even)) < need:
                            return []
            # rule (a): keep c unless its last index p >= 1 has t - p < R
            r = self.run_stack[t]
            cut = t - r if r else 0
            last = self.last
            labels = [c for c in labels if last[c] <= cut]
        out: list[tuple[int, int]] = []
        for c in labels:
            w = v ^ bit[c]
            if w == 0:
                # back at the origin: a closed code in general mode; a
                # symmetric half-word never revisits it and closes by doubling
                if not self.symmetric:
                    self._count_node()
                    self._close(t + 1, c)
                continue
            if (fm >> w) & 1:
                continue
            for i, thr in pairs:
                if (walk[i] ^ w).bit_count() < thr:
                    break
            else:
                out.append((c, w))
        return out

    # -- traversal -----------------------------------------------------------

    def run(self) -> str:
        """Explore every extension of the current state; returns stop reason."""
        base = len(self.word)
        word_cap = self.max_word // 2 if self.symmetric else self.max_word
        try:
            if base >= word_cap:
                return "complete"
            pend: list[list[tuple[int, int]]] = [self._candidates()]
            while pend:
                cands = pend[-1]
                if not cands:
                    pend.pop()
                    if pend:
                        self._pop()
                    continue
                c, w = cands.pop()
                self._push(c, w)
                self._count_node()
                t = len(self.word)
                if self.symmetric:
                    self._close(2 * t)
                if self.stop_depth is not None and t >= self.stop_depth:
                    self.frontier.append(tuple(self.word))
                    self._pop()
                    continue
                if t >= word_cap:
                    self._pop()
                    continue
                pend.append(self._candidates())
        except _Truncated as tr:
            return tr.reason
        except _TargetReached:
            return "target"
        return "complete"


@dataclass
class _RunResult:
    best: int
    raw_witnesses: list[Word]
    nodes: int
    stop_reason: str


_WORKER_BEST: _SharedBest | None = None


def _worker_init(shared_value) -> None:
    global _WORKER_BEST
    _WORKER_BEST = _SharedBest(shared_value)


def _run_subtree(task: tuple, best_box=None) -> tuple:
    """Search every extension of one prefix: the unit of work of every run.

    A pool worker shares the incumbent set up by :func:`_worker_init`; an
    in-process caller passes its own ``best_box``.
    """
    (d, k, mode, l_req, max_word, collect_all, target, deadline, floor, prefix,
     node_budget) = task
    if best_box is None:
        best_box = _WORKER_BEST
    kernel = _Kernel(CodeParams(d, k), mode, l_req, max_word, collect_all, best_box, floor)
    kernel.node_budget = node_budget
    kernel.deadline = deadline
    kernel.target = target
    kernel.replay(prefix)
    reason = kernel.run()
    return (kernel.best, kernel.witnesses, kernel.nodes, reason)


def _merge_stop(reasons: list[str]) -> str:
    for r in ("time", "nodes", "target"):
        if r in reasons:
            return r
    return "complete"


def _pool_map(payloads: list[tuple], workers: int, incumbent: int) -> list[tuple] | None:
    """Run the tasks in a process pool that shares the incumbent length;
    None when no pool can be started here."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    try:
        shared_value = ctx.Value("q", incumbent)
        with ctx.Pool(
            processes=workers,
            initializer=_worker_init,
            initargs=(shared_value,),
        ) as pool:
            return pool.map(_run_subtree, payloads)
    except (OSError, RuntimeError):
        return None


def _run_tree(
    params: CodeParams,
    mode: str,
    l_req: int | None,
    max_word: int,
    collect_all: bool,
    target: int | None,
    deadline: float | None,
    node_budget: int | None,
    workers: int,
    floor: int,
) -> _RunResult:
    """Traverse one search tree, split over ``workers`` processes."""
    job = (params.d, params.k, mode, l_req, max_word, collect_all, target, deadline, floor)

    results: list[tuple[int, list[Word], int, str]] = []
    tasks: list[tuple[Word, int | None]] = [((), node_budget)]
    if workers > 1:
        # split the tree at a fixed prefix depth, farm out subtrees
        depth_cap = max_word // 2 if mode != "general" else max_word
        stop_depth = min(max(4, params.k + 3), max(depth_cap - 1, 1))
        coordinator = _Kernel(
            params, mode, l_req, max_word, collect_all, _LocalBest(floor), floor
        )
        coordinator.deadline = deadline
        coordinator.node_budget = node_budget
        coordinator.stop_depth = stop_depth
        reason = coordinator.run()
        results.append((coordinator.best, coordinator.witnesses, coordinator.nodes, reason))
        prefixes = coordinator.frontier if reason == "complete" else []
        per_task_budget = None
        if node_budget is not None and prefixes:
            budget_left = max(1, node_budget - coordinator.nodes)
            per_task_budget = max(1, budget_left // len(prefixes))
        tasks = [(prefix, per_task_budget) for prefix in prefixes]
    payloads = [job + task for task in tasks]
    # the floor seeds the incumbent; the pool's dynamic incumbent only
    # decides which closures get verified, never which nodes are expanded
    incumbent = max([floor] + [r[0] for r in results])
    done = None
    if workers > 1 and payloads:
        done = _pool_map(payloads, workers, incumbent)
    if done is None:
        # one worker, or no subprocess support here: the same tasks in-process
        box = _LocalBest(incumbent)
        done = [_run_subtree(payload, box) for payload in payloads]
    results.extend(done)

    best = max(r[0] for r in results)
    raws: list[Word] = []
    for r in results:
        raws.extend(_final_witnesses(r[1], best, collect_all))
    nodes = sum(r[2] for r in results)
    return _RunResult(best, raws, nodes, _merge_stop([r[3] for r in results]))


def _symmetric_floor(
    params: CodeParams, deadline: float | None, node_budget: int | None
) -> _RunResult:
    """The symmetric maximum, searched in-process: a lower bound on K(d,k)."""
    full = 1 << params.d
    return _run_tree(
        params, "symmetric", None, full, False, None, deadline, node_budget, 1, 0
    )


def _run_search(
    params: CodeParams,
    mode: str,
    l_req: int | None,
    options: SearchOptions,
    collect_all: bool = False,
) -> _RunResult:
    """Run one search; ``collect_all`` keeps every valid code (test oracle).

    A general run that may claim a maximum at d <= 11 first searches the
    symmetric maximum (rule (c)); that seed shares the node budget and the
    deadline, and its nodes count in the total.
    """
    full = 1 << params.d
    max_word = full if options.max_length is None else min(options.max_length, full)
    deadline = (
        time.monotonic() + options.time_limit if options.time_limit is not None else None
    )
    node_budget = options.node_budget
    seed = None
    floor = 0
    # without the ball mask rule (b) is off and the seed would only cost time
    seeded = mode == "general" and not collect_all and max_word == full
    if seeded and params.d <= _TABLE_MAX_D:
        seed = _symmetric_floor(params, deadline, node_budget)
        if seed.stop_reason != "complete":
            return seed  # its codes are general codes too, but nothing is proved
        floor = seed.best
        if node_budget is not None:
            node_budget -= seed.nodes
    result = _run_tree(
        params, mode, l_req, max_word, collect_all, options.target, deadline,
        node_budget, options.workers, floor,
    )
    if seed is not None:
        result.nodes += seed.nodes
        if result.best < floor:
            if result.stop_reason == "complete":
                raise InternalConsistencyError(
                    f"exhaustive search found no code of the symmetric floor {floor}"
                )
            # stopped before it re-found a code as long as the seed's
            result.best, result.raw_witnesses = seed.best, seed.raw_witnesses
    if result.stop_reason == "complete" and max_word < full:
        result.stop_reason = "length"  # longer codes were never looked at: not a proof
    return result


def _final_witnesses(
    found: list[Word], best: int, collect_all: bool
) -> list[Word]:
    if collect_all:
        return list(found)
    return [w for w in found if len(w) == best]


def _build_record(
    params: CodeParams,
    mode: str,
    l_req: int | None,
    options: SearchOptions,
    result: _RunResult,
    seconds: float,
) -> SearchRecord:
    canonical = sorted({canonical_form(w).word for w in result.raw_witnesses})
    return SearchRecord(
        params=params,
        mode=mode,
        l=l_req,
        n=result.best,
        exhaustive=result.stop_reason == "complete",
        witnesses=tuple(canonical),
        nodes=result.nodes,
        seconds=seconds,
        stop_reason=result.stop_reason,
        options=options,
    )


def max_length(params: CodeParams, options: SearchOptions | None = None) -> SearchRecord:
    """Maximum length of a (d,k) circuit code, with all witnesses.

    Exhaustive unless a budget interrupts; decision mode (``target``)
    stops at the first code of at least the target length.  For d <= 11,
    unless the length is capped below 2^d, the symmetric maximum is
    searched first as a lower bound; its nodes count in ``nodes``.
    """
    options = options or SearchOptions()
    t0 = time.perf_counter()
    result = _run_search(params, "general", None, options)
    return _build_record(
        params, "general", None, options, result, time.perf_counter() - t0
    )


def symmetric_max(
    params: CodeParams, options: SearchOptions | None = None
) -> SearchRecord:
    """Maximum length of a symmetric (d,k) circuit code.

    Searches half-words; a candidate closes as the doubled word, which is
    put through the full verifier once its cross-half pairs pass.
    """
    options = options or SearchOptions()
    t0 = time.perf_counter()
    result = _run_search(params, "symmetric", None, options)
    return _build_record(
        params, "symmetric", None, options, result, time.perf_counter() - t0
    )


def family_symmetric_max(
    params: CodeParams, l: int, options: SearchOptions | None = None
) -> SearchRecord:
    """Maximum symmetric length among codes with a bit run >= k + l."""
    if l < 2:
        raise ValueError(f"family parameter l must be >= 2, got {l}")
    options = options or SearchOptions()
    t0 = time.perf_counter()
    result = _run_search(params, "family", l, options)
    return _build_record(
        params, "family", l, options, result, time.perf_counter() - t0
    )


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
    if mode == "family" and (l is None or l < 2):
        raise ValueError("family enumeration needs l >= 2")
    result = _run_search(params, mode, l if mode == "family" else None, options)
    if result.stop_reason != "complete":
        raise IncompleteEnumerationError(
            f"search stopped early ({result.stop_reason}); no class list is claimed"
        )
    return classify(result.raw_witnesses)
