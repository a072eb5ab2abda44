import json
import multiprocessing
import random
import tracemalloc

import pytest

from circuitcodes import (
    CodeParams,
    IncompleteEnumerationError,
    SearchOptions,
    brute_force_check,
    canonical_form,
    check_spread,
    classify,
    enumerate_max,
    family_symmetric_max,
    is_symmetric,
    max_length,
    symmetric_max,
)
from circuitcodes import search
from circuitcodes.canon import leading_runs
from oracles import RecordingKernel, all_valid_codes, enumerate_codes_bruteforce


class TestSmallMaxima:
    def test_k_2_1(self):
        rec = max_length(CodeParams(2, 1))
        assert rec.n == 4 and rec.exhaustive
        assert rec.witnesses == ((1, 2, 1, 2),)

    def test_k_3_1_is_full_gray_cycle(self):
        rec = max_length(CodeParams(3, 1))
        assert rec.n == 8 == 2**3
        assert rec.exhaustive

    def test_k_4_2(self):
        rec = max_length(CodeParams(4, 2))
        assert rec.n == 8 and rec.exhaustive

    def test_k_3_2_hexagon(self):
        rec = max_length(CodeParams(3, 2))
        assert rec.n == 6
        assert rec.witnesses == ((1, 2, 3, 1, 2, 3),)

    def test_symmetric_2_1(self):
        rec = symmetric_max(CodeParams(2, 1))
        assert rec.n == 4
        assert rec.witnesses == ((1, 2, 1, 2),)

    def test_family_2_1_2_has_no_codes(self):
        rec = family_symmetric_max(CodeParams(2, 1), 2)
        assert rec.n == 0
        assert rec.witnesses == ()
        assert rec.exhaustive

    def test_symmetric_6_3_matches_general(self, rec_63):
        # the unique maximum (6,3) code happens to be symmetric
        rec = symmetric_max(CodeParams(6, 3))
        assert rec.n == rec_63.n == 16
        assert is_symmetric(rec_63.witnesses[0])


class TestRecordInvariants:
    def test_every_witness_passes_brute_force(self, rec_31, rec_52, rec_63, rec_84_sym):
        for rec in (rec_31, rec_52, rec_63, rec_84_sym):
            params = rec.params
            assert rec.witnesses, rec
            for w in rec.witnesses:
                assert len(w) == rec.n
                assert brute_force_check(w, params) is None

    def test_symmetric_witnesses_are_symmetric(self, rec_84_sym):
        for w in rec_84_sym.witnesses:
            assert is_symmetric(w)

    def test_witnesses_sorted_and_deduplicated(self, rec_52):
        assert list(rec_52.witnesses) == sorted(set(rec_52.witnesses))

    def test_json_shape(self, rec_52):
        obj = rec_52.to_json_obj()
        assert list(obj) == [
            "d", "k", "mode", "l", "n", "exhaustive", "stop_reason", "witnesses",
            "nodes", "seconds",
        ]
        line = json.dumps(obj, separators=(",", ":"))
        assert json.loads(line) == obj

    def test_run_to_run_determinism(self):
        a = max_length(CodeParams(5, 2))
        b = max_length(CodeParams(5, 2))
        assert a.witnesses == b.witnesses
        assert a.nodes == b.nodes
        assert a.n == b.n


class TestWorkers:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_witnesses_and_nodes_identical(self, workers, rec_52, rec_63):
        # the pool tasks rebuild the rotation-breaking state by pushing their prefix
        for single in (rec_52, rec_63):
            rec = max_length(single.params, SearchOptions(workers=workers))
            assert rec.witnesses == single.witnesses
            assert rec.nodes == single.nodes
            assert rec.exhaustive

    def test_symmetric_workers(self, rec_84_sym):
        rec = symmetric_max(CodeParams(8, 4), SearchOptions(workers=2))
        assert rec.witnesses == rec_84_sym.witnesses
        assert rec.nodes == rec_84_sym.nodes


class TestDecisionMode:
    def test_target_reached_stops_early(self):
        rec = max_length(CodeParams(5, 2), SearchOptions(target=14))
        assert rec.n >= 14
        assert rec.stop_reason == "target"
        assert not rec.exhaustive

    def test_target_stop_pins_the_exploration_order(self):
        # the child that closes a code is explored before the node's other
        # children: explored last, the first three stops come at 395, 584
        # and 479 nodes; explored in label order, only the fourth moves,
        # to 12.  A length cap keeps the symmetric seed from answering first.
        rec = max_length(CodeParams(5, 2), SearchOptions(target=14, max_length=31))
        assert (rec.n, rec.nodes, rec.stop_reason) == (14, 396, "target")
        assert rec.witnesses == ((1, 2, 3, 1, 4, 2, 1, 5, 2, 3, 1, 2, 4, 5),)
        rec = max_length(CodeParams(6, 3), SearchOptions(target=16, max_length=63))
        assert (rec.n, rec.nodes, rec.stop_reason) == (16, 585, "target")
        rec = max_length(CodeParams(6, 3), SearchOptions(target=10, max_length=14))
        assert (rec.n, rec.nodes, rec.stop_reason) == (10, 476, "target")
        rec = max_length(CodeParams(4, 1), SearchOptions(target=6, max_length=6))
        assert (rec.n, rec.nodes, rec.stop_reason) == (6, 11, "target")

    def test_target_met_by_the_seed_stops_inside_it(self):
        # the symmetric seed shares the target; its codes are general codes
        rec = max_length(CodeParams(7, 3), SearchOptions(target=24))
        assert (rec.n, rec.nodes, rec.stop_reason) == (24, 85, "target")
        assert not rec.exhaustive
        assert len(rec.witnesses) == 1 and is_symmetric(rec.witnesses[0])

    def test_target_unreachable_completes(self):
        rec = max_length(CodeParams(5, 2), SearchOptions(target=16))
        assert rec.n == 14
        assert rec.stop_reason == "complete"
        assert rec.exhaustive

    def test_target_must_be_even(self):
        with pytest.raises(ValueError):
            SearchOptions(target=13)

    def test_target_is_single_worker(self):
        with pytest.raises(ValueError):
            SearchOptions(target=14, workers=2)

    def test_node_budget_is_single_worker(self):
        # tasks share no budget, so a split run could stop where one worker completes
        with pytest.raises(ValueError):
            SearchOptions(node_budget=4281, workers=2)


class TestBudgets:
    def test_node_budget_exact_and_truncated(self):
        rec = max_length(CodeParams(16, 9), SearchOptions(node_budget=1500))
        assert rec.nodes == 1500
        assert not rec.exhaustive
        assert rec.stop_reason == "nodes"

    def test_seeded_run_stops_at_exactly_the_budget(self):
        # the symmetric seed spends part of the budget, the general search the rest
        seed_nodes = symmetric_max(CodeParams(6, 3)).nodes
        full = max_length(CodeParams(6, 3)).nodes
        for budget in (seed_nodes // 2, seed_nodes, seed_nodes + 1, full - 1):
            rec = max_length(CodeParams(6, 3), SearchOptions(node_budget=budget))
            assert rec.nodes == budget
            assert rec.stop_reason == "nodes"
            assert not rec.exhaustive
        rec = max_length(CodeParams(6, 3), SearchOptions(node_budget=full + 1))
        assert rec.nodes == full and rec.exhaustive

    def test_truncated_after_the_seed_keeps_its_codes(self):
        # stopped before the general search re-finds length 16: the seed's
        # symmetric codes are still valid general codes
        seed = symmetric_max(CodeParams(6, 3))
        rec = max_length(CodeParams(6, 3), SearchOptions(node_budget=seed.nodes + 1))
        assert rec.n == seed.n == 16
        assert rec.witnesses == seed.witnesses

    def test_time_limit_truncates(self):
        rec = max_length(CodeParams(16, 9), SearchOptions(time_limit=0.2))
        assert not rec.exhaustive
        assert rec.stop_reason == "time"

    @pytest.mark.parametrize("limit", [0, -1.0, float("nan")])
    def test_time_limit_must_be_positive(self, limit):
        # NaN compares false with every deadline, so it would never stop a run
        with pytest.raises(ValueError, match="time limit must be positive"):
            SearchOptions(time_limit=limit)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("node_budget", True), ("node_budget", 2.5), ("max_length", False),
            ("max_length", 10.5), ("target", True), ("target", 14.0),
            ("workers", True), ("workers", 2.5), ("workers", None),
            ("time_limit", True), ("time_limit", "5"),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        # True would run a 1-node budget, False a length cap of 0, 2.5 a
        # fractional bound; "5" and workers 2.5 would fail later as TypeErrors
        with pytest.raises(ValueError, match=f"{field} must be"):
            SearchOptions(**{field: value})

    @pytest.mark.parametrize("limit", [1, 0.5])
    def test_time_limit_takes_ints_and_floats(self, limit):
        assert SearchOptions(time_limit=limit).time_limit == limit

    def test_truncated_enumeration_raises(self):
        with pytest.raises(IncompleteEnumerationError):
            enumerate_max(CodeParams(16, 9), SearchOptions(node_budget=500))

    def test_capped_run_takes_no_seed(self, monkeypatch):
        def no_seed(*args):
            raise AssertionError("a length-capped run must not be seeded")

        monkeypatch.setattr(search, "_symmetric_floor", no_seed)
        rec = max_length(CodeParams(5, 2), SearchOptions(max_length=30))
        assert rec.n == 14 and rec.stop_reason == "length"

    def test_seed_at_every_d(self, monkeypatch):
        # the ball mask exists at every d, so a d = 16 run is seeded as well
        real = search._symmetric_floor
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_symmetric_floor", counted)
        rec = max_length(CodeParams(16, 9), SearchOptions(node_budget=2500))
        assert len(calls) == 1
        assert rec.nodes == 2500
        assert rec.stop_reason == "nodes"

    def test_dimension_beyond_the_masks_is_refused(self):
        # 2^d-bit masks: refused before any kernel allocates them
        for run in (max_length, symmetric_max):
            with pytest.raises(ValueError, match="d <= 20"):
                run(CodeParams(21, 5), SearchOptions(node_budget=10))

    def test_max_length_bound(self):
        # a cap below 2^d leaves longer codes unsearched: not a proof
        rec = max_length(CodeParams(3, 1), SearchOptions(max_length=6))
        assert rec.n == 6
        assert rec.stop_reason == "length"
        assert not rec.exhaustive
        rec = max_length(CodeParams(3, 1), SearchOptions(max_length=8))
        assert rec.n == 8
        assert rec.exhaustive


class TestEnumerate:
    def test_2_1_single_class(self):
        classes = enumerate_max(CodeParams(2, 1))
        assert len(classes) == 1
        assert classes[0].representative.word == (1, 2, 1, 2)

    def test_3_1_single_class(self):
        classes = enumerate_max(CodeParams(3, 1))
        assert len(classes) == 1

    def test_5_2_classes_are_regression_stable(self, rec_52):
        classes = enumerate_max(CodeParams(5, 2))
        assert sum(c.count for c in classes) >= len(classes)
        assert tuple(c.representative.word for c in classes) == rec_52.witnesses
        assert len(classes) == 3

    def test_family_enumeration_validates_l(self):
        with pytest.raises(ValueError):
            enumerate_max(CodeParams(8, 4), mode="family", l=1)


class TestModeValidation:
    @pytest.mark.parametrize(
        "mode,l,message",
        [
            ("bogus", None, "mode must be general, symmetric or family, got 'bogus'"),
            ("Symmetric", None, "mode must be general, symmetric or family"),
            ("family", None, "family search needs an integer l, got None"),
            ("family", 3.0, "family search needs an integer l, got 3.0"),
            ("family", 1, "family parameter l must be >= 2, got 1"),
            ("general", 3, "general search takes no l, got 3"),
            ("symmetric", 2, "symmetric search takes no l, got 2"),
        ],
    )
    def test_rejected_before_any_search(self, mode, l, message):
        with pytest.raises(ValueError) as info:
            enumerate_max(CodeParams(6, 3), mode=mode, l=l)
        assert message in str(info.value)

    def test_family_l_below_2_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"family parameter l must be >= 2, got 0"):
            family_symmetric_max(CodeParams(8, 4), 0)


class TestCompletenessToyScale:
    """Pruned search against unpruned cycle enumeration; the d <= 4 sweep
    to length 12 is an acceptance criterion, this keeps a fast guard here
    at every length."""

    _CASES = [(2, 1, 8), (2, 2, 8), (3, 1, 8), (3, 2, 8), (4, 2, 16), (4, 3, 16), (5, 3, 10)]

    @pytest.mark.parametrize("d,k,bound", _CASES, ids=[f"{d}-{k}" for d, k, _ in _CASES])
    def test_same_classes(self, d, k, bound):
        # every length up to 2^d, where the general bounds let an open word
        # of length t close only at N >= t+1; at (5,3) the unpruned
        # enumeration stops at K(5,3) = 10 (to 12 it takes ~10 s), and the
        # pruned search to 2^d records nothing longer
        params = CodeParams(d, k)
        brute = enumerate_codes_bruteforce(params, bound)
        pruned = all_valid_codes(params, 1 << d)
        bf_classes = {(len(w), canonical_form(w).word) for w in brute}
        pruned_classes = {(len(w), canonical_form(w).word) for w in pruned}
        assert bf_classes == pruned_classes

    @pytest.mark.parametrize("d,k", [(5, 2), (6, 3), (6, 4), (7, 4)])
    def test_bounded_maximum_equals_the_longest_recorded_codes(self, d, k):
        # max_length prunes with rules (b) and (d) below the symmetric
        # floor; a recording kernel with no floor keeps every valid code
        params = CodeParams(d, k)
        rec = max_length(params)
        codes = all_valid_codes(params, 1 << d)
        longest = max(len(w) for w in codes)
        classes = {canonical_form(w).word for w in codes if len(w) == longest}
        assert rec.exhaustive
        assert (rec.n, rec.witnesses) == (longest, tuple(sorted(classes)))

    def test_canonical_of_every_brute_code_is_found_verbatim(self):
        params = CodeParams(3, 2)
        brute = enumerate_codes_bruteforce(params, 8)
        pruned = set(all_valid_codes(params, 8))
        for w in brute:
            assert canonical_form(w).word in pruned

    def test_short_cycle_at_spread_2_is_kept(self):
        # the 4-cycle is a valid (2,2) code; naive suffix pruning at
        # min(len, k) would discard it while building (1,2,1)
        codes = all_valid_codes(CodeParams(2, 2), 8)
        assert (1, 2, 1, 2) in codes


class TestRotationRepresentatives:
    """The symmetry-broken space must contain every first-occurrence
    relabeling of every rotation of a maximum code, and the search must
    find exactly that set (label automorphisms collapse some rotations)."""

    @staticmethod
    def _fo_relabel(word):
        mapping, out = {}, []
        for c in word:
            if c not in mapping:
                mapping[c] = len(mapping) + 1
            out.append(mapping[c])
        return tuple(out)

    def test_6_3_exact_representative_set(self, rec_63):
        # general mode keeps only the rotations of minimal leading run
        from circuitcodes import rotate
        from circuitcodes.canon import leading_runs

        w = rec_63.witnesses[0]
        runs = leading_runs(w)
        variants = {
            self._fo_relabel(rotate(w, s)) for s in range(len(w)) if runs[s] == min(runs)
        }
        raw = {x for x in all_valid_codes(CodeParams(6, 3), 16) if len(x) == 16}
        assert raw == variants
        assert w in raw
        # runs alternate 4, 5; every even shift relabels to w itself
        assert len(variants) == 1

    def test_general_survivors_are_the_minimal_run_rotations(self):
        # every class of every length, closures across the wrap included
        for d, k, bound in ((4, 1, 16), (5, 2, 14), (6, 3, 16)):
            raw = all_valid_codes(CodeParams(d, k), bound)
            self._assert_minimal_run_survivors(raw, (d, k))

    def _assert_minimal_run_survivors(self, raw, case):
        from circuitcodes import rotate

        assert raw, case
        by_class = {}
        for x in raw:
            by_class.setdefault(canonical_form(x).word, set()).add(x)
        for canon, found in by_class.items():
            runs = leading_runs(canon)
            want = {
                self._fo_relabel(rotate(canon, s))
                for s in range(len(canon))
                if runs[s] == min(runs)
            }
            assert found == want, (case, canon)

    def test_8_4_symmetric_exact_representative_set(self, rec_84_sym):
        # symmetric mode keeps only the rotations of minimal leading run
        from circuitcodes import rotate

        w = rec_84_sym.witnesses[0]
        runs = leading_runs(w)
        variants = {
            self._fo_relabel(rotate(w, s)) for s in range(len(w)) if runs[s] == min(runs)
        }
        raw = {
            x
            for x in all_valid_codes(CodeParams(8, 4), 22, mode="symmetric")
            if len(x) == 22
        }
        assert raw == variants
        assert w in raw
        # period 11, no extra automorphism: shifts 0, 7 and 9 have run 5
        assert len(variants) == 3

    @pytest.mark.parametrize(
        "d,k,mode,l,bound",
        [
            (4, 1, "symmetric", None, 16),
            (4, 2, "symmetric", None, 16),
            (6, 3, "symmetric", None, 64),
            (8, 4, "symmetric", None, 256),
            (8, 4, "family", 3, 256),
        ],
        ids=["4-1", "4-2", "6-3", "8-4", "8-4-l3"],
    )
    def test_symmetric_survivors_are_the_minimal_run_rotations(self, d, k, mode, l, bound):
        # every class of every length: the doubled words that survive the
        # wrap check are exactly the minimal-run rotations of each class
        raw = all_valid_codes(CodeParams(d, k), bound, mode=mode, l=l)
        self._assert_minimal_run_survivors(raw, (d, k, mode))


class TestSymmetricModeAgainstBruteForce:
    @pytest.mark.parametrize("d,k", [(3, 1), (4, 1), (4, 2), (5, 2)])
    def test_symmetric_max_matches_filtered_enumeration(self, d, k):
        params = CodeParams(d, k)
        # at (5,2) the unpruned enumeration to length 12 costs ~10x that to 10
        bound = 12 if d < 5 else 10
        brute = enumerate_codes_bruteforce(params, bound)
        sym_brute = [w for w in brute if is_symmetric(w)]
        best_brute = max((len(w) for w in sym_brute), default=0)
        rec = symmetric_max(params, SearchOptions(max_length=bound))
        assert rec.n == best_brute
        brute_classes = {
            canonical_form(w).word for w in sym_brute if len(w) == best_brute
        }
        search_classes = {canonical_form(w).word for w in rec.witnesses}
        assert search_classes == brute_classes


def _reference_levels(d, k, mode, depth, floor=0):
    """The kernel's tree by definition, one label at a time: for each
    length 1..depth, below the word cap, its open words (lexicographic)
    and its node count.

    A word grows in first-occurrence order; label c at index t, last seen
    at p >= 1, is rule (a)'s prune when R == 0 or t - p < R, R being the
    word's leading run.  Every pair of the new walk vertex is checked by
    definition; a general vertex w != 0 at index t+1 closes only at
    N >= t+2, so its pair with walk[i] needs min(t+1-i, k, N-(t+1-i)) >=
    min(t+1-i, k, i+1).  A general word back at the origin is a leaf
    (counted, never open), and a node is not expanded when rule (d) by
    definition says none of its descendants closes: an empty tops list,
    scanned over all 2^d vertices, or every unit vector within a ball of
    the mask.  A general word of length t is not expanded either when
    rule (b) by definition says no descendant reaches the floor:
    t + k + 1 + 2 * min(free even, free odd) < floor over the vertices
    outside the balls of walk[1..t], each of radius min(i, k-1), or
    t + 2 + 2 * min(...) < floor over those outside the balls of
    walk[1..t+1-k], the bound the kernel does not test.
    """
    symmetric = mode != "general"
    level = [()]
    out = []
    for t in range(depth):
        grown, nodes = [], 0
        for word in level:
            walk = _walk(word)
            if symmetric and t > k:
                free = [
                    all((y ^ walk[i]).bit_count() >= k for i in range(t + 2 - k))
                    for y in range(1 << d)
                ]
                if not any(
                    free[x] and all(free[x ^ walk[s]] for s in range(1, t - k + 1))
                    for x in range(1 << d)
                ):
                    continue
            if floor and any(
                slack + 2 * min(_free_parities(d, k, centres)) < floor
                for slack, centres in ((t + k + 1, walk[1:]), (t + 2, walk[1 : max(t + 2 - k, 1)]))
            ):
                continue
            labels = range(1, min(max(word, default=0) + 1, d) + 1)
            if not symmetric and all(
                any(
                    (walk[i] ^ (1 << b)).bit_count() < min(i + 1, k)
                    for i in range(1, t + 2 - k)
                )
                for b in range(d)
            ):
                # every unit vector is covered: only the closing step is left
                labels = [c for c in labels if walk[t] == 1 << (c - 1)]
            run = next((j for j in range(t) if word[j] in word[:j]), 0)
            for c in labels:
                p = max((i for i in range(t) if word[i] == c), default=-1)
                if p >= 1 and (run == 0 or t - p < run):
                    continue
                w = walk[t] ^ (1 << (c - 1))
                if not symmetric and w == 0:
                    nodes += 1
                    continue
                if all(
                    (walk[i] ^ w).bit_count()
                    >= (min(t + 1 - i, k) if symmetric else min(t + 1 - i, k, i + 1))
                    for i in range(t + 1)
                ):
                    grown.append(word + (c,))
        level = grown
        out.append((grown, nodes + len(grown)))
    return out


def _free_parities(d, k, centres):
    """The even and the odd vertices outside the balls of the centres
    walk[1], walk[2], ..., that of walk[i] of radius min(i, k-1)."""
    free = [
        u
        for u in range(1 << d)
        if all((u ^ v).bit_count() > min(i, k - 1) for i, v in enumerate(centres, 1))
    ]
    even = sum(1 for u in free if u.bit_count() % 2 == 0)
    return even, len(free) - even


_PATH_CASES = [
    (3, 1, "general", None, 8, 0), (4, 2, "general", None, 16, 0),
    (5, 2, "general", None, 32, 0), (6, 4, "general", None, 64, 0),
    (7, 5, "general", None, 128, 0), (4, 2, "symmetric", None, 16, 0),
    (6, 3, "symmetric", None, 64, 0), (3, 1, "symmetric", None, 8, 0),
    (4, 1, "symmetric", None, 16, 0), (8, 4, "family", 3, 256, 0),
    # capped: the word cap, not 14, bounds the depths compared
    (6, 2, "symmetric", None, 24, 0),
    # rule (b) on: the floors are K(5,2), K(6,3), K(7,4) and K(8,5); at
    # k >= 4 the ball mask decides near pairs below fresh
    (5, 2, "general", None, 32, 14), (6, 3, "general", None, 64, 16),
    (7, 4, "general", None, 128, 14), (8, 5, "general", None, 256, 16),
]


class TestKernelPaths:
    @pytest.mark.parametrize(
        "d,k,mode,l,max_word,floor",
        _PATH_CASES,
        ids=[f"{c[0]}-{c[1]}-{c[2]}" + (f"-floor{c[5]}" if c[5] else "") for c in _PATH_CASES],
    )
    def test_table_and_loop_paths_identical(self, d, k, mode, l, max_word, floor):
        # the kernel, which reads its near pairs off the last-occurrence
        # table, and the reference, which loops over every pair, reach the
        # same open words and nodes at every depth; the kernel clamps its
        # split depth below the word cap
        cap = max_word // 2 if mode != "general" else max_word
        depth = min(14, cap - 1)
        levels = _reference_levels(d, k, mode, depth, floor)
        nodes = 0
        for level, (words, count) in enumerate(levels, 1):
            kern = search._Kernel(
                CodeParams(d, k), mode, l, max_word, floor=floor, stop_depth=level
            )
            assert kern.run() == "complete"
            nodes += count
            assert kern.frontier == words, level
            assert kern.nodes == nodes, level
        assert any(words for words, _ in levels)

    def test_large_d_budget_stops_exactly(self):
        rec = max_length(CodeParams(14, 7), SearchOptions(node_budget=200))
        assert rec.nodes == 200
        assert not rec.exhaustive

    @pytest.mark.parametrize("d,k,run", [(5, 2, max_length), (8, 4, symmetric_max)])
    def test_in_process_fallback_matches_one_worker(self, monkeypatch, d, k, run):
        single = run(CodeParams(d, k))
        real_context = multiprocessing.get_context

        class NoPool:
            def __init__(self, method):
                self.Value = real_context(method).Value

            def Pool(self, *args, **kwargs):
                raise OSError("no process pool")

        monkeypatch.setattr(multiprocessing, "get_context", NoPool)
        rec = run(CodeParams(d, k), SearchOptions(workers=2))
        assert rec.witnesses == single.witnesses
        assert rec.nodes == single.nodes
        assert rec.exhaustive

    @pytest.mark.parametrize(
        "d,k,mode,nodes", [(7, 3, "general", 23472), (11, 6, "symmetric", 2151)]
    )
    def test_a_task_is_its_prefix(self, d, k, mode, nodes):
        # a task's result depends on (job, prefix) alone: each frontier
        # prefix run twice gives equal results, and the head and its tasks
        # (with the symmetric seed in general mode) make up the 1-worker run
        single = (max_length if mode == "general" else symmetric_max)(CodeParams(d, k))
        job = dict(
            params=CodeParams(d, k), mode=mode, l_req=None, max_word=1 << d, floor=0,
            target=None, deadline=None, node_budget=None,
        )
        seed_nodes = 0
        if mode == "general":
            seed = search._symmetric_floor(job)
            job["floor"], seed_nodes = seed.best, seed.nodes
        head = search._run_subtree(job, (), max(4, k + 3))
        assert head.stop_reason == "complete" and head.frontier
        tasks = [search._run_subtree(job, prefix) for prefix in head.frontier]
        assert [search._run_subtree(job, prefix) for prefix in head.frontier] == tasks
        results = [head, *tasks]
        assert seed_nodes + sum(r.nodes for r in results) == single.nodes == nodes
        best = max(r.best for r in results)
        found = {canonical_form(w).word for r in results for w in r.raw_witnesses if len(w) == best}
        assert (best, tuple(sorted(found))) == (single.n, single.witnesses)

    @pytest.mark.parametrize(
        "d,k,run,tasks",
        [(5, 2, max_length, 6), (8, 4, symmetric_max, 3), (7, 3, max_length, 7)],
    )
    def test_pool_starts_no_more_processes_than_tasks(self, monkeypatch, d, k, run, tasks):
        single = run(CodeParams(d, k))
        requested = []

        class CountingPool:
            def __init__(self, method):
                pass

            def Pool(self, processes):
                # record the request, then fall back in-process: no real process
                requested.append(processes)
                raise OSError("no process pool")

        monkeypatch.setattr(multiprocessing, "get_context", CountingPool)
        rec = run(CodeParams(d, k), SearchOptions(workers=64))
        assert requested == [tasks]
        assert rec.witnesses == single.witnesses
        assert rec.nodes == single.nodes


def _walk(word):
    walk = [0]
    for c in word:
        walk.append(walk[-1] ^ (1 << (c - 1)))
    return walk


class TestSymmetricClosure:
    """The closure gate, rule (d) at T = t, sends every reached half-word
    whose doubled word the full verifier accepts on to ``_close``, and
    only the verifier records."""

    @staticmethod
    def _closed(monkeypatch):
        # the half-words that reach _close
        real = search._Kernel._close
        closed = set()

        def recorded(kern, n):
            closed.add(tuple(kern.word))
            return real(kern, n)

        monkeypatch.setattr(search._Kernel, "_close", recorded)
        return closed

    @pytest.mark.parametrize(
        "d,k", [(4, 1), (4, 2), (5, 2), (6, 3), (7, 3), (7, 4), (8, 5)]
    )
    def test_sound_on_every_reached_half_word(self, monkeypatch, d, k):
        # the reached half-words by definition, up to the word cap; a
        # recording kernel tests the closure of every one of length >= 2
        closed = self._closed(monkeypatch)
        kern = RecordingKernel(CodeParams(d, k), "symmetric", None, 1 << d)
        assert kern.run() == "complete"
        levels = _reference_levels(d, k, "symmetric", 1 << (d - 1))
        assert kern.nodes == sum(count for _, count in levels)
        reached = {w for words, _ in levels[1:] for w in words}
        valid = {w for w in reached if check_spread(w * 2, kern.params) is None}
        assert valid <= closed < reached
        # by definition: the valid doubled words of minimal leading run
        kept = [w * 2 for w in valid if min(leading_runs(w * 2)) == leading_runs(w * 2)[0]]
        assert sorted(kern.witnesses) == sorted(kept)
        assert kept

    @pytest.mark.parametrize("d,k,seed", [(8, 4, 1), (11, 6, 2), (14, 8, 3)])
    def test_sound_on_random_reached_half_words(self, monkeypatch, d, k, seed):
        # random reached prefixes, each grown by a recording kernel; every
        # pushed half-word longer than k narrows its tops list once, so the
        # narrowed words below a prefix are the half-words reached there
        rng = random.Random(seed)
        params = CodeParams(d, k)
        depth = min(d + 2, 13)
        head = search._Kernel(params, "symmetric", None, 1 << d, stop_depth=depth)
        assert head.run() == "complete"
        real = search._Kernel._narrow
        pushed = []

        def narrow(kern, tops, t, fm):
            pushed.append(tuple(kern.word))
            return real(kern, tops, t, fm)

        monkeypatch.setattr(search._Kernel, "_narrow", narrow)
        closed = self._closed(monkeypatch)
        frontier = head.frontier
        for prefix in rng.sample(frontier, min(20, len(frontier))):
            kern = RecordingKernel(params, "symmetric", None, 1 << d, node_budget=2000)
            if kern.run(prefix) == "nodes":
                pushed.pop()  # the node that spends the budget is not closed
        reached = {w for w in pushed if len(w) > depth}
        assert all(check_spread(w * 2, params) is not None for w in reached - closed)
        assert set() < closed < reached

    @pytest.mark.parametrize("mode,l", [("symmetric", None), ("family", 3)])
    def test_full_verifier_gates_every_record(self, monkeypatch, mode, l):
        monkeypatch.setattr(search, "check_spread", lambda word, params: "rejected")
        if mode == "symmetric":
            rec = symmetric_max(CodeParams(8, 4))
        else:
            rec = family_symmetric_max(CodeParams(8, 4), l)
        assert rec.exhaustive and rec.nodes == 173
        assert rec.n == 0 and rec.witnesses == ()


class TestClosability:
    """Rule (d): the tops list is what its definition says at every node
    that computes it, and both rules prune the same nodes for any number
    of workers."""

    @pytest.mark.parametrize(
        "d,k,mode,l",
        [
            (4, 1, "symmetric", None),
            (6, 2, "symmetric", None),
            (8, 4, "symmetric", None),
            (9, 5, "symmetric", None),
            (8, 4, "family", 3),
        ],
    )
    def test_tops_list_by_definition(self, monkeypatch, d, k, mode, l):
        # a top x lies outside fm_t, the vertices within k-1 of some
        # walk[i] with i <= t+1-k, and so does x ^ walk[s] for 1 <= s <= t-k
        real = search._Kernel._narrow
        alive = []

        def checked(kern, tops, t, fm):
            got = real(kern, tops, t, fm)
            walk = kern.walk
            assert t == len(kern.word) > k
            free = {
                y
                for y in range(1 << d)
                if all((y ^ walk[i]).bit_count() >= k for i in range(t + 2 - k))
            }
            want = [
                x
                for x in range(1 << d)
                if x in free and all(x ^ walk[s] in free for s in range(1, t - k + 1))
            ]
            assert got == want, kern.word
            alive.append(bool(got))
            return got

        monkeypatch.setattr(search._Kernel, "_narrow", checked)
        kern = search._Kernel(CodeParams(d, k), mode, l, 1 << d)
        assert kern.run() == "complete"
        # every node deeper than k narrows its list once; above it, spread
        # k allows only the word 1, 2, ..., t
        assert len(alive) == kern.nodes - k
        assert set(alive) == {True, False}

    @pytest.mark.parametrize(
        "d,k,mode,l,budget",
        [(11, 6, "symmetric", None, None), (8, 4, "family", 3, None), (14, 8, "symmetric", None, 5000)],
    )
    def test_mask_and_count_narrowing_agree(self, monkeypatch, d, k, mode, l, budget):
        # the bit test of the parent's mask and the popcount loop keep the
        # same list at every narrowed node
        real = search._Kernel._narrow
        seen = []

        def both(kern, tops, t, fm):
            got = real(kern, tops, t, fm)
            assert got == kern._narrow_by_count(tops, t), kern.word
            seen.append(bool(got))
            return got

        monkeypatch.setattr(search._Kernel, "_narrow", both)
        assert d <= search._MASK_NARROW_MAX_D
        kern = search._Kernel(CodeParams(d, k), mode, l, 1 << d, node_budget=budget)
        assert kern.run() == ("complete" if budget is None else "nodes")
        assert len(seen) == kern.nodes - k
        assert set(seen) == {True, False}

    @pytest.mark.parametrize(
        "run,d,k,nodes", [(max_length, 7, 3, 23472), (symmetric_max, 11, 6, 2151)]
    )
    def test_workers_give_the_same_node_total(self, run, d, k, nodes):
        # both bounds read only the node's own state, and a pool task
        # builds them along its prefix
        single = run(CodeParams(d, k))
        split = run(CodeParams(d, k), SearchOptions(workers=2))
        assert single.nodes == split.nodes == nodes
        assert single.witnesses == split.witnesses
        assert split.exhaustive


class TestNodeCounts:
    """Node totals of the current pruning rules; a new rule changes them
    on purpose and updates these numbers with its proof of soundness."""

    def test_pinned_totals(self, rec_52, rec_63, rec_84_sym):
        assert rec_52.nodes == 549
        assert rec_63.nodes == 268
        assert rec_84_sym.nodes == 173
        assert symmetric_max(CodeParams(9, 5)).nodes == 152
        assert symmetric_max(CodeParams(11, 6)).nodes == 2151
        assert symmetric_max(CodeParams(12, 7)).nodes == 1855
        assert symmetric_max(CodeParams(13, 8)).nodes == 1856
        assert family_symmetric_max(CodeParams(8, 4), 3).nodes == 173
        assert max_length(CodeParams(7, 4)).nodes == 2077
        assert max_length(CodeParams(8, 5)).nodes == 6686

    @pytest.mark.parametrize(
        "run,d,k",
        [
            (max_length, 5, 2),
            (symmetric_max, 8, 4),
            (lambda params, options=None: family_symmetric_max(params, 3, options), 8, 4),
        ],
        ids=["K-5-2-seeded", "S-8-4", "F-8-4-3"],
    )
    def test_budget_sweep(self, run, d, k):
        # a budget stops at exactly that node, closure nodes included, and
        # a budget past the tree completes it
        full = run(CodeParams(d, k)).nodes
        for budget in [*range(1, full + 2, 37), full, full + 1]:
            rec = run(CodeParams(d, k), SearchOptions(node_budget=budget))
            assert rec.nodes == min(budget, full), budget
            if budget <= full:
                assert rec.stop_reason == "nodes" and not rec.exhaustive, budget
            else:
                assert rec.stop_reason == "complete" and rec.exhaustive


class TestStaticFloor:
    """Rules (b) and (c) only cut work below the symmetric floor: without
    the floor, the answers are the same."""

    @pytest.mark.parametrize("d,k,classes", [(5, 2, 3), (6, 3, 1), (7, 4, 31)])
    def test_floor_zero_gives_the_same_answer(self, monkeypatch, d, k, classes):
        seeded = max_length(CodeParams(d, k))
        monkeypatch.setattr(
            search,
            "_symmetric_floor",
            lambda *args: search._RunResult(0, [], 0, "complete"),
        )
        unseeded = max_length(CodeParams(d, k))
        assert unseeded.exhaustive and seeded.exhaustive
        assert unseeded.n == seeded.n
        assert unseeded.witnesses == seeded.witnesses
        assert len(seeded.witnesses) == classes

    def test_parity_bound_at_every_d(self):
        # on in general mode with a floor, at every d; off in symmetric mode
        for d, k in ((6, 3), (14, 8)):
            kern = search._Kernel(CodeParams(d, k), "general", None, 1 << d, floor=16)
            assert kern.even == sum(1 << v for v in range(1 << d) if v.bit_count() % 2 == 0)
            kern = search._Kernel(CodeParams(d, k), "general", None, 1 << d)
            assert kern.even is None
            kern = search._Kernel(CodeParams(d, k), "symmetric", None, 1 << d, floor=16)
            assert kern.even is None


class TestBallMasks:
    """A ball built on demand is the Hamming ball by definition."""

    @staticmethod
    def _check(kern, radius, v):
        size = 1 << kern.d
        got = kern._new_ball(radius, v)
        assert kern.balls[radius][v] == got
        members = format(got, f"0{size}b")[::-1]
        want = "".join("1" if (u ^ v).bit_count() <= radius else "0" for u in range(size))
        assert members == want, (kern.d, radius, v)

    def test_every_ball_at_small_d(self):
        for d in range(2, 7):
            # general mode keeps every radius 0..k-1; k = d + 1 reaches radius d
            kern = search._Kernel(CodeParams(d, d + 1), "general", None, 1 << d)
            for radius in range(d + 1):
                for v in range(1 << d):
                    self._check(kern, radius, v)

    def test_random_balls_at_d_14(self):
        rng = random.Random(14)
        kern = search._Kernel(CodeParams(14, 8), "general", None, 1 << 14)
        for _ in range(200):
            self._check(kern, rng.randrange(8), rng.randrange(1 << 14))

    @pytest.mark.parametrize(
        "d,k,mode,floor,built",
        [
            (14, 8, "symmetric", 0, [0] * 7 + [19]),
            (11, 6, "symmetric", 0, [0] * 5 + [17]),
            (7, 3, "general", 24, [0, 1, 87]),
        ],
    )
    def test_balls_built_per_radius(self, d, k, mode, floor, built):
        # a symmetric kernel builds a ball only when a node's mask first
        # needs it; a general one keeps g_t, the balls of walk[1..t]
        kern = search._Kernel(CodeParams(d, k), mode, None, 1 << d, floor=floor)
        assert kern.run() == "complete"
        assert [len(b) for b in kern.balls] == built

    def test_kernel_at_d_20_holds_only_the_balls_it_builds(self):
        # the first kernel caches the origin balls and low masks that every
        # kernel of these parameters shares; a second allocates only its own
        # state (2^d ball slots per radius would be 96 MiB)
        params = CodeParams(20, 12)
        search._Kernel(params, "general", None, 1 << 20)
        tracemalloc.start()
        try:
            kern = search._Kernel(params, "general", None, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert kern.balls == [{}] * 12


class TestStretchScale:
    def test_symmetric_9_5_reaches_24(self):
        rec = symmetric_max(CodeParams(9, 5))
        assert rec.n == 24
        assert rec.exhaustive
        classes = classify(rec.witnesses)
        assert len(classes) >= 1
