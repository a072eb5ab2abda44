import itertools
import random

import pytest

from circuitcodes import (
    CodeParams,
    InapplicableError,
    NotACircuitCodeError,
    Segment,
    StructuralError,
    ViolationReport,
    are_isomorphic,
    audit_delta_inequalities,
    bit_runs,
    brute_force_check,
    check_spread,
    check_window_bitrun_property,
    delta,
    expand_vertices,
    hamming_distance,
    in_family,
    is_symmetric,
    is_valid_code,
    normalize_to_bitrun_form,
    segment_labels,
)
from circuitcodes.canon import leading_runs
from circuitcodes.core import MalformedSequenceError

from conftest import closed_words
from oracles import normal_form_bruteforce

GRAY3 = (1, 2, 1, 3, 1, 2, 1, 3)


def _gray_cycle(d):
    """The reflected Gray cycle through all 2^d vertices, as labels."""
    n = 1 << d
    return tuple(((i ^ i >> 1) ^ ((i + 1) % n ^ (i + 1) % n >> 1)).bit_length() for i in range(n))


def _random_closed_word(rng, d, n_max):
    """A seeded closed word over 1..d: random labels, then its odd set."""
    w = [rng.randint(1, d) for _ in range(rng.randint(2, n_max))]
    odd = sorted(c for c in set(w) if w.count(c) % 2)
    rng.shuffle(odd)
    return tuple(w + odd)


def _variants(word, d, rng, relabelings=3):
    """Every rotation of the word under seeded relabelings, read both ways."""
    out = []
    for s in range(len(word)):
        rotation = tuple(word[s:]) + tuple(word[:s])
        for _ in range(relabelings):
            perm = list(range(1, d + 1))
            rng.shuffle(perm)
            relabeled = tuple(perm[c - 1] for c in rotation)
            out += [relabeled, relabeled[::-1]]
    return out


class TestCheckSpread:
    def test_square_valid(self):
        assert check_spread((1, 2, 1, 2), CodeParams(2, 1)) is None

    def test_gray3_fails_spread_2(self):
        report = check_spread(GRAY3, CodeParams(3, 2))
        assert report == ViolationReport(
            i=1, j=4, code_dist=3, cube_dist=1, required=2, segment=(1, 2, 1)
        )

    def test_search_witness_is_valid(self, rec_52):
        assert rec_52.n == 14
        for w in rec_52.witnesses:
            assert len(w) == 14
            assert check_spread(w, CodeParams(5, 2)) is None

    def test_non_closed_raises_structural(self):
        with pytest.raises(StructuralError):
            check_spread((1, 2, 3, 4), CodeParams(4, 1))

    def test_too_short_raises_structural(self):
        with pytest.raises(StructuralError):
            check_spread((1, 1), CodeParams(2, 1))
        with pytest.raises(StructuralError):
            check_spread((), CodeParams(2, 1))

    def test_duplicate_vertices_reported_as_zero_cube_dist(self):
        # walk of (1,1,2,2) revisits the origin at step 2
        report = check_spread((1, 1, 2, 2), CodeParams(2, 1))
        assert report is not None
        assert report.cube_dist == 0
        assert report == ViolationReport(
            i=1, j=3, code_dist=2, cube_dist=0, required=1, segment=(1, 1)
        )

    def test_first_violation_is_lexicographic(self):
        # several violating pairs exist; the (i, j)-smallest must be reported
        report = check_spread(GRAY3, CodeParams(3, 3))
        assert report is not None
        fast = check_spread(GRAY3, CodeParams(3, 2))
        assert (report.i, report.j) <= (fast.i, fast.j)

    def test_report_is_recheckable_by_core_ops(self):
        report = check_spread(GRAY3, CodeParams(3, 2))
        walk = expand_vertices(GRAY3, 3)
        assert hamming_distance(walk[report.i - 1], walk[report.j - 1]) == report.cube_dist
        assert report.cube_dist < report.required
        assert delta(GRAY3, Segment(report.i, report.j - report.i)) == report.cube_dist
        assert segment_labels(GRAY3, Segment(report.i, report.j - report.i)) == report.segment

    def test_violation_line_format(self):
        report = check_spread(GRAY3, CodeParams(3, 2))
        assert report.to_line() == (
            "violation i=1 j=4 code_dist=3 cube_dist=1 required=2 segment=1,2,1"
        )

    def test_spread_monotonicity(self, rec_52, rec_63):
        words = list(rec_52.witnesses) + list(rec_63.witnesses)
        words += [(1, 2, 1, 2), (1, 2, 3, 1, 2, 3)]
        for w in words:
            d = max(w)
            ks = [k for k in range(1, 7) if check_spread(w, CodeParams(d, k)) is None]
            assert ks == list(range(1, len(ks) + 1))

    @pytest.mark.parametrize("d", [8, 9, 16, 17, 32, 33, 64])
    def test_report_equals_brute_force_at_field_width_edges(self, d):
        # the packed kernel's fields are 8, 16, 32 or 64 bits wide; d on
        # either side of a width, distinct-label runs that reach counts of
        # d, and spreads above d + 1, where the threshold is capped
        rng = random.Random(1000 + d)
        run = tuple(range(1, d + 1)) * 2  # valid for every k
        words = [run, run[1:] + run[:1]]
        for _ in range(150):
            w = _random_closed_word(rng, d, min(2 * d, 40))
            words.append(w)
            x = list(w)
            i, j = rng.sample(range(len(x)), 2)
            x[i], x[j] = x[j], x[i]
            words.append(tuple(x))
        verdicts = set()
        for w in words:
            for k in {1, 2, 3, rng.randint(1, d), d, d + 1, d + 5}:
                params = CodeParams(d, k)
                if len(w) < 4:
                    continue
                report = check_spread(w, params)
                assert report == brute_force_check(w, params), (w, k)
                verdicts.add(report is None)
        assert verdicts == {True, False}

    def test_gray_cycle_of_1024_steps(self):
        gray = _gray_cycle(10)
        assert len(gray) == 1024
        assert check_spread(gray, CodeParams(10, 1)) is None
        # swapping the first two labels makes the walk revisit vertex 2
        swapped = (gray[1], gray[0]) + gray[2:]
        report = check_spread(swapped, CodeParams(10, 1))
        assert report == ViolationReport(
            i=2, j=4, code_dist=2, cube_dist=0, required=1, segment=(1, 1)
        )

    def test_equal_word_of_other_label_types_is_validated_again(self):
        # the verifier remembers the facts of the last word by identity,
        # so True == 1 never lets a malformed word through
        params = CodeParams(2, 1)
        assert check_spread((1, 2, 1, 2), params) is None
        with pytest.raises(MalformedSequenceError):
            check_spread((True, 2, 1, 2), params)
        with pytest.raises(MalformedSequenceError):
            check_spread((1.0, 2, 1, 2), params)
        assert check_spread([1, 2, 1, 2], params) is None
        # the same word object checked against a smaller dimension
        word = (1, 2, 3, 1, 2, 3)
        assert check_spread(word, CodeParams(3, 2)) is None
        with pytest.raises(MalformedSequenceError):
            check_spread(word, CodeParams(2, 2))


class TestBruteForce:
    def test_square_spread_3(self):
        assert brute_force_check((1, 2, 1, 2), CodeParams(2, 3)) is None

    def test_hexagon_spread_3(self):
        assert brute_force_check((1, 2, 3, 1, 2, 3), CodeParams(3, 3)) is None

    @staticmethod
    def _verdict(checker, word, params):
        try:
            return "valid" if checker(word, params) is None else "violation"
        except StructuralError:
            return "structural"

    def test_agreement_smoke(self):
        # the full exhaustive cross-validation lives in the acceptance suite
        for w in closed_words(3, 8):
            for k in (1, 2, 3):
                params = CodeParams(3, k)
                assert self._verdict(check_spread, w, params) == self._verdict(
                    brute_force_check, w, params
                )

    def test_same_structural_errors(self):
        for bad in [(1, 2, 3), (1, 1)]:
            with pytest.raises(StructuralError):
                brute_force_check(bad, CodeParams(3, 1))

    def test_is_valid_code_helper(self):
        assert is_valid_code((1, 2, 1, 2), CodeParams(2, 1))
        assert not is_valid_code(GRAY3, CodeParams(3, 2))
        assert not is_valid_code((1, 2, 3), CodeParams(3, 1))


class TestBitRuns:
    def test_square(self):
        assert bit_runs((1, 2, 1, 2)).longest == 2

    def test_wrapping_run(self):
        report = bit_runs((1, 2, 3, 1))
        assert report.longest == 3
        assert Segment(2, 3) in report.runs  # (2,3,1)

    def test_all_distinct_whole_cycle(self):
        report = bit_runs((1, 2, 3))
        assert report.longest == 3
        assert report.runs == (Segment(1, 3),)

    def test_empty(self):
        report = bit_runs(())
        assert report.longest == 0 and report.runs == ()

    def test_maximum_symmetric_code_has_k_plus_3_run(self, rec_84_sym):
        for w in rec_84_sym.witnesses:
            assert bit_runs(w).longest >= 7

    def test_runs_are_maximal(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 14)
            w = tuple(rng.randint(1, 5) for _ in range(n))
            report = bit_runs(w)
            for seg in report.runs:
                labels = segment_labels(w, seg)
                assert len(set(labels)) == seg.length
                if seg.length < n:
                    grown_left = segment_labels(w, Segment((seg.start - 2) % n + 1, seg.length + 1))
                    grown_right = segment_labels(w, Segment(seg.start, seg.length + 1))
                    assert len(set(grown_left)) <= seg.length
                    assert len(set(grown_right)) <= seg.length
            assert report.longest == max(s.length for s in report.runs)
            assert all(
                report.runs[i].start < report.runs[i + 1].start
                for i in range(len(report.runs) - 1)
            )


class TestBitRunsAgainstDefinitionOracle:
    """Compare against a literal scan: a maximal run is any distinct-label
    segment that repeats a label when grown one step in either direction."""

    @staticmethod
    def oracle(word):
        n = len(word)
        if n == 0:
            return set(), 0
        if len(set(word)) == n:
            return {Segment(1, n)}, n
        runs = set()
        for start in range(1, n + 1):
            for length in range(1, n + 1):
                labels = segment_labels(word, Segment(start, length))
                if len(set(labels)) != length:
                    continue
                left = segment_labels(word, Segment((start - 2) % n + 1, length + 1))
                right = segment_labels(word, Segment(start, length + 1))
                if len(set(left)) <= length and len(set(right)) <= length:
                    runs.add(Segment(start, length))
        return runs, max(s.length for s in runs)

    def test_exhaustive_tiny(self):
        for n in range(1, 7):
            for w in itertools.product((1, 2, 3), repeat=n):
                report = bit_runs(w)
                want_runs, want_longest = self.oracle(w)
                assert set(report.runs) == want_runs, w
                assert report.longest == want_longest, w
                # the CLI prints the longest run off the run table
                assert max(leading_runs(w)) == want_longest, w

    def test_random(self):
        rng = random.Random(71)
        for _ in range(400):
            n = rng.randint(1, 12)
            w = tuple(rng.randint(1, 6) for _ in range(n))
            report = bit_runs(w)
            want_runs, want_longest = self.oracle(w)
            assert set(report.runs) == want_runs and report.longest == want_longest
            assert max(leading_runs(w)) == want_longest


class TestDeltaAuditAgainstRecountOracle:
    """The prefix-mask audit must agree with a naive recount over every
    segment in the claimed ranges."""

    @staticmethod
    def oracle(word, params):
        n, k = len(word), params.k
        offenders = []
        for length in range(1, min(k + 1, n - 1) + 1):
            for start in range(1, n + 1):
                if delta(word, Segment(start, length)) != length:
                    offenders.append(Segment(start, length))
        for length in range(k + 2, n - k + 1):
            for start in range(1, n + 1):
                if delta(word, Segment(start, length)) < k:
                    offenders.append(Segment(start, length))
        return tuple(offenders)

    def test_on_maxima_and_invalid_words(self, rec_52, rec_63):
        cases = [(w, CodeParams(5, 2)) for w in rec_52.witnesses]
        cases += [(w, CodeParams(6, 3)) for w in rec_63.witnesses]
        cases += [(GRAY3, CodeParams(3, 2)), (GRAY3, CodeParams(3, 1))]
        for w, params in cases:
            assert audit_delta_inequalities(w, params) == self.oracle(w, params)

    def test_random_closed_words(self):
        rng = random.Random(73)
        checked = 0
        for w in closed_words(3, 10):
            if rng.random() < 0.2:
                for k in (1, 2, 3):
                    if len(w) > 2 * k:
                        params = CodeParams(3, k)
                        assert audit_delta_inequalities(w, params) == self.oracle(w, params)
                        checked += 1
        assert checked > 500

    def test_rotated_relabeled_and_transposed_witnesses(
        self, rec_52, rec_63, rec_84_sym, rec_116_sym
    ):
        # k = 2, 3, 4, 6 and n >= 2k+5, so offenders at lengths past n/2
        # whose complement is at least k+2 occur
        rng = random.Random(83)
        short = past_half = 0
        for rec, params in (
            (rec_52, CodeParams(5, 2)),
            (rec_63, CodeParams(6, 3)),
            (rec_84_sym, CodeParams(8, 4)),
            (rec_116_sym, CodeParams(11, 6)),
        ):
            n, k = rec.n, params.k
            for w in rec.witnesses[:2]:
                words = rng.sample(_variants(w, params.d, rng, relabelings=1), 6)
                for x in words[:]:
                    for _ in range(4):
                        y = list(x)
                        i, j = rng.sample(range(n), 2)
                        y[i], y[j] = y[j], y[i]
                        words.append(tuple(y))
                for x in words:
                    got = audit_delta_inequalities(x, params)
                    assert got == self.oracle(x, params), (x, params)
                    short += sum(1 for seg in got if seg.length <= k + 1)
                    past_half += sum(1 for seg in got if n / 2 < seg.length <= n - k - 2)
        assert short and past_half

    @pytest.mark.parametrize("d", [9, 17])
    def test_random_words_across_field_widths(self, d):
        # d = 9 and 17 pack into 16- and 32-bit fields; runs of distinct
        # labels and their transpositions give clean words and offending
        # long lengths
        rng = random.Random(97 + d)
        words = []
        for _ in range(12):
            perm = rng.sample(range(1, d + 1), d)
            run = tuple(perm[: rng.randint(3, min(d, 12))]) * 2
            x = list(run)
            i, j = rng.sample(range(len(x)), 2)
            x[i], x[j] = x[j], x[i]
            words += [run, tuple(x), _random_closed_word(rng, d, 14)]
        clean = long = 0
        for w in words:
            n = len(w)
            for k in sorted({1, 2, rng.randint(1, max(1, (n - 1) // 2))}):
                if n <= 2 * k:
                    continue
                params = CodeParams(d, k)
                got = audit_delta_inequalities(w, params)
                assert got == self.oracle(w, params), (w, k)
                clean += not got
                long += any(seg.length >= k + 2 for seg in got)
        assert clean and long


class TestInFamily:
    def test_max_symmetric_code_in_family_3(self, rec_84_sym):
        assert in_family(rec_84_sym.witnesses[0], CodeParams(8, 4), 3)

    def test_square_not_in_family(self):
        assert not in_family((1, 2, 1, 2), CodeParams(2, 1), 2)

    def test_run_cannot_exceed_dimension(self):
        # k + l > d forces False: a run longer than d repeats a label
        assert not in_family((1, 2, 1, 2), CodeParams(2, 1), 4)

    def test_invalid_code_rejected(self):
        with pytest.raises(NotACircuitCodeError):
            in_family(GRAY3, CodeParams(3, 2), 2)

    def test_l_validation(self):
        with pytest.raises(ValueError):
            in_family((1, 2, 1, 2), CodeParams(2, 1), 1)


class TestWindowBitrunProperty:
    def test_valid_on_gray3(self):
        assert check_window_bitrun_property(GRAY3, CodeParams(3, 1)) is None

    def test_valid_on_all_enumerated_maxima(self, rec_52, rec_63, rec_84_sym):
        for rec, params in [
            (rec_52, CodeParams(5, 2)),
            (rec_63, CodeParams(6, 3)),
            (rec_84_sym, CodeParams(8, 4)),
        ]:
            for w in rec.witnesses:
                assert check_window_bitrun_property(w, params) is None

    def test_inapplicable_when_short(self):
        with pytest.raises(InapplicableError):
            check_window_bitrun_property((1, 2, 1, 2), CodeParams(2, 1))

    @pytest.mark.parametrize(
        "word,params", [((1, 2, 3, 4, 5), CodeParams(5, 1)), (tuple(range(1, 10)), CodeParams(9, 2))]
    )
    def test_non_closed_is_structural(self, word, params):
        with pytest.raises(StructuralError, match="not closed"):
            check_window_bitrun_property(word, params)

    @staticmethod
    def first_bad_window(word, k):
        """Literal scan: the first cyclic window of k+3 labels whose first
        and last k+2 labels both repeat one."""
        n = len(word)
        for i in range(n):
            window = [word[(i + t) % n] for t in range(k + 3)]
            if len(set(window[:-1])) < k + 2 and len(set(window[1:])) < k + 2:
                return Segment(i + 1, k + 3)
        return None

    def test_arbitrary_words_by_definition(self):
        # closed, but not codes: most of these words fail, at varied windows
        words = closed_words(3, 8)
        rng = random.Random(29)
        words += [_random_closed_word(rng, 8, 24) for _ in range(3000)]
        outcomes = set()
        for k in (1, 2, 3, 4):
            params = CodeParams(8, k)
            for w in words:
                if len(w) <= 2 * (k + 1):
                    continue
                want = self.first_bad_window(w, k)
                assert check_window_bitrun_property(w, params) == want, (w, k)
                outcomes.add(want is None)
        assert outcomes == {True, False}


class TestDeltaAudit:
    def test_valid_on_enumerated_maxima(self, rec_52, rec_63):
        for rec, params in [(rec_52, CodeParams(5, 2)), (rec_63, CodeParams(6, 3))]:
            for w in rec.witnesses:
                assert audit_delta_inequalities(w, params) == ()

    def test_gray3_fails_at_spread_2(self):
        offenders = audit_delta_inequalities(GRAY3, CodeParams(3, 2))
        assert offenders
        first = offenders[0]
        assert first == Segment(1, 3)
        assert segment_labels(GRAY3, first) == (1, 2, 1)
        assert delta(GRAY3, first) == 1

    def test_spread_above_every_count(self):
        # k = 130 exceeds every count of a d = 2 word, and 128 - k < 0:
        # the kernel caps its threshold at d + 1
        w = (1, 2) * 132
        n = len(w)
        # lengths 3..131 repeat a label; no segment has odd-count 130
        want = tuple(Segment(s, L) for L in range(3, 135) for s in range(1, n + 1))
        assert audit_delta_inequalities(w, CodeParams(2, 130)) == want

    def test_inapplicable_when_short(self):
        with pytest.raises(InapplicableError):
            audit_delta_inequalities((1, 2, 1, 2), CodeParams(2, 2))

    @pytest.mark.parametrize(
        "word,params", [((1, 2, 3, 4, 5), CodeParams(5, 1)), (tuple(range(1, 10)), CodeParams(9, 2))]
    )
    def test_non_closed_is_structural(self, word, params):
        with pytest.raises(StructuralError, match="not closed"):
            audit_delta_inequalities(word, params)

    def test_short_segments_of_valid_codes_are_bit_runs(self, rec_52, rec_63):
        # odd-count == length forces pairwise-distinct labels
        for rec, k in [(rec_52, 2), (rec_63, 3)]:
            for w in rec.witnesses:
                n = len(w)
                for start in range(1, n + 1):
                    for length in range(1, k + 2):
                        labels = segment_labels(w, Segment(start, length))
                        assert len(set(labels)) == length


class TestIsSymmetric:
    @pytest.mark.parametrize(
        "word,want",
        [
            ((1, 2, 1, 2), True),
            ((1, 2, 2, 1), False),
            ((1, 2, 3, 1, 2, 3), True),
            ((1, 2, 3), False),
        ],
    )
    def test_examples(self, word, want):
        assert is_symmetric(word) is want


class TestNormalize:
    def test_unique_symmetric_84_code(self, rec_84_sym):
        params = CodeParams(8, 4)
        w = rec_84_sym.witnesses[0]
        form = normalize_to_bitrun_form(w, params)
        assert form.head_run == (1, 2, 3, 4, 5, 6)
        assert form.link in {1, 2, 7}
        assert len(form.tail) == 4
        assert form.word[:11] == form.word[11:]
        # output is a genuine relabeled rotation of the input
        assert are_isomorphic(form.word, w)
        assert check_spread(form.word, params) is None
        # normalizing the normalized word is stable
        again = normalize_to_bitrun_form(form.word, params)
        assert again.word == form.word

    def test_tail_constraints_hold(self, rec_84_sym):
        form = normalize_to_bitrun_form(rec_84_sym.witnesses[0], CodeParams(8, 4))
        k = 4
        for i0, label in enumerate(form.tail):
            assert label > i0 + 1
        for j0 in range(k - 1):
            assert not (j0 + 4 <= form.tail[j0] <= k + 2)

    def test_matches_definition_on_rotations_relabelings_and_reversals(
        self, rec_84_sym, rec_116_sym, rec_843_fam
    ):
        rng = random.Random(89)
        for rec, params in (
            (rec_84_sym, CodeParams(8, 4)),
            (rec_116_sym, CodeParams(11, 6)),
            (rec_843_fam, CodeParams(8, 4)),
        ):
            words = _variants(rec.witnesses[0], params.d, rng)
            assert len(words) == 6 * rec.n
            for x in words:
                assert normalize_to_bitrun_form(x, params) == normal_form_bruteforce(x, params), x

    def test_wrong_length_inapplicable(self):
        with pytest.raises(InapplicableError):
            normalize_to_bitrun_form((1, 2, 1, 2), CodeParams(8, 4))

    def test_asymmetric_inapplicable(self, rec_84_sym):
        w = list(rec_84_sym.witnesses[0])
        w[1], w[3] = w[3], w[1]  # break the symmetry, keep the length
        with pytest.raises(InapplicableError):
            normalize_to_bitrun_form(tuple(w), CodeParams(8, 4))

    def test_odd_spread_inapplicable(self, rec_63):
        with pytest.raises(InapplicableError):
            normalize_to_bitrun_form(rec_63.witnesses[0], CodeParams(6, 3))

    def test_invalid_code_inapplicable(self):
        # symmetric, right length for k=4 if padded wrong: use a bogus doubled word
        bogus = tuple(([1, 2] * 6)[:11]) * 2
        with pytest.raises(InapplicableError):
            normalize_to_bitrun_form(bogus, CodeParams(8, 4))
