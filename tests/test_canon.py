import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcodes import (
    CodeParams,
    are_isomorphic,
    canonical_form,
    check_spread,
    classify,
    is_symmetric,
    is_valid_code,
    rotate,
)
import circuitcodes.canon as canon
from circuitcodes.canon import _class_key, _gaps, leading_runs
from oracles import canonical_form_bruteforce


def apply_relabel(word, perm):
    """perm maps old label -> new label."""
    return tuple(perm[c] for c in word)


def random_perm(rng, d):
    labels = list(range(1, d + 1))
    rng.shuffle(labels)
    return {old: new for old, new in zip(range(1, d + 1), labels)}


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "word,want",
        [
            ((2, 1, 2, 1), (1, 2, 1, 2)),
            ((3, 1, 3, 1), (1, 2, 1, 2)),
            ((1, 2, 1, 2), (1, 2, 1, 2)),
            ((), ()),
            ((5,), (1,)),
        ],
    )
    def test_examples(self, word, want):
        assert canonical_form(word).word == want

    def test_transform_fields_reconstruct_the_word(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 16)
            word = tuple(rng.randint(1, 6) for _ in range(n))
            for rev in (False, True):
                form = canonical_form(word, include_reversal=rev)
                base = word[::-1] if form.reversal_used else word
                rotated = rotate(base, form.shift)
                assert apply_relabel(rotated, form.relabel_map()) == form.word

    def test_first_occurrence_order(self):
        rng = random.Random(43)
        for _ in range(300):
            word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 20)))
            canon = canonical_form(word).word
            seen = []
            for c in canon:
                if c not in seen:
                    seen.append(c)
            assert seen == list(range(1, len(seen) + 1))

    def test_reversal_flag_only_ever_lowers(self):
        rng = random.Random(47)
        for _ in range(300):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 14)))
            plain = canonical_form(word).word
            wide = canonical_form(word, include_reversal=True).word
            assert wide <= plain
            assert wide == min(plain, canonical_form(word[::-1]).word)

    def test_reversal_ties_prefer_forward(self):
        form = canonical_form((1, 2, 1, 2), include_reversal=True)
        assert not form.reversal_used


class TestExhaustiveProperties:
    """Idempotence and shift invariance over every word on small alphabets;
    the wide-alphabet cases are covered by first-occurrence words, of which
    every word is a relabeling."""

    @staticmethod
    def words_over(alphabet, max_len):
        for n in range(max_len + 1):
            yield from itertools.product(range(1, alphabet + 1), repeat=n)

    @staticmethod
    def first_occurrence_words(max_len):
        def rec(prefix, used):
            yield prefix
            if len(prefix) == max_len:
                return
            for c in range(1, min(used + 1, max_len) + 1):
                yield from rec(prefix + (c,), max(used, c))

        yield from rec((), 0)

    def test_exhaustive_alphabet_3(self):
        for w in self.words_over(3, 6):
            canon = canonical_form(w).word
            assert canonical_form(canon).word == canon
            for s in range(max(1, len(w))):
                assert canonical_form(rotate(w, s)).word == canon

    def test_exhaustive_first_occurrence_len_6(self):
        perm_pool = [
            {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5},
            {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1},
        ]
        for w in self.first_occurrence_words(6):
            canon = canonical_form(w).word
            assert canonical_form(canon).word == canon
            for perm in perm_pool:
                assert canonical_form(apply_relabel(w, perm)).word == canon


class TestRandomizedProperties:
    def test_relabel_and_shift_invariance(self):
        rng = random.Random(53)
        for _ in range(2000):
            d = rng.randint(2, 10)
            n = rng.randint(1, 30)
            word = tuple(rng.randint(1, d) for _ in range(n))
            canon = canonical_form(word).word
            assert canonical_form(rotate(word, rng.randrange(n))).word == canon
            assert canonical_form(apply_relabel(word, random_perm(rng, d))).word == canon
            assert canonical_form(canon).word == canon

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=20).map(tuple), st.integers(0, 19))
    @settings(deadline=None)
    def test_shift_invariance_property(self, word, shift):
        assert canonical_form(rotate(word, shift)).word == canonical_form(word).word


class TestAgainstDefinitionOracle:
    """The canonical word must equal the literal minimum over every
    rotation combined with every injective relabeling of the alphabet."""

    @staticmethod
    def oracle(word, include_reversal=False):
        if not word:
            return ()
        labels = sorted(set(word))
        bases = [word] + ([word[::-1]] if include_reversal else [])
        best = None
        for base in bases:
            for s in range(len(base)):
                rot = rotate(base, s)
                for image in itertools.permutations(range(1, len(labels) + 1)):
                    perm = dict(zip(labels, image))
                    cand = tuple(perm[c] for c in rot)
                    if best is None or cand < best:
                        best = cand
        return best

    def test_exhaustive_tiny(self):
        for n in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=n):
                assert canonical_form(w).word == self.oracle(w), w

    def test_random_with_reversal(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 7)
            w = tuple(rng.randint(1, 4) for _ in range(n))
            for rev in (False, True):
                assert canonical_form(w, include_reversal=rev).word == self.oracle(
                    w, include_reversal=rev
                ), (w, rev)


class TestAgainstRotationScan:
    """Only rotations of minimal leading run are compared; the result must
    equal the full rotation scan, shift and orientation included."""

    @staticmethod
    def run_at(word, s):
        seen = set()
        for i in range(len(word)):
            c = word[(s + i) % len(word)]
            if c in seen:
                return i
            seen.add(c)
        return len(word)

    @staticmethod
    def gap_at(word, s):
        n = len(word)
        return next(g for g in range(1, n + 1) if word[(s + g) % n] == word[s])

    def test_leading_runs_by_definition(self):
        rng = random.Random(71)
        for _ in range(2000):
            word = tuple(rng.randint(1, rng.randint(1, 8)) for _ in range(rng.randint(1, 24)))
            assert leading_runs(word) == [self.run_at(word, s) for s in range(len(word))]

    def test_minimal_run_is_minimal_gap(self):
        rng = random.Random(72)
        for _ in range(2000):
            word = tuple(rng.randint(1, rng.randint(1, 8)) for _ in range(rng.randint(1, 24)))
            gaps, runs = _gaps(word), leading_runs(word)
            assert gaps == [self.gap_at(word, s) for s in range(len(word))]
            low = min(gaps)
            assert min(runs) == low
            assert [s for s, r in enumerate(runs) if r == low] == [
                s for s, g in enumerate(gaps) if g == low
            ]

    def test_random_words_both_orientations(self):
        rng = random.Random(73)
        for _ in range(3000):
            d = rng.randint(1, 9)
            word = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 30)))
            for rev in (False, True):
                assert canonical_form(word, rev) == canonical_form_bruteforce(word, rev), (
                    word,
                    rev,
                )

    def test_symmetric_words_tie_to_the_smallest_shift(self):
        rng = random.Random(79)
        for _ in range(500):
            half = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 10)))
            word = half * rng.randint(2, 3)
            for rev in (False, True):
                assert canonical_form(word, rev) == canonical_form_bruteforce(word, rev)

    @pytest.mark.parametrize("copies", [4, 5])
    def test_words_of_period_a_quarter_or_a_fifth(self, copies):
        # only shifts below the smallest period are scanned
        rng = random.Random(83 + copies)
        checked = 0
        for _ in range(300):
            base = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 8)))
            word = base * copies
            if any(base == base[p:] + base[:p] for p in range(1, len(base))):
                continue
            checked += 1
            for rev in (False, True):
                assert canonical_form(word, rev) == canonical_form_bruteforce(word, rev)
        assert checked > 200


class TestAreIsomorphic:
    def test_examples(self):
        assert are_isomorphic((1, 2, 1, 2), (2, 3, 2, 3))
        assert not are_isomorphic((1, 2, 1, 2), (1, 2, 2, 1))
        for s in range(8):
            assert are_isomorphic((1, 2, 1, 3, 1, 2, 1, 3), rotate((1, 2, 1, 3, 1, 2, 1, 3), s))

    def test_length_mismatch(self):
        assert not are_isomorphic((1, 2, 1, 2), (1, 2, 1, 2, 1, 2))


class TestClassify:
    def test_empty(self):
        assert classify([]) == []

    def test_counts_sum_and_sorted(self):
        words = [(1, 2, 1, 2), (2, 1, 2, 1), (3, 1, 3, 1), (1, 2, 3, 1, 2, 3)]
        classes = classify(words)
        assert sum(c.count for c in classes) == len(words)
        reps = [c.representative.word for c in classes]
        assert reps == sorted(reps)
        assert {(c.representative.word, c.count) for c in classes} == {
            ((1, 2, 1, 2), 3),
            ((1, 2, 3, 1, 2, 3), 1),
        }

    def test_gap_key_separates_exactly_the_classes(self):
        # every word of length 0..8 over labels <= 3
        words = [w for n in range(9) for w in itertools.product((1, 2, 3), repeat=n)]
        for rev in (False, True):
            canon_of_key, key_of_canon = {}, {}
            for w in words:
                key, word = _class_key(w, rev), canonical_form(w, rev).word
                assert canon_of_key.setdefault(key, word) == word, (w, rev)
                assert key_of_canon.setdefault(word, key) == key, (w, rev)

    def test_against_bucketing_by_the_oracle(self):
        rng = random.Random(89)
        bases = [(), (4,), (1, 2) * 3, (1, 2) * 7, (1, 2, 3) * 4, (1, 2, 1, 3) * 2]
        bases += [(1, 2, 3, 4, 1, 5, 6, 2, 1, 4, 7, 5) * 2]  # a K(7,3) witness
        bases += [(1, 2, 1, 3, 1, 2, 4), (5, 1, 2, 1, 2)]  # labels that occur once
        bases += [(1, 2) * 9 + (1, 3) + (1, 2) * 8 + (1, 4)]  # rotations tie on 16 gaps
        bases += [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 12))) for _ in range(20)]
        words = []
        for _ in range(400):
            w = rng.choice(bases)
            shift = rng.randrange(len(w)) if w else 0
            w = apply_relabel(rotate(w, shift), random_perm(rng, 9))
            words.append(w[::-1] if rng.random() < 0.5 else w)
        for rev in (False, True):
            counts = {}
            for w in words:
                key = canonical_form_bruteforce(w, rev).word
                counts[key] = counts.get(key, 0) + 1
            want = [(canonical_form_bruteforce(c, rev), counts[c]) for c in sorted(counts)]
            got = [(c.representative, c.count) for c in classify(words, rev)]
            assert got == want, rev

    def test_one_canonical_form_per_class(self, monkeypatch):
        rng = random.Random(97)
        witness = (1, 2, 3, 4, 1, 5, 6, 2, 1, 4, 7, 5) * 2  # K(7,3) = 24
        words = [
            apply_relabel(rotate(witness, rng.randrange(24)), random_perm(rng, 7))
            for _ in range(500)
        ]
        calls = []
        real = canon.canonical_form

        def counting(word, include_reversal=False):
            calls.append(word)
            return real(word, include_reversal)

        monkeypatch.setattr(canon, "canonical_form", counting)
        classes = classify(words)
        assert [c.count for c in classes] == [500]
        assert classes[0].representative == real(witness)
        assert len(calls) == 1

    def test_input_order_irrelevant(self):
        rng = random.Random(59)
        words = [tuple(rng.randint(1, 4) for _ in range(8)) for _ in range(50)]
        a = classify(words)
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert classify(shuffled) == a


class TestValidityAndSymmetryInvariance:
    def test_validity_preserved(self, rec_52, rec_63):
        for rec, params in [(rec_52, CodeParams(5, 2)), (rec_63, CodeParams(6, 3))]:
            for w in rec.witnesses:
                assert check_spread(canonical_form(w).word, params) is None
        # invalid stays invalid
        gray3 = (1, 2, 1, 3, 1, 2, 1, 3)
        assert not is_valid_code(canonical_form(gray3).word, CodeParams(3, 2))

    def test_symmetric_words_have_symmetric_rotation_of_canonical(self):
        rng = random.Random(61)
        for _ in range(300):
            half = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
            word = half + half
            assert is_symmetric(word)
            canon = canonical_form(word).word
            assert any(is_symmetric(rotate(canon, s)) for s in range(len(canon)))
