import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcodes import (
    CodeParams,
    MalformedSequenceError,
    Segment,
    as_word,
    cyclic_code_distance,
    delta,
    expand_vertices,
    format_sequence,
    hamming_distance,
    is_closed,
    parity_set,
    parse_sequence,
    rotate,
    segment_labels,
)


class TestParams:
    def test_valid(self):
        p = CodeParams(5, 2)
        assert (p.d, p.k) == (5, 2)

    # bool is an int subclass, but True is not a spread
    @pytest.mark.parametrize("d,k", [(1, 1), (65, 1), (4, 0), (4, -2), (4, True)])
    def test_invalid(self, d, k):
        with pytest.raises(ValueError):
            CodeParams(d, k)

    def test_dimension_cap_is_64(self):
        CodeParams(64, 1)
        with pytest.raises(ValueError):
            CodeParams(65, 1)


class TestParsing:
    def test_round_trip(self):
        assert parse_sequence("1,2,1,2") == (1, 2, 1, 2)
        assert format_sequence((1, 2, 1, 2)) == "1,2,1,2"

    def test_whitespace_tolerated(self):
        assert parse_sequence(" 1, 2 ,1,2 ") == (1, 2, 1, 2)

    def test_empty(self):
        assert parse_sequence("") == ()
        assert format_sequence(()) == ""

    @pytest.mark.parametrize("bad", ["0,1", "1,-2", "1,,2", "1,x", "1,2,99"])
    def test_rejects(self, bad):
        with pytest.raises(MalformedSequenceError):
            parse_sequence(bad, d=4)

    def test_error_reports_position(self):
        with pytest.raises(MalformedSequenceError, match="position 3"):
            parse_sequence("1,2,0,1", d=4)
        with pytest.raises(MalformedSequenceError, match="position 2"):
            parse_sequence("1,7", d=4)

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            w = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 25)))
            assert parse_sequence(format_sequence(w), d=9) == w

    def test_as_word_rejects_bool_and_floats(self):
        with pytest.raises(MalformedSequenceError):
            as_word([True, 2])
        with pytest.raises(MalformedSequenceError):
            as_word([1.0, 2])


class TestExpandVertices:
    def test_square(self):
        walk = expand_vertices((1, 2, 1, 2), d=2)
        assert walk == (frozenset(), {1}, {1, 2}, {2})

    def test_empty_is_origin_only(self):
        assert expand_vertices(()) == (frozenset(),)

    def test_hexagon(self):
        walk = expand_vertices((1, 2, 3, 1, 2, 3), d=3)
        assert walk == (frozenset(), {1}, {1, 2}, {1, 2, 3}, {2, 3}, {3})

    def test_label_out_of_range(self):
        with pytest.raises(MalformedSequenceError):
            expand_vertices((1, 3), d=2)

    def test_consecutive_vertices_differ_in_one_coordinate(self):
        rng = random.Random(11)
        for _ in range(100):
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 20)))
            walk = expand_vertices(w, d=5)
            for a, b in zip(walk, walk[1:]):
                assert len(a ^ b) == 1


class TestIsClosed:
    @pytest.mark.parametrize(
        "word,closed",
        [((1, 2, 1, 2), True), ((1, 2, 3), False), ((1, 2, 3, 1, 2, 3), True), ((), True)],
    )
    def test_examples(self, word, closed):
        assert is_closed(word) is closed

    def test_closed_iff_walk_returns_to_origin(self):
        rng = random.Random(3)
        for _ in range(300):
            w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 12)))
            walk = expand_vertices(w, d=4)
            final = walk[-1] ^ {w[-1]}
            assert is_closed(w) == (final == frozenset())


class TestDelta:
    def test_examples(self):
        assert delta((1, 2, 1)) == 1
        assert delta(()) == 0
        assert delta((3, 1, 4, 1, 5)) == 3

    def test_segment_wraps(self):
        # segment of length 3 starting at position 4 of (1,2,3,4): (4,1,2)
        assert segment_labels((1, 2, 3, 4), Segment(4, 3)) == (4, 1, 2)
        assert delta((1, 2, 3, 4), Segment(4, 3)) == 3
        assert delta((1, 2, 1, 2), Segment(3, 4)) == 0

    def test_empty_segment(self):
        assert delta((1, 2, 3), Segment(1, 0)) == 0

    def test_parity_congruence(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 14)
            w = tuple(rng.randint(1, 6) for _ in range(n))
            seg = Segment(rng.randint(1, n), rng.randint(0, n))
            assert delta(w, seg) % 2 == seg.length % 2

    def test_appending_a_label_steps_by_one(self):
        rng = random.Random(9)
        for _ in range(200):
            labels = [rng.randint(1, 8) for _ in range(rng.randint(1, 30))]
            prev = 0
            for i in range(1, len(labels) + 1):
                cur = delta(tuple(labels[:i]))
                assert abs(cur - prev) == 1
                prev = cur
            assert prev == len(parity_set(labels))

    def test_complement_symmetry_for_closed_words(self, rec_52):
        words = [w for w in rec_52.witnesses]
        words += [(1, 2, 1, 2), (1, 2, 3, 1, 2, 3), (1, 1, 2, 2)]
        for w in words:
            n = len(w)
            for start in range(1, n + 1):
                for length in range(0, n + 1):
                    comp = Segment((start - 1 + length) % n + 1, n - length)
                    assert delta(w, Segment(start, length)) == delta(w, comp)


class TestWalkDeltaIdentity:
    """Cube distance between two walk vertices equals the odd-count of the
    connecting segment."""

    @staticmethod
    def _check(word):
        walk = expand_vertices(word)
        n = len(word)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                seg = Segment(i, j - i)
                assert hamming_distance(walk[i - 1], walk[j - 1]) == delta(word, seg)

    @pytest.mark.parametrize("alphabet,max_len", [(3, 6), (4, 5)])
    def test_exhaustive_small(self, alphabet, max_len):
        stack = [()]
        while stack:
            w = stack.pop()
            self._check(w)
            if len(w) < max_len:
                stack.extend(w + (c,) for c in range(1, alphabet + 1))

    def test_random_full_range(self):
        # the exhaustive sweep above is capped for runtime; sample the rest
        # of the N <= 10, d <= 4 range densely with a fixed seed
        rng = random.Random(17)
        for _ in range(1500):
            n = rng.randint(6, 10)
            w = tuple(rng.randint(1, 4) for _ in range(n))
            self._check(w)

    @given(st.lists(st.integers(1, 4), max_size=10).map(tuple))
    @settings(deadline=None)
    def test_property(self, word):
        self._check(word)


class TestDistances:
    @pytest.mark.parametrize("i,j,n,want", [(1, 4, 8, 3), (1, 1, 8, 0), (2, 8, 8, 2)])
    def test_cyclic_examples(self, i, j, n, want):
        assert cyclic_code_distance(i, j, n) == want

    def test_cyclic_bounds(self):
        with pytest.raises(ValueError):
            cyclic_code_distance(0, 1, 8)
        with pytest.raises(ValueError):
            cyclic_code_distance(1, 9, 8)

    @pytest.mark.parametrize(
        "u,v,want",
        [({1}, {1}, 0), (frozenset(), {1, 2, 3}, 3), ({1, 2}, {2, 3}, 2)],
    )
    def test_hamming_examples(self, u, v, want):
        assert hamming_distance(u, v) == want


class TestParitySet:
    def test_size_congruent_to_consumed(self):
        rng = random.Random(23)
        for _ in range(300):
            labels = [rng.randint(1, 7) for _ in range(rng.randint(0, 20))]
            assert len(parity_set(labels)) % 2 == len(labels) % 2

    def test_vertex_is_parity_of_prefix(self):
        w = (1, 2, 1, 3, 1, 2, 1, 3)
        walk = expand_vertices(w)
        for i in range(len(w)):
            assert walk[i] == parity_set(w[:i])


class TestRotate:
    def test_examples(self):
        assert rotate((1, 2, 3), 1) == (2, 3, 1)
        assert rotate((1, 2, 3), 0) == (1, 2, 3)
        assert rotate((1, 2, 3), 5) == (3, 1, 2)
        assert rotate((), 3) == ()
