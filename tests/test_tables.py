import pytest

from circuitcodes import CodeParams
from circuitcodes.tables import lookup

# Every row that applies for d <= 20, k <= 19 and l in 2..11:
# (mode, d, k[, l]) -> (length, unique).
HITS = {
    ("general", 3, 1): (8, True),
    ("general", 5, 2): (14, False),
    ("general", 6, 3): (16, True),
    ("general", 8, 4): (22, False),
    ("symmetric", 8, 4): (22, True),
    ("family", 8, 4, 3): (22, True),
    ("general", 9, 5): (24, True),
    ("family", 9, 5, 2): (24, True),
    ("general", 11, 6): (30, False),
    ("symmetric", 11, 6): (30, True),
    ("family", 11, 6, 3): (30, True),
    ("general", 12, 7): (32, True),
    ("family", 12, 7, 2): (32, True),
    ("general", 14, 8): (38, False),
    ("symmetric", 14, 8): (38, True),
    ("family", 14, 8, 3): (38, True),
    ("family", 15, 8, 5): (42, False),
    ("general", 15, 9): (40, True),
    ("family", 15, 9, 2): (40, True),
    ("general", 16, 9): (44, False),
    ("family", 16, 9, 4): (44, False),
    ("general", 17, 10): (46, False),
    ("symmetric", 17, 10): (46, True),
    ("family", 17, 10, 3): (46, True),
    ("family", 18, 10, 5): (50, False),
    ("general", 18, 11): (48, True),
    ("family", 18, 11, 2): (48, True),
    ("general", 19, 11): (52, False),
    ("family", 19, 11, 4): (52, False),
    ("general", 20, 12): (54, False),
    ("symmetric", 20, 12): (54, True),
    ("family", 20, 12, 3): (54, True),
}


def _grid():
    for d in range(2, 21):
        for k in range(1, 20):
            yield ("general", d, k)
            yield ("symmetric", d, k)
            for l in range(2, 12):
                yield ("family", d, k, l)


def _lookup(key):
    mode, d, k, *l = key
    return lookup(CodeParams(d, k), mode, *l)


@pytest.mark.parametrize("key", sorted(HITS), ids=str)
def test_pinned_hit(key):
    known = _lookup(key)
    assert known is not None
    assert (known.expected_length, known.unique) == HITS[key]


def test_no_other_point_of_the_grid_hits():
    hits = {key for key in _grid() if _lookup(key) is not None}
    assert hits == set(HITS)


def test_family_needs_l():
    assert lookup(CodeParams(8, 4), "family") is None
    assert lookup(CodeParams(8, 4), "family", 3) is not None


def test_labels_state_their_rows():
    assert lookup(CodeParams(9, 5), "general").label == (
        "K(d,k) = 4k+4 for k odd with 2d = 3k+3; unique code up to isomorphism"
    )
    assert lookup(CodeParams(14, 8), "symmetric").label == (
        "maximum symmetric length 4k+6 for k even >= 4 with 2d = 3k+4; "
        "unique code up to isomorphism"
    )
    assert lookup(CodeParams(15, 8), "family", 5).label == (
        "S(d,k,k+l) = 4k+2l for opposite parities, k >= 2l+1 (k odd) or "
        "k >= 2l-2 (k even), with 2d = 3k+l+1; unique code for l in {2,3}"
    )
