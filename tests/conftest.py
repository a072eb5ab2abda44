import pytest

from circuitcodes import CodeParams, family_symmetric_max, max_length, symmetric_max


@pytest.fixture(scope="session")
def rec_31():
    return max_length(CodeParams(3, 1))


@pytest.fixture(scope="session")
def rec_52():
    return max_length(CodeParams(5, 2))


@pytest.fixture(scope="session")
def rec_63():
    return max_length(CodeParams(6, 3))


@pytest.fixture(scope="session")
def rec_84_sym():
    return symmetric_max(CodeParams(8, 4))


@pytest.fixture(scope="session")
def rec_116_sym():
    return symmetric_max(CodeParams(11, 6))


@pytest.fixture(scope="session")
def rec_843_fam():
    return family_symmetric_max(CodeParams(8, 4), 3)


def closed_words(d: int, max_len: int):
    """Every closed word over labels 1..d with 2 <= length <= max_len.

    Depth-first with a parity-feasibility cut: a prefix whose parity set
    cannot cancel within the remaining steps has no closed completion.
    This is definitional (closed words only), not spread pruning.
    """
    out = []
    word = []

    def rec(v: int, imbalance: int):
        t = len(word)
        if v == 0 and t >= 2:
            out.append(tuple(word))
        if t == max_len:
            return
        rem = max_len - t
        for c in range(1, d + 1):
            bit = 1 << (c - 1)
            w = v ^ bit
            ni = imbalance + (1 if w > v else -1)
            if ni > rem - 1:
                continue
            word.append(c)
            rec(w, ni)
            word.pop()

    rec(0, 0)
    return out
