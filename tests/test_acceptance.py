"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each test ends by printing a PASS line (visible with ``pytest -s``); a
failing criterion fails its test.  Heavier searches are timed against
the stated runtime budgets.
"""

import itertools
import json
import random
import time

import pytest

from circuitcodes import (
    CodeParams,
    SearchOptions,
    StructuralError,
    audit_delta_inequalities,
    bit_runs,
    brute_force_check,
    canonical_form,
    check_spread,
    check_window_bitrun_property,
    enumerate_max,
    family_symmetric_max,
    in_family,
    lookup,
    max_length,
    normalize_to_bitrun_form,
    rotate,
    symmetric_max,
)
from circuitcodes.cli import main as cli_main
from oracles import (
    all_valid_codes,
    canonical_form_bruteforce,
    enumerate_codes_bruteforce,
)

from conftest import closed_words


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def _verdict(checker, word, params):
    try:
        return "valid" if checker(word, params) is None else "violation"
    except StructuralError:
        return "structural"


def test_criterion_01_oracle_equivalence():
    """check_spread and brute_force_check agree on every closed sequence
    with N <= 10 over labels 1..4, for k in 1..4, within a minute."""
    t0 = time.perf_counter()
    words = closed_words(4, 10)
    # the enumeration itself is verified against the closed-walk count
    # on the 4-cube: sum over even n <= 10 of (1/16) * sum_j C(4,j)*(4-2j)^n
    assert len(words) == 140_492
    params_by_k = {k: CodeParams(4, k) for k in (1, 2, 3, 4)}
    checked = 0
    for w in words:
        for k, params in params_by_k.items():
            assert _verdict(check_spread, w, params) == _verdict(
                brute_force_check, w, params
            ), (w, k)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert checked == 4 * len(words)
    _report(1, f"{checked} verdict pairs over {len(words)} closed words agree "
               f"({elapsed:.1f}s)")


def test_criterion_02_k_3_1(rec_31):
    t0 = time.perf_counter()
    rec = max_length(CodeParams(3, 1))
    elapsed = time.perf_counter() - t0
    assert rec.n == 8
    assert rec.exhaustive
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    assert rec.witnesses == rec_31.witnesses
    _report(2, f"K(3,1) = 8, exhaustive, {elapsed * 1000:.0f}ms")


def test_criterion_03_k_5_2():
    t0 = time.perf_counter()
    rec = max_length(CodeParams(5, 2), SearchOptions(workers=1))
    elapsed = time.perf_counter() - t0
    assert rec.n == 14 == 4 * 2 + 6
    assert rec.exhaustive
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    known = lookup(CodeParams(5, 2), "general")
    assert known is not None and known.expected_length == 14
    _report(3, f"K(5,2) = 14 = 4k+6, exhaustive single-worker, {elapsed:.2f}s")


def test_criterion_04_k_6_3_and_uniqueness():
    t0 = time.perf_counter()
    rec = max_length(CodeParams(6, 3))
    classes = enumerate_max(CodeParams(6, 3))
    elapsed = time.perf_counter() - t0
    assert rec.n == 16 == 4 * 3 + 4
    assert rec.exhaustive
    assert len(classes) == 1
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    known = lookup(CodeParams(6, 3), "general")
    assert known is not None and known.expected_length == 16 and known.unique
    _report(4, f"K(6,3) = 16 = 4k+4 with exactly 1 isomorphism class, {elapsed:.2f}s")


def test_criterion_05_symmetric_8_4(rec_84_sym):
    params = CodeParams(8, 4)
    t0 = time.perf_counter()
    rec_w1 = symmetric_max(params, SearchOptions(workers=1))
    rec_w2 = symmetric_max(params, SearchOptions(workers=2))
    classes = enumerate_max(params, mode="symmetric")
    elapsed = time.perf_counter() - t0
    assert rec_w1.n == 22 == 4 * 4 + 6
    assert rec_w1.exhaustive
    assert len(classes) == 1
    # witness set identical across worker counts
    assert rec_w1.witnesses == rec_w2.witnesses == rec_84_sym.witnesses
    assert rec_w1.nodes == rec_w2.nodes
    unique = rec_w1.witnesses[0]
    assert bit_runs(unique).longest >= 7
    form = normalize_to_bitrun_form(unique, params)  # tail audit runs inside
    assert form.head_run == (1, 2, 3, 4, 5, 6)
    assert elapsed < 1800.0, f"took {elapsed:.1f}s"
    _report(
        5,
        f"symmetric max (8,4) = 22 = 4k+6, 1 class, bit run "
        f"{bit_runs(unique).longest} >= 7, tail audit ok, worker-count "
        f"invariant, {elapsed:.2f}s",
    )


def test_criterion_05_symmetric_11_6(capsys):
    """S(11,6) = 30 = 4k+6, the k = 6 instance of the symmetric theorem
    (k even, 2d = 3k+4), proved by exhaustion: one class."""
    t0 = time.perf_counter()
    code = cli_main(["search", "--d", "11", "--k", "6", "--symmetric"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    record = json.loads(lines[0])
    assert record["n"] == 30 == 4 * 6 + 6 and record["exhaustive"] is True
    assert record["stop_reason"] == "complete"
    assert len(record["witnesses"]) == 1
    assert check_spread(tuple(record["witnesses"][0]), CodeParams(11, 6)) is None
    assert lines[1].startswith("MATCH n=30 expected=30 classes=1 ")
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("5-S(11,6)", f"symmetric max (11,6) = 30 = 4k+6, exhaustive, 1 class, "
                         f"MATCH, {elapsed:.1f}s")


def test_criterion_05_symmetric_14_8(capsys):
    """S(14,8) = 38 = 4k+6, the k = 8 instance of the symmetric theorem
    (k even, 2d = 3k+4), proved by exhaustion: one class."""
    t0 = time.perf_counter()
    code = cli_main(["search", "--d", "14", "--k", "8", "--symmetric"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    record = json.loads(lines[0])
    assert record["n"] == 38 == 4 * 8 + 6 and record["exhaustive"] is True
    assert record["stop_reason"] == "complete"
    assert len(record["witnesses"]) == 1
    assert check_spread(tuple(record["witnesses"][0]), CodeParams(14, 8)) is None
    assert lines[1].startswith("MATCH n=38 expected=38 classes=1 ")
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report("5-S(14,8)", f"symmetric max (14,8) = 38 = 4k+6, exhaustive, 1 class, "
                         f"MATCH, {record['nodes']} nodes, {elapsed:.1f}s")


def test_criterion_06_family_8_4_3():
    params = CodeParams(8, 4)
    rec = family_symmetric_max(params, 3)
    classes = enumerate_max(params, mode="family", l=3)
    assert rec.n == 22 == 4 * 4 + 2 * 3
    assert rec.exhaustive
    assert len(classes) == 1
    assert in_family(rec.witnesses[0], params, 3)
    known = lookup(params, "family", 3)
    assert known is not None and known.expected_length == 22 and known.unique
    _report(6, "family max (8,4,l=3) = 22 = 4k+2l with exactly 1 class")


@pytest.mark.parametrize("d,k,l", [(9, 5, 2), (11, 6, 3), (12, 7, 2)])
def test_criterion_06_family_rows(capsys, d, k, l):
    """S(d,k,k+l) = 4k+2l with one class, for the rows of the family table
    (opposite parities, 2d = 3k+l+1, l in {2, 3}) within a few seconds."""
    t0 = time.perf_counter()
    code = cli_main(["search", "--d", str(d), "--k", str(k), "--family-l", str(l)])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    record = json.loads(lines[0])
    n = 4 * k + 2 * l
    assert record["n"] == n and record["exhaustive"] is True
    assert len(record["witnesses"]) == 1
    assert in_family(tuple(record["witnesses"][0]), CodeParams(d, k), l)
    assert lines[1].startswith(f"MATCH n={n} expected={n} classes=1 ")
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(f"6-F({d},{k},{l})", f"family max = {n} = 4k+2l, exhaustive, 1 class, "
                                 f"MATCH, {elapsed:.2f}s")


def test_criterion_07_audits_over_enumerated_maxima(rec_31, rec_52, rec_63, rec_84_sym):
    cases = [
        (rec_31, CodeParams(3, 1)),
        (rec_52, CodeParams(5, 2)),
        (rec_63, CodeParams(6, 3)),
        (rec_84_sym, CodeParams(8, 4)),
    ]
    audited = 0
    for rec, params in cases:
        assert rec.witnesses
        for w in rec.witnesses:
            for s in range(len(w)):
                rotated = rotate(w, s)
                assert audit_delta_inequalities(rotated, params) == ()
                assert check_window_bitrun_property(rotated, params) is None
                audited += 1
    _report(7, f"{audited} rotated maximum codes pass both structural audits")


def test_criterion_08_canonicalization_properties():
    rng = random.Random(2024)
    cases = 0
    for _ in range(10_000):
        d = rng.randint(2, 10)
        n = rng.randint(1, 30)
        word = tuple(rng.randint(1, d) for _ in range(n))
        canon = canonical_form(word).word
        # the run-filtered scan returns the full scan's form, transform included
        assert canonical_form(word) == canonical_form_bruteforce(word)
        assert canonical_form(canon).word == canon
        assert canonical_form(rotate(word, rng.randrange(n))).word == canon
        labels = list(range(1, d + 1))
        rng.shuffle(labels)
        perm = dict(zip(range(1, d + 1), labels))
        assert canonical_form(tuple(perm[c] for c in word)).word == canon
        cases += 1
    assert cases == 10_000

    # exhaustive at N <= 8: all words over 4 labels, plus every
    # first-occurrence word (each word with more labels is a relabeling
    # of one of those, and relabel invariance is established above)
    exhaustive = 0
    for n in range(0, 9):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            canon = canonical_form(w).word
            assert canonical_form(canon).word == canon
            for s in range(1, n):
                assert canonical_form(rotate(w, s)).word == canon
            exhaustive += 1

    def first_occurrence_words(max_len):
        def rec(prefix, used):
            yield prefix
            if len(prefix) < max_len:
                for c in range(1, min(used + 1, max_len) + 1):
                    yield from rec(prefix + (c,), max(used, c))

        yield from rec((), 0)

    # every word above is a relabeling of one of these, so comparing them
    # with the full rotation scan covers the exhaustive part too
    fo = 0
    for w in first_occurrence_words(8):
        canon = canonical_form(w).word
        assert canon == canonical_form_bruteforce(w).word
        assert canonical_form(canon).word == canon
        for s in range(1, len(w)):
            assert canonical_form(rotate(w, s)).word == canon
        fo += 1
    _report(
        8,
        f"10000 randomized cases (N<=30, d<=10) plus {exhaustive} + {fo} "
        f"exhaustive words at N<=8, all equal to the full rotation scan",
    )


def test_criterion_09_pruning_completeness():
    total = 0
    for d, k in itertools.product((2, 3, 4), (1, 2, 3)):
        params = CodeParams(d, k)
        brute = enumerate_codes_bruteforce(params, 12)
        pruned = all_valid_codes(params, 12)
        bf_classes = {(len(w), canonical_form(w).word) for w in brute}
        pruned_classes = {(len(w), canonical_form(w).word) for w in pruned}
        assert bf_classes == pruned_classes, (d, k)
        # symmetry-breaking safety: the canonical form of every brute-force
        # code lies verbatim in the searched space
        pruned_set = set(pruned)
        for w in brute:
            assert canonical_form(w).word in pruned_set
        total += len(bf_classes)
    _report(9, f"pruned search reproduces every brute-force class at toy scale "
               f"({total} class comparisons)")


def test_criterion_09_k_8_4_has_three_classes(capsys):
    """K(8,4) = 22 = 4k+6 (k even, 2d = 3k+4), proved by exhaustion.  The
    symmetric maximum is unique (criterion 5); the general one is not."""
    t0 = time.perf_counter()
    code = cli_main(["search", "--d", "8", "--k", "4"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    record = json.loads(lines[0])
    assert record["n"] == 22 and record["exhaustive"] is True
    assert record["stop_reason"] == "complete"
    assert len(record["witnesses"]) == 3
    for w in record["witnesses"]:
        assert check_spread(tuple(w), CodeParams(8, 4)) is None
    assert lines[1].startswith("MATCH n=22 expected=22")
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("9-K(8,4)", f"K(8,4) = 22, exhaustive, 3 classes, MATCH, {elapsed:.1f}s")


def test_criterion_10_out_of_reach_scale_is_honest(capsys):
    # the k odd >= 9, 2d = 3k+5 family is table data, never searched to
    # completion on a desk: a budgeted attempt must admit truncation
    known = lookup(CodeParams(16, 9), "general")
    assert known is not None and known.expected_length == 4 * 9 + 8
    code = cli_main(["search", "--d", "16", "--k", "9", "--node-budget", "2500"])
    captured = capsys.readouterr()
    assert code == 3
    record = json.loads(captured.out.splitlines()[0])
    assert record["exhaustive"] is False
    assert "MATCH" not in captured.out and "MISMATCH" not in captured.out
    _report(10, "search at (16,9) reports truncation (exit 3), table carries 4k+8")


def test_criterion_10_stretch_symmetric_9_5():
    """Stretch target (non-blocking by its statement, but it reproduces
    quickly here): the symmetric maximum at (9,5) hits the family formula
    with l=2 and the general upper bound 4k+4."""
    rec = symmetric_max(CodeParams(9, 5))
    assert rec.n == 24 == 4 * 5 + 2 * 2 == 4 * 5 + 4
    assert rec.exhaustive
    _report("10-stretch", f"symmetric max (9,5) = 24, exhaustive, "
                          f"{rec.nodes} nodes, {rec.seconds:.2f}s")
