"""Workload definitions, the seeded corpus, its oracle, and the answer checks.

Nothing here is timed.  The checks are pure functions of a pass result
and the golden data, so the self-tests can feed them tampered inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Search instances, fixed by (d, k, mode); the key names the golden record.
SEARCHES = {
    "K5.2": ["search", "--d", "5", "--k", "2"],
    "K6.3": ["search", "--d", "6", "--k", "3"],
    "K7.4": ["search", "--d", "7", "--k", "4"],
    "K8.5": ["search", "--d", "8", "--k", "5"],
    "K7.3": ["search", "--d", "7", "--k", "3"],
    "S8.4": ["search", "--d", "8", "--k", "4", "--symmetric"],
    "S9.5": ["search", "--d", "9", "--k", "5", "--symmetric"],
    "S11.6": ["search", "--d", "11", "--k", "6", "--symmetric"],
    "S12.7": ["search", "--d", "12", "--k", "7", "--symmetric"],
    "S13.8": ["search", "--d", "13", "--k", "8", "--symmetric"],
    "F8.4.3": ["search", "--d", "8", "--k", "4", "--family-l", "3"],
}

PARALLEL_ARGS = ["--threads", "2"]

# Each workload is a list of (item name, golden key, extra CLI args).
WORKLOADS = {
    "general": [(key, key, []) for key in ("K6.3", "K7.4", "K8.5", "K7.3")],
    "symmetric": [
        (key, key, []) for key in ("S8.4", "S9.5", "S11.6", "S12.7", "S13.8", "F8.4.3")
    ],
    "parallel": [("K7.3x2", "K7.3", PARALLEL_ARGS)],
    "corpus": [],
}
CORPUS_WORDS = {"corpus": 10000}

QUICK_ITEMS = [("K5.2", "K5.2", []), ("S8.4", "S8.4", [])]
QUICK_CORPUS_WORDS = 200

# The traced run of `parallel` also times the single-worker search, so the
# search driver's efficiency t1 / (2 * t2) comes from one run.
PARALLEL_REFERENCE = ("K7.3", "K7.3", [])

# Corpus words are derived from the golden witnesses of these instances.
CORPUS_SOURCES = (
    "K6.3", "K7.4", "K8.5", "K7.3", "S8.4", "S9.5", "S11.6", "S12.7", "S13.8", "F8.4.3",
)
QUICK_CORPUS_SOURCES = ("K5.2", "S8.4")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def params_of(key: str) -> tuple[int, int]:
    argv = SEARCHES[key]
    return int(argv[argv.index("--d") + 1]), int(argv[argv.index("--k") + 1])


# -- corpus ---------------------------------------------------------------


def make_corpus(golden: dict, sources: tuple[str, ...], size: int, seed: int) -> list[dict]:
    """Seeded words: rotated, relabeled, optionally reversed golden witnesses.

    About half also get one random transposition of two positions, which
    keeps the word closed but usually breaks the spread requirement.
    """
    rng = random.Random(seed)
    words = []
    for _ in range(size):
        key = rng.choice(sources)
        d, k = params_of(key)
        index = rng.randrange(len(golden[key]["witnesses"]))
        w = tuple(golden[key]["witnesses"][index])
        n = len(w)
        shift = rng.randrange(n)
        w = w[shift:] + w[:shift]
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        w = tuple(perm[c - 1] for c in w)
        reversed_ = rng.random() < 0.5
        if reversed_:
            w = w[::-1]
        transposed = rng.random() < 0.5
        if transposed:
            i, j = rng.sample(range(n), 2)
            lst = list(w)
            lst[i], lst[j] = lst[j], lst[i]
            w = tuple(lst)
        words.append(
            {
                "d": d,
                "k": k,
                "word": w,
                "source": (key, index),
                "reversed": reversed_,
                "transposed": transposed,
            }
        )
    return words


def _relabel(word: tuple[int, ...]) -> tuple[int, ...]:
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(c, len(mapping) + 1) for c in word)


def canon_oracle(word: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest first-occurrence relabeling over all rotations, by definition."""
    return min(_relabel(word[s:] + word[:s]) for s in range(len(word)))


def corpus_oracle(golden: dict, words: list[dict]) -> tuple[list[bool], Counter]:
    """Expected verdicts (from the set-based decider) and expected classes.

    An untransposed word keeps its source's class: rotation and relabeling
    do not change it, and a reversed word has the class of its reversed
    source.  A transposition that leaves a valid code gets its class from
    the definition.
    """
    from circuitcodes.core import CodeParams
    from circuitcodes.verify import brute_force_check

    verdicts = []
    classes: Counter = Counter()
    reversed_class: dict[tuple[str, int], tuple[int, ...]] = {}
    for entry in words:
        valid = brute_force_check(entry["word"], CodeParams(entry["d"], entry["k"])) is None
        verdicts.append(valid)
        if not valid:
            continue
        key, index = entry["source"]
        source = tuple(golden[key]["witnesses"][index])
        if entry["transposed"]:
            cls = canon_oracle(entry["word"])
        elif entry["reversed"]:
            if (key, index) not in reversed_class:
                reversed_class[(key, index)] = canon_oracle(source[::-1])
            cls = reversed_class[(key, index)]
        else:
            cls = source
        classes[cls] += 1
    return verdicts, classes


def audit_lines(words: list[dict], verdicts: list[bool]) -> str:
    """JSONL records of the valid words, as `circuitcodes audit` reads them."""
    return "".join(
        json.dumps({"d": e["d"], "k": e["k"], "transitions": list(e["word"])}) + "\n"
        for e, ok in zip(words, verdicts)
        if ok
    )


# -- checks ------------------------------------------------------------------


def check_search_item(result: dict, golden: dict) -> list[str]:
    """Problems with one search answer; empty when it is right.

    The golden record fixes n, exhaustiveness and the sorted canonical
    witness classes.  Where a literature rule applies, the CLI must also
    print a MATCH line for the expected length.  Node counts are not golden.
    """
    name = result["name"]
    gold = golden[result["key"]]
    problems = []
    if result["rc"] != 0:
        problems.append(f"{name}: exit code {result['rc']}")
    record = result.get("record")
    if record is None:
        return problems + [f"{name}: no JSON record in the output"]
    if not record.get("exhaustive"):
        problems.append(f"{name}: record is not exhaustive")
    if record.get("n") != gold["n"]:
        problems.append(f"{name}: n={record.get('n')}, golden n={gold['n']}")
    if record.get("witnesses") != gold["witnesses"]:
        problems.append(f"{name}: witness classes differ from golden")
    lines = result.get("lines", [])
    if any(line.startswith("MISMATCH") for line in lines):
        problems.append(f"{name}: table MISMATCH")
    literature = gold.get("literature")
    if literature is not None:
        if record.get("n") != literature:
            problems.append(f"{name}: n={record.get('n')}, literature value {literature}")
        if not any(line.startswith(f"MATCH n={literature} ") for line in lines):
            problems.append(f"{name}: no MATCH line for the literature value {literature}")
    return problems


def check_corpus(result: dict, verdicts: list[bool], classes: Counter) -> tuple[int, list[str]]:
    """Count the corpus words answered wrongly; also return the reasons.

    A word with a wrong verdict usually also lands in a wrong class, so the
    larger of the two counts is taken; a failed audit adds its FAIL lines.
    """
    got = result["verdicts"]
    if len(got) != len(verdicts):
        return len(verdicts), [f"corpus: {len(got)} verdicts for {len(verdicts)} words"]
    problems = []
    wrong = sum(1 for a, b in zip(got, verdicts) if a != b)
    if wrong:
        problems.append(f"corpus: {wrong} wrong verdicts")
    got_classes = Counter({tuple(w): c for w, c in result["classes"]})
    misclassified = sum(max(0, classes[c] - got_classes[c]) for c in classes)
    misclassified += max(0, sum(got_classes.values()) - sum(classes.values()))
    if misclassified:
        problems.append(f"corpus: {misclassified} words outside their expected class")
    failed = max(wrong, misclassified)
    if result["audit_rc"] != 0:
        failed += max(1, result["audit_fail_lines"])
        problems.append(
            f"corpus: audit exited {result['audit_rc']} "
            f"with {result['audit_fail_lines']} FAIL lines"
        )
    return min(failed, len(verdicts)), problems
