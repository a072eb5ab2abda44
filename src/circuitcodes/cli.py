"""Command-line surface.

Subcommands: ``verify``, ``search``, ``enumerate``, ``canon``, ``audit``.
Results go to stdout, diagnostics to stderr.  Exit codes are a total
function of the outcome category:

    0  success (valid input, exhaustive search, decision answered, audits pass)
    1  malformed input or invalid flag combination
    2  spread violation
    3  truncated search / incomplete enumeration, including a search
       whose ``--max-length`` is below 2^d (longer codes were not searched)
    4  internal-consistency or audit failure, or an exhaustive search
       that disagrees with the known-values table (MISMATCH)
    141  stdout was closed early, e.g. by ``| head -1`` (128 + SIGPIPE,
         what a shell reports for a tool stopped by SIGPIPE)

``main`` is the one place that decides them.  A subcommand returns the
code of an outcome it reports itself (a violation, a truncated search,
a failed audit) or raises; ``main`` maps the raised error to its code
and prints it as ``<subcommand>: <message>``.

Search results serialize as one JSON object per line, which ``audit``
reads back one witness at a time.  When the searched
(d, k, mode) falls inside a family with a published exact value, the
result is compared against the known-values table and a MATCH or
MISMATCH line is printed (only for exhaustive runs).  The line carries
the number of witness classes up to rotation, relabeling and reversal;
where the table says the code is unique, more than one class is a
MISMATCH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .canon import canonical_form, leading_runs
from .core import (
    CodeParams,
    MalformedSequenceError,
    Word,
    as_word,
    delta,
    format_sequence,
    is_closed,
    parse_sequence,
    segment_labels,
)
from .search import (
    IncompleteEnumerationError,
    SearchOptions,
    SearchRecord,
    enumerate_max,
    family_symmetric_max,
    max_length,
    symmetric_max,
)
from .tables import lookup
from .verify import (
    InapplicableError,
    InternalConsistencyError,
    _require_cycle,
    _word_facts,
    audit_delta_inequalities,
    check_spread,
    check_window_bitrun_property,
    is_symmetric,
    normalize_to_bitrun_form,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_TRUNCATED = 3
EXIT_INCONSISTENT = 4
EXIT_BROKEN_PIPE = 141


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _report(args, exc: Exception, code: int) -> int:
    """Print a raised outcome as ``<subcommand>: <message>``; returns code."""
    _err(f"{args.command}: {exc}")
    return code


def _read_sequence(args) -> Word:
    if args.seq is not None:
        text = args.seq
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_sequence(text, args.d)


def _cmd_verify(args) -> int:
    params = CodeParams(args.d, args.k)
    word = _read_sequence(args)
    report = check_spread(word, params)
    if report is not None:
        print(report.to_line())
        return EXIT_VIOLATION
    sym = "yes" if is_symmetric(word) else "no"
    print(f"valid n={len(word)} longest_bit_run={max(leading_runs(word))} symmetric={sym}")
    return EXIT_OK


def _search_options(args, target: int | None = None) -> SearchOptions:
    return SearchOptions(
        target=target,
        max_length=args.max_length,
        node_budget=args.node_budget,
        time_limit=args.time_limit,
        workers=args.threads,
    )


def _run_search_command(args) -> SearchRecord:
    params = CodeParams(args.d, args.k)
    options = _search_options(args, args.target)
    if args.family_l is not None:
        return family_symmetric_max(params, args.family_l, options)
    if args.symmetric:
        return symmetric_max(params, options)
    return max_length(params, options)


def _mode_of(args) -> tuple[str, int | None]:
    if args.family_l is not None:
        return "family", args.family_l
    if args.symmetric:
        return "symmetric", None
    return "general", None


def _cmd_search(args) -> int:
    record = _run_search_command(args)
    line = json.dumps(record.to_json_obj(), separators=(",", ":"))
    print(line)
    if args.out:
        try:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise OSError(f"cannot append to {args.out}: {exc}") from exc
    if record.exhaustive:
        known = lookup(record.params, record.mode, record.l)
        if known is not None:
            classes = len(
                {canonical_form(w, include_reversal=True).word for w in record.witnesses}
            )
            problem = None
            if record.n != known.expected_length:
                problem = "its length disagrees with the known-values table"
            elif known.unique and classes != 1:
                problem = f"{classes} classes where the known-values table has one"
            verdict = "MISMATCH" if problem else "MATCH"
            print(
                f"{verdict} n={record.n} expected={known.expected_length} "
                f"classes={classes} ({known.label})"
            )
            if problem:
                _err(f"search: exhaustive result: {problem}")
                return EXIT_INCONSISTENT
    if record.stop_reason in ("complete", "target"):
        if args.target is not None:
            reached = "yes" if record.n >= args.target else "no"
            print(f"target={args.target} reached={reached}")
        return EXIT_OK
    _err(f"search: truncated ({record.stop_reason}); result is not exhaustive")
    return EXIT_TRUNCATED


def _cmd_enumerate(args) -> int:
    params = CodeParams(args.d, args.k)
    mode, l = _mode_of(args)
    classes = enumerate_max(params, _search_options(args), mode=mode, l=l)
    for cls in classes:
        print(f"{format_sequence(cls.representative.word)} {cls.count}")
    return EXIT_OK


def _cmd_canon(args) -> int:
    word = parse_sequence(args.seq, args.d)
    form = canonical_form(word, include_reversal=args.with_reversal)
    print(f"canonical: {format_sequence(form.word)}")
    print(f"shift: {form.shift}")
    print(f"reversed: {'yes' if form.reversal_used else 'no'}")
    relabel = ", ".join(f"{old}->{new}" for old, new in form.relabeling)
    print(f"relabeling: {relabel}")
    return EXIT_OK


def _audit_one(idx: int, params: CodeParams, word: Word) -> bool:
    """Run all applicable audits on one record; True iff everything passed.

    The header and the three audits read one validation, run table and
    packed int: ``verify`` keeps the facts of the last word it was given.
    """
    sym = "yes" if is_symmetric(word) else "no"
    runs = _word_facts(word, params.d).runs
    print(
        f"record {idx}: d={params.d} k={params.k} n={len(word)} "
        f"symmetric={sym} longest_bit_run={max(runs)}"
    )
    ok = True
    try:
        offenders = audit_delta_inequalities(word, params)
        if offenders:
            seg = offenders[0]
            labels = format_sequence(segment_labels(word, seg))
            print(
                f"record {idx}: delta_inequalities FAIL "
                f"segment_start={seg.start} segment_len={seg.length} "
                f"labels={labels} delta={delta(word, seg)} "
                f"({len(offenders)} offending segments)"
            )
            ok = False
        else:
            print(f"record {idx}: delta_inequalities ok")
    except InapplicableError as exc:
        print(f"record {idx}: delta_inequalities skipped ({exc})")
    try:
        window = check_window_bitrun_property(word, params)
        if window is not None:
            labels = format_sequence(segment_labels(word, window))
            print(
                f"record {idx}: window_bitrun FAIL "
                f"segment_start={window.start} segment_len={window.length} labels={labels}"
            )
            ok = False
        else:
            print(f"record {idx}: window_bitrun ok")
    except InapplicableError as exc:
        print(f"record {idx}: window_bitrun skipped ({exc})")
    try:
        norm = normalize_to_bitrun_form(word, params)
        print(
            f"record {idx}: bitrun_normal_form ok link={norm.link} "
            f"tail={format_sequence(norm.tail)}"
        )
    except InapplicableError as exc:
        print(f"record {idx}: bitrun_normal_form skipped ({exc})")
    except InternalConsistencyError as exc:
        print(f"record {idx}: bitrun_normal_form FAIL ({exc})")
        ok = False
    return ok


def _audit_words(line: str, d: int | None, k: int | None) -> tuple[CodeParams, list[Word]]:
    """The parameters and words of one ``audit`` input line.

    A search record yields its ``witnesses``, any other object its
    ``transitions``; ``d`` and ``k`` default to the flags, ``n`` (when
    present) must match every word, and all other keys are ignored.
    Raises ValueError on anything the audits could not take.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise MalformedSequenceError("record is not a JSON object")
    d, k = obj.get("d", d), obj.get("k", k)
    if d is None or k is None:
        raise MalformedSequenceError("record lacks d/k and no --d/--k defaults were given")
    params = CodeParams(d, k)
    raw = obj["witnesses"] if "witnesses" in obj else [obj.get("transitions")]
    if not isinstance(raw, list) or not all(isinstance(w, list) for w in raw):
        raise MalformedSequenceError("record needs a list of transitions or of witnesses")
    words = [as_word(w, params.d) for w in raw]
    n = obj.get("n")
    for word in words:
        if n is not None and n != len(word):
            raise MalformedSequenceError(f"record claims n={n} but has {len(word)} transitions")
        _require_cycle(len(word), is_closed(word))
    return params, words


def _cmd_audit(args) -> int:
    records: list[tuple[CodeParams, Word]] = []
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            params, words = _audit_words(line, args.d, args.k)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        records += ((params, word) for word in words)
    results = [_audit_one(idx, *record) for idx, record in enumerate(records, start=1)]
    return EXIT_OK if all(results) else EXIT_INCONSISTENT


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True, help="hypercube dimension")
    p.add_argument("--k", type=int, required=True, help="spread")
    p.add_argument("--symmetric", action="store_true", help="restrict to symmetric codes")
    p.add_argument(
        "--family-l",
        type=int,
        default=None,
        metavar="L",
        help="restrict to symmetric codes containing a bit run >= k+L (implies --symmetric)",
    )
    p.add_argument("--threads", type=int, default=1, help="worker count")
    p.add_argument("--time-limit", type=float, default=None, metavar="S", help="seconds before truncating")
    p.add_argument("--node-budget", type=int, default=None, help="max nodes before truncating")
    p.add_argument("--max-length", type=int, default=None, help="bound on code length (default 2^d); below 2^d the run is not exhaustive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuitcodes",
        description="Verify, canonicalize and exhaustively search hypercube circuit codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the spread requirement for one sequence")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq", help='comma-separated transition sequence, e.g. "1,2,1,2"')
    g.add_argument("--file", help="file containing one such sequence")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="maximum code length for (d, k)")
    _add_search_flags(p)
    p.add_argument("--target", type=int, default=None, help="decision mode: stop at length >= N")
    p.add_argument("--out", default=None, help="append the result record to this JSONL file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("enumerate", help="isomorphism classes of all maximum codes")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("canon", help="canonical form of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--with-reversal", action="store_true")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("audit", help="run structural audits over stored code records")
    p.add_argument("--file", required=True, help="JSONL file of search records (search --out) or code records")
    p.add_argument("--d", type=int, default=None, help="default dimension for records lacking one")
    p.add_argument("--k", type=int, default=None, help="default spread for records lacking one")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        # the exit-code table of raised outcomes
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise  # an OSError, but not an input error: see below
        except IncompleteEnumerationError as exc:
            code = _report(args, exc, EXIT_TRUNCATED)
        except InternalConsistencyError as exc:
            code = _report(args, exc, EXIT_INCONSISTENT)
        except (ValueError, OSError) as exc:
            code = _report(args, exc, EXIT_INPUT)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
