"""One pass of a workload in a fresh interpreter.

Reads a job (JSON) from stdin, runs it through ``circuitcodes.cli.main``
and prints one JSON result line.  A fresh process per pass means every
pass pays the package's lazy set-up (ball tables, the known-values file)
as a CLI user does, and its peak RSS belongs to that pass alone.

    python3 bench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _search_item(cli, name: str, key: str, argv: list[str]) -> dict:
    t0 = time.perf_counter()
    rc, text = _run_cli(cli, argv)
    seconds = time.perf_counter() - t0
    lines = text.splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[0])
        except json.JSONDecodeError:
            record = None
    return {
        "name": name, "key": key, "rc": rc, "record": record, "lines": lines[1:], "seconds": seconds
    }


def _corpus(cli, words: list[list], audit_file: str) -> dict:
    import circuitcodes.canon as canon
    import circuitcodes.verify as verify
    from circuitcodes.core import CodeParams

    params = {}
    verdicts = []
    valid = []
    for d, k, word in words:
        p = params.get((d, k))
        if p is None:
            p = params[(d, k)] = CodeParams(d, k)
        ok = verify.check_spread(word, p) is None
        verdicts.append(ok)
        if ok:
            valid.append(word)
    classes = canon.classify(valid)
    rc, text = _run_cli(cli, ["audit", "--file", audit_file])
    return {
        "verdicts": verdicts,
        "classes": [[list(c.representative.word), c.count] for c in classes],
        "audit_rc": rc,
        "audit_fail_lines": sum(1 for line in text.splitlines() if " FAIL" in line),
    }


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def run_job(job: dict) -> dict:
    import circuitcodes
    from circuitcodes import cli

    if not Path(circuitcodes.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"circuitcodes imported from {circuitcodes.__file__}, outside {ROOT}")
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    words = [(d, k, tuple(w)) for d, k, w in job.get("words", [])]

    gc.collect()
    cpu0, kids0 = _cpu()
    t0 = time.perf_counter()
    items = [_search_item(cli, *item) for item in job["items"]]
    corpus = _corpus(cli, words, job["audit_file"]) if words else None
    wall = time.perf_counter() - t0
    cpu1, kids1 = _cpu()
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer:
        measured = (len(tracer.spans), dict(tracer.counts))
    # Extra items run after the measured part; the trace uses them for
    # reference timings that the workload itself does not include.
    extras = [_search_item(cli, *item) for item in job.get("extras", [])]
    result = {
        "wall_s": wall,
        "cpu_s": (cpu1 - cpu0) + (kids1 - kids0),
        "children_cpu_s": kids1 - kids0,
        "peak_rss_mib": kib / 1024.0,
        "items": items,
        "extras": extras,
        "corpus": corpus,
    }
    if tracer:
        tracer.unwrap()
        busy, self_time, calls = tracer.layer_times(measured[0])
        result["trace"] = {
            "busy": busy,
            "self": self_time,
            "spans": dict(calls),
            "counts": measured[1],
        }
        if job.get("spans_file"):
            tracer.write(job["spans_file"])
    return result


def main() -> None:
    job = json.load(sys.stdin)
    print(json.dumps(run_job(job)))


if __name__ == "__main__":
    main()
