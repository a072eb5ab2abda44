"""Time-to-proof benchmark for circuitcodes (standard library only).

    python3 bench/run.py --workload general --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --quick                      # K(5,2), S(8,4), 200 words

Each pass of a workload runs in a fresh interpreter (``worker.py``) that
calls ``circuitcodes.cli.main`` in-process; passes repeat while another
one fits in ``--seconds``.  Every answer is checked against the golden
records in ``golden.json`` and, where a rule applies, the literature
value; corpus verdicts are checked against the set-based decider.

``--trace 0`` reports the end-to-end metrics (medians over passes):
wall_s, cpu_s (user+sys of the pass and its children), peak_rss_mib and
setup_s (a fresh interpreter importing the package and doing the first
table lookup, median of several).  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics, including the
tracing overhead.  Per-layer metrics of a layer a workload does not reach
read 0; the driver metrics (search.driver.*) exist only for ``parallel``,
whose traced run also times the single-worker search as the reference
t1 and checks that both node totals agree.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; failed / attempted is
the failed_ratio.  A human-readable report, stamped with the machine,
Python version, seed and commit, goes to stderr and to
``.bench_work/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_RUNS = 8  # before the passes, and again after them
RUN_LIMIT_S = 165  # a run must end within 180 s, set-up included

SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import circuitcodes
from circuitcodes.core import CodeParams
from circuitcodes.tables import lookup
t1 = time.perf_counter()
assert lookup(CodeParams(6, 3), "general").expected_length == 16
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.closures": "count",
    "search.closures_valid": "count",
    "search.closure_yield": "ratio",
    "search.witnesses_raw": "count",
    "search.driver.efficiency": "ratio",
    "search.driver.overhead_s": "s",
    "verify.calls": "count",
    "verify.busy_s": "s",
    "verify.us_per_call": "us",
    "verify.share": "ratio",
    "verify.audit_busy_s": "s",
    "core.as_word_calls": "count",
    "core.as_word_busy_s": "s",
    "canon.calls": "count",
    "canon.busy_s": "s",
    "canon.us_per_word": "us",
    "cli.self_s": "s",
    "tables.calls": "count",
    "tables.busy_s": "s",
    "tables.first_lookup_s": "s",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], stdin: str | None, timeout: float) -> tuple[int, str]:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def measure_setup(runs: int) -> dict[str, list[float]]:
    """Wall times of fresh interpreters importing the package and doing the
    first table lookup, with the import and lookup parts they report."""
    argv = [sys.executable, "-c", SETUP_SNIPPET]
    samples: dict[str, list[float]] = {
        "setup_s": [], "setup.import_s": [], "tables.first_lookup_s": []
    }
    for _ in range(runs):
        t0 = time.perf_counter()
        rc, out = _run_child(argv, None, 60)
        samples["setup_s"].append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}")
        a, b = out.split()
        samples["setup.import_s"].append(float(a))
        samples["tables.first_lookup_s"].append(float(b))
    return samples


def run_pass(job: dict, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    rc, out = _run_child([sys.executable, str(BENCH / "worker.py")], json.dumps(job), timeout)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}")
    return json.loads(out.splitlines()[-1])


def stamp(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


# -- one workload ----------------------------------------------------------


class Workload:
    """Inputs, expected answers and checks for one workload and seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.golden = wl.load_golden()
        if name == "quick":
            self.items = wl.QUICK_ITEMS
            size, sources = wl.QUICK_CORPUS_WORDS, wl.QUICK_CORPUS_SOURCES
        else:
            self.items = wl.WORKLOADS[name]
            size, sources = wl.CORPUS_WORDS.get(name, 0), wl.CORPUS_SOURCES
        self.words = wl.make_corpus(self.golden, sources, size, seed) if size else []
        # The oracle runs here, outside every timed region.
        self.verdicts, self.classes = wl.corpus_oracle(self.golden, self.words)
        self.audit_file = WORK / f"audit-{name}-seed{seed}.jsonl"
        if self.words:
            self.audit_file.write_text(wl.audit_lines(self.words, self.verdicts), encoding="utf-8")

    def job(self, trace: bool) -> dict:
        extras = []
        if trace and self.name == "parallel":
            extras = [wl.PARALLEL_REFERENCE]
        return {
            "trace": trace,
            "items": [[n, k, wl.SEARCHES[k] + x] for n, k, x in self.items],
            "extras": [[n, k, wl.SEARCHES[k] + x] for n, k, x in extras],
            "words": [[e["d"], e["k"], list(e["word"])] for e in self.words],
            "audit_file": str(self.audit_file),
            "spans_file": str(WORK / f"spans-{self.name}-seed{self.seed}.json") if trace else None,
        }

    def check(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every pass."""
        attempted = failed = 0
        problems: list[str] = []
        for p in passes:
            for item in p["items"] + p["extras"]:
                attempted += 1
                item_problems = wl.check_search_item(item, self.golden)
                if item_problems:
                    failed += 1
                    problems += item_problems
            if p["corpus"] is not None:
                attempted += len(self.words)
                f, why = wl.check_corpus(p["corpus"], self.verdicts, self.classes)
                failed += f
                problems += why
        if self.name == "parallel":
            problems += self._parallel_problems(passes)
        if problems and failed == 0:
            failed = 1
        return attempted, failed, problems

    @staticmethod
    def _parallel_problems(passes: list[dict]) -> list[str]:
        """The pool must really run (the in-process fallback leaves no child
        CPU time), and every 2-worker node total must equal the others and
        the single-worker reference, where the traced run measured it."""
        problems = []
        if any(p["children_cpu_s"] <= 0 for p in passes):
            problems.append("parallel: no child CPU time, so the pool did not run")
        totals = sorted(
            {i["record"]["nodes"] for p in passes for i in p["items"] + p["extras"] if i["record"]}
        )
        if len(totals) > 1:
            problems.append(f"parallel: node totals disagree: {totals}")
        return problems


def end_to_end(passes: list[dict], setup: dict) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": setup["setup_s"],
    }


def per_layer(untraced: dict, traced: dict, setup: dict) -> dict:
    tr = traced["trace"]
    busy, self_time, spans, counts = tr["busy"], tr["self"], tr["spans"], tr["counts"]
    wall = traced["wall_s"]
    nodes = sum(i["record"]["nodes"] for i in traced["items"] if i["record"])
    search_self = self_time.get("search", 0.0)
    closures = counts.get("search.check_spread", 0)
    valid = counts.get("search.check_spread.valid", 0)
    verify_calls = spans.get("verify", 0)
    verify_busy = busy.get("verify", 0.0)
    canon_calls = counts.get("search.canonical_form", 0) + counts.get("canon.classify", 0)
    canon_busy = busy.get("canon", 0.0)
    efficiency = overhead = 0.0
    if traced["extras"]:
        t1 = traced["extras"][0]["seconds"]
        t2 = traced["items"][0]["seconds"]
        efficiency, overhead = t1 / (2 * t2), t2 - t1 / 2
    return {
        "search.self_s": search_self,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / search_self if search_self else 0.0,
        "search.closures": closures,
        "search.closures_valid": valid,
        "search.closure_yield": valid / closures if closures else 0.0,
        "search.witnesses_raw": counts.get("search.canonical_form", 0),
        "search.driver.efficiency": efficiency,
        "search.driver.overhead_s": overhead,
        "verify.calls": verify_calls,
        "verify.busy_s": verify_busy,
        "verify.us_per_call": 1e6 * verify_busy / verify_calls if verify_calls else 0.0,
        "verify.share": verify_busy / wall,
        "verify.audit_busy_s": busy.get("verify.audit", 0.0),
        "core.as_word_calls": counts.get("verify.as_word", 0),
        "core.as_word_busy_s": busy.get("core", 0.0),
        "canon.calls": canon_calls,
        "canon.busy_s": canon_busy,
        "canon.us_per_word": 1e6 * canon_busy / canon_calls if canon_calls else 0.0,
        "cli.self_s": self_time.get("cli", 0.0),
        "tables.calls": counts.get("cli.lookup", 0),
        "tables.busy_s": busy.get("tables", 0.0),
        "tables.first_lookup_s": setup["tables.first_lookup_s"],
        "setup.import_s": setup["setup.import_s"],
        "trace.overhead_ratio": wall / untraced["wall_s"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = Workload(name, seed)
    try:
        # Set-up is sampled before and after the passes, so that a slow spell
        # on the machine moves fewer of the samples behind the median.
        measure_setup(1)  # warm the byte-code and page caches
        before = measure_setup(SETUP_RUNS)
        if trace:
            untraced = run_pass(workload.job(False), deadline)
            traced = run_pass(workload.job(True), deadline)
            passes = [untraced, traced]
        else:
            passes, spent = [], []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(workload.job(False), deadline))
                spent.append(time.monotonic() - t0)
                if time.monotonic() - start + max(spent) > seconds:
                    break
        after = measure_setup(SETUP_RUNS)
    finally:
        workload.audit_file.unlink(missing_ok=True)
    setup = {key: statistics.median(before[key] + after[key]) for key in before}
    metrics = per_layer(untraced, traced, setup) if trace else end_to_end(passes, setup)
    attempted, failed, problems = workload.check(passes)
    notes = []
    if trace and name == "parallel":
        notes.append(
            "kernel spans inside forked pool workers are not visible from outside: "
            "search.self_s includes waiting on the pool, and the closure, verify "
            "and canon numbers cover only the coordinator"
        )
    return {
        "workload": name,
        "trace": trace,
        "stamp": stamp(seed),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "notes": notes,
        "metrics": metrics,
    }


def report(result: dict) -> None:
    err = sys.stderr
    s = result["stamp"]
    print(
        f"== {result['workload']} trace={int(result['trace'])} seed={s['seed']} "
        f"passes={result['passes']} | {s['python']} | nproc={s['nproc']} | {s['cpu_model']} "
        f"| commit {s['commit']}",
        file=err,
    )
    for name, value in result["metrics"].items():
        print(f"  {name:26s} {value:>16.6g} {UNITS[name]}", file=err)
    print(
        f"  {'failed_ratio':26s} {result['failed_ratio']:>16.6g} ratio "
        f"({result['failed']}/{result['attempted']})",
        file=err,
    )
    for line in result["notes"]:
        print(f"  note: {line}", file=err)
    for line in result["problems"]:
        print(f"  FAILED: {line}", file=err)


def result_line(results: list[dict]) -> dict:
    single = len(results) == 1
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = name if single else f"{r['workload']}.{name}"
            metrics[key] = {"value": value, "unit": UNITS[name]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="K(5,2), S(8,4) and a 200-word corpus")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "circuitcodes" / "__init__.py").is_file():
        print(f"bench: no circuitcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    if args.quick:
        names = ["quick"]
    elif args.workload == "all":
        names = list(wl.WORKLOADS)
    else:
        names = [args.workload]
    results = []
    for name in names:
        seconds = 0.0 if name == "quick" else args.seconds  # one pass is enough for a smoke test
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        report(result)
        path = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        results.append(result)
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
