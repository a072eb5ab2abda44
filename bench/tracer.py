"""Spans around the package's public functions, wrapped from outside.

Each wrapped name is replaced where its caller looks it up (for example
``circuitcodes.search.check_spread``, not ``circuitcodes.verify``'s own
binding), so only calls made through that caller are timed.  Spans are
(name, start, end, parent) rows kept in memory and written at the end.
A layer's self time is its span's duration minus its child spans.

Spans inside forked pool workers are recorded in the worker's copy of
this tracer and are lost with it: from outside, the parallel search
driver shows as one ``search`` span that mostly waits.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        row = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def wrap(self, module, attr: str, layer: str, site: str | None = None, count=None) -> None:
        """Replace ``module.attr`` with a traced version.

        ``site`` names a counter of calls at this boundary, ``site.valid``
        counts calls that returned None (a passing verdict), and ``count``
        maps the call's arguments to the amount of work it carries.
        Missing attributes are skipped, so the tracer outlives renames.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        site = site or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            self.counts[site] += count(args) if count else 1
            if result is None:
                self.counts[site + ".valid"] += 1
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def install(self) -> None:
        import circuitcodes.canon as canon
        import circuitcodes.cli as cli
        import circuitcodes.search as search
        import circuitcodes.verify as verify

        for name in ("max_length", "symmetric_max", "family_symmetric_max"):
            self.wrap(cli, name, "search")
        self.wrap(cli, "lookup", "tables")
        self.wrap(search, "check_spread", "verify")
        self.wrap(search, "bit_runs", "verify")
        self.wrap(search, "canonical_form", "canon")
        self.wrap(verify, "check_spread", "verify")
        self.wrap(verify, "as_word", "core")
        self.wrap(canon, "classify", "canon", count=lambda args: len(args[0]))
        for name in (
            "audit_delta_inequalities",
            "check_window_bitrun_property",
            "normalize_to_bitrun_form",
            "bit_runs",
        ):
            self.wrap(cli, name, "verify.audit", site="cli.audit")
        self.wrap(cli, "main", "cli")

    # -- derived numbers ---------------------------------------------------

    def layer_times(self, limit: int) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per layer over the first ``limit`` spans: busy time of outermost
        spans, self time, span count."""
        spans = self.spans[:limit]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        busy: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[idx]
            if parent < 0 or spans[parent][0] != name:
                busy[name] += end - start
        return dict(busy), dict(self_time), calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
