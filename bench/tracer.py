"""Outside-in span tracer for the positroids layers.

The tracer wraps the library's public functions at every module binding
site, so each call into a layer becomes a span with a name, start, end,
parent span and request id.  A span's self time is its duration minus the
time its child spans cover, so the self times of all spans add up to the
duration of the top-level spans.  Spans stay in memory until `write_spans`.

The library's source is never touched: the benchmark installs the wrappers
in a traced run only and `uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import time
from array import array

# Span group of each traced function, by the module that defines it.  Helpers
# that are not listed (Subset arithmetic, _gale_key, argparse handlers, ...)
# are charged to the traced function that called them.
TRACED = {
    "positroids.core": {
        "parse_perm": "core.parse",
        "parse_necklace": "core.parse",
        "parse_bases": "core.parse",
        "format_perm": "core.format",
        "format_necklace": "core.format",
        "format_bases": "core.format",
        "necklace_of": "core.necklace_of",
        "perm_of": "core.perm_of",
        "validate_necklace": "core.validate_necklace",
        "bases_of": "core.bases_of",
    },
    "positroids.minors": {
        "contract": "minors.contract",
        "restrict": "minors.restrict",
        "contract_necklace": "minors.contract_necklace",
        "restrict_necklace": "minors.restrict_necklace",
        "contraction_swap": "minors.swap",
        "restriction_swap": "minors.swap",
        "trace_minor": "minors.trace_minor",
        "classify_square": "minors.classify_square",
        "render_trace": "minors.render_trace",
    },
    "positroids.oracle": {
        "_verify_instance": "oracle.verify_instance",
        "_check_squares": "oracle.check_squares",
        "oracle_necklace": "oracle.oracle_necklace",
        "oracle_contract": "oracle.oracle_minor",
        "oracle_delete": "oracle.oracle_minor",
        "is_positroid": "oracle.is_positroid",
        "check_matroid": "oracle.check_matroid",
        "verify_all": "oracle.verify_all",
    },
    "positroids.cli": {"run": "cli.run"},
}

BINDING_SITES = ("positroids.core", "positroids.minors", "positroids.oracle", "positroids.cli", "positroids")

GROUPS = tuple(sorted({group for funcs in TRACED.values() for group in funcs.values()}))

SPAN_COLUMNS = ("span", "parent", "request", "name", "start_s", "end_s")


class Tracer:
    """Spans and per-group self time for calls into the traced functions."""

    def __init__(self):
        self.request = 0
        self.calls = [0] * len(GROUPS)
        self.self_s = [0.0] * len(GROUPS)
        self.top_s = 0.0
        self.bases_inputs: set = set()
        self.names: list[str] = []
        self._span = array("q")
        self._parent = array("q")
        self._request = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []
        self._next_id = 0
        self._wrappers = {}
        self._patched: list[tuple] = []
        for module_name, funcs in TRACED.items():
            module = importlib.import_module(module_name)
            for attr, group in funcs.items():
                original = getattr(module, attr, None)
                if original is not None:
                    self._wrappers[original] = self._wrap(original, f"{module_name[len('positroids.'):]}.{attr}", group)

    def _wrap(self, fn, name, group):
        name_id = len(self.names)
        self.names.append(name)
        g = GROUPS.index(group)
        note_necklace = group == "core.bases_of"
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans, parents, requests, names = self._span, self._parent, self._request, self._name
        starts, ends = self._start, self._end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[g] += duration - frame[1]
                calls[g] += 1
                if stack:
                    stack[-1][1] += duration
                    parents.append(stack[-1][0])
                else:
                    tracer.top_s += duration
                    parents.append(-1)
                spans.append(span_id)
                requests.append(tracer.request)
                names.append(name_id)
                starts.append(start)
                ends.append(end)
                if note_necklace:
                    tracer.bases_inputs.add(tuple(e.mask for e in args[0].entries))

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function with its wrapper."""
        for site_name in BINDING_SITES:
            site = importlib.import_module(site_name)
            for attr, value in list(vars(site).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(site, attr, wrapper)
                    self._patched.append((site, attr, value))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Self time and call count per group, as plain data."""
        return {
            "self_s": dict(zip(GROUPS, self.self_s)),
            "calls": dict(zip(GROUPS, self.calls)),
            "top_s": self.top_s,
            "bases_distinct": len(self.bases_inputs),
            "spans": len(self._span),
        }

    def write_spans(self, path) -> None:
        """Write every recorded span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("\t".join(SPAN_COLUMNS) + "\n")
            names = self.names
            for row in zip(self._span, self._parent, self._request, self._name, self._start, self._end):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]:.9f}\t{row[5]:.9f}\n")
