"""Spans around arcform's public functions, installed from outside.

Each wrapper replaces a function at the name its caller looks up (the
CLI calls ``load_piece`` through ``arcform.cli``, ``climax_profile``
calls ``salience_curve`` through ``arcform.climax``, and so on) and
records ``[name, start, end, parent, op, count]``.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from time import perf_counter
from typing import Dict, List, Optional

NAME, START, END, PARENT, OP, COUNT = range(6)


def _events(args, piece):
    return sum(len(p.events) for p in piece.parts)


def _query_and_matches(args, series):
    return (len(args[1].events), len(series.matches))


# (module, attribute, span name, work counter taken from (args, result))
TARGETS = (
    ("arcform.cli", "main", "cli.main", lambda a, code: code),
    ("arcform.cli", "load_piece", "cli.load_piece", None),
    ("arcform.cli", "parse_text", "score.parse_text", _events),
    ("arcform.cli", "import_midi", "score.import_midi", _events),
    ("arcform.cli", "skyline", "score.skyline", lambda a, part: len(part.events)),
    ("arcform.recurrence", "skyline", "score.skyline", lambda a, part: len(part.events)),
    ("arcform.cli", "climax_profile", "climax.climax_profile", None),
    ("arcform.climax", "salience_curve", "climax.salience_curve", lambda a, curve: len(curve)),
    ("arcform.climax", "locate_climax", "climax.locate_climax", None),
    ("arcform.cli", "find_recurrences", "recurrence.find_recurrences", _query_and_matches),
    ("arcform.cli", "parse_form", "grammar.parse_form", None),
    ("arcform.cli", "recognize", "grammar.recognize", None),
    ("arcform.cli", "build_report", "report.build_report", None),
    ("arcform.cli", "render_json", "report.render_json", lambda a, text: len(text)),
    ("arcform.cli", "curve_csv", "report.curve_csv", lambda a, text: len(text)),
)
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))

# spans each workload must record, and spans it is the no-change control for
EXPECTED = {
    "corpus": {"cli.main", "cli.load_piece", "score.parse_text", "score.import_midi",
               "climax.climax_profile", "climax.salience_curve", "climax.locate_climax"},
    "recur": {"cli.main", "cli.load_piece", "score.parse_text", "score.skyline",
              "recurrence.find_recurrences", "report.build_report", "report.render_json"},
    "analyze_long": {"cli.main", "cli.load_piece", "score.parse_text", "score.import_midi",
                     "climax.climax_profile", "climax.salience_curve",
                     "climax.locate_climax", "grammar.parse_form", "grammar.recognize",
                     "report.build_report", "report.render_json"},
}
_NOT_RECUR = {"score.skyline", "recurrence.find_recurrences"}
FORBIDDEN = {
    "corpus": _NOT_RECUR,
    "recur": {"climax.climax_profile", "climax.salience_curve", "climax.locate_climax"},
    "analyze_long": _NOT_RECUR,
}

COUNTERS = ("score.events_in", "score.skyline.notes_out", "climax.grid_points",
            "recurrence.windows", "recurrence.matches", "recurrence.match_ratio",
            "report.bytes_out", "cli.exit_nonzero")


class Tracer:
    """Installs the wrappers and keeps every span of a run."""

    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def self_times(self) -> List[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def op_self_totals(self) -> Dict[int, float]:
        """Sum of self times per op; equals the op's root span duration."""
        totals: Dict[int, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            totals[s[OP]] = totals.get(s[OP], 0.0) + self_s
        return totals

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer totals over one pass of the workload's inputs."""
        out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("self_s", "calls")}
        out.update({c: 0.0 for c in COUNTERS})
        for s, self_s in zip(self.spans, self.self_times()):
            name, count = s[NAME], s[COUNT]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            if count is None:
                continue
            if name in ("score.parse_text", "score.import_midi"):
                out["score.events_in"] += count
            elif name == "score.skyline":
                out["score.skyline.notes_out"] += count
                parent = self.spans[s[PARENT]] if s[PARENT] is not None else None
                if parent and parent[NAME] == "recurrence.find_recurrences" \
                        and parent[COUNT] is not None:
                    out["recurrence.windows"] += windows_tried(count, parent[COUNT][0])
            elif name == "climax.salience_curve":
                out["climax.grid_points"] += count
            elif name == "recurrence.find_recurrences":
                out["recurrence.matches"] += count[1]
            elif name in ("report.render_json", "report.curve_csv"):
                out["report.bytes_out"] += count
            elif name == "cli.main":
                out["cli.exit_nonzero"] += count != 0
        out = {k: v / passes for k, v in out.items()}
        windows = out["recurrence.windows"]
        out["recurrence.match_ratio"] = out["recurrence.matches"] / windows if windows else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def windows_tried(line_notes: int, query_notes: int) -> int:
    """Windows ``find_recurrences`` slides over one skyline of that length:
    every start for each window length from n/2 to 1.5n notes."""
    lo = max(2, query_notes // 2)
    hi = math.ceil(3 * query_notes / 2)
    return sum(line_notes - k + 1 for k in range(lo, min(hi, line_notes) + 1))


def check_layers(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Problems with which layers a traced run reached (empty when fine)."""
    problems = [f"span {n} recorded no calls on {workload}"
                for n in sorted(EXPECTED[workload]) if not metrics[f"{n}.calls"]]
    problems += [f"span {n} recorded calls on {workload}, which must not reach it"
                 for n in sorted(FORBIDDEN[workload]) if metrics[f"{n}.calls"]]
    return problems
