"""Runs one workload's ops in-process through ``arcform.cli.main``.

Started by ``run.py`` as its own interpreter, in the directory holding
the generated inputs, so that its peak RSS is the workload's alone.

    python3 worker.py MANIFEST RESULTS

MANIFEST holds the ops, the seconds to measure and whether to trace.
An untraced op runs under ``speed.Sampler``, which times a reference
computation every few milliseconds during the op, so that its wall time
can be scaled to a nominal host; the samples' own time is subtracted.
The worker runs whole passes over the ops until the next pass would end
past the deadline (at least one pass).  Traced, each op runs untraced
and then traced, back to back, so the two sets of times can be compared.
Every op's output is hashed; the first output of each op is checked
against what was planted, and every later one must repeat it byte for
byte.  RESULTS receives per-op records, digests and the traced metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import arcform.cli

import checks
import spans
import speed

OUT = "op.out"


def run_op(op: dict, sampler=contextlib.nullcontext()):
    """Time one CLI call; return (seconds, exit code, output bytes, stderr)."""
    if os.path.exists(OUT):
        os.remove(OUT)
    argv = op["args"] + ["--out", OUT]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        with sampler:
            try:
                code = arcform.cli.main(argv)
            except SystemExit as exc:  # argparse exits on its own
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed op, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
        wall = perf_counter() - start
    out = None
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            out = fh.read()
    return wall, code, out, err.getvalue()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops, seconds, traced = manifest["ops"], manifest["seconds"], manifest["trace"]
    tracer = spans.Tracer() if traced else None
    records = []  # [op index, traced, seconds, exit code, failure or None]
    digests = {}  # op key -> exit code and SHA-256 of its output
    failures = {}  # op key -> reason its first output failed the check
    refs = []  # reference's mean time during records[r], None if traced
    sampler = speed.Sampler()

    def measure(i: int, op: dict, with_trace: bool) -> None:
        if with_trace:
            tracer.op = len(records)
            tracer.install()
        try:
            if with_trace:
                wall, code, out, stderr = run_op(op)
            else:
                wall, code, out, stderr = run_op(op, sampler)
                wall -= sampler.spent_s()
        finally:
            if with_trace:
                tracer.uninstall()
        sha = hashlib.sha256(out).hexdigest() if out is not None else "-"
        digest = f"exit {code} sha256 {sha}"
        key = op["key"]
        if key not in digests:
            digests[key] = digest
            failures[key] = checks.check(op, code, out, stderr)
            if failures[key] and checks.known_defect(op, code, stderr):
                failures[key] = f"{checks.KNOWN_DEFECT}: {failures[key]}"
        reason = failures[key]
        if digest != digests[key]:
            reason = "output differs from an earlier run of the same op"
        records.append([i, with_trace, wall, code, reason])
        refs.append(None if with_trace else sampler.reference_s())

    start = perf_counter()
    passes = 0
    while True:
        for i, op in enumerate(ops):
            measure(i, op, False)
            if traced:
                measure(i, op, True)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break

    result = {"records": records, "refs": refs, "digests": digests, "passes": passes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if traced:
        result["layers"] = tracer.metrics(passes)
        result["op_self_totals"] = tracer.op_self_totals()
        tracer.dump(manifest["trace_file"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
