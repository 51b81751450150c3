"""arcform benchmark: run one workload for one seed.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run it from the root of an arcform checkout; it imports the program from
``src/`` there and writes only under ``.bench_work/`` there.  It builds
the workload's inputs from the seed, times cold starts of the CLI, then
runs the ops in a worker interpreter (``worker.py``) through
``arcform.cli.main`` and checks every output.  The last line of stdout
is one JSON object: the end-to-end metrics untraced, or the per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import gen
import spans
import speed

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
SETUP_STARTS = 21
DEADLINE_S = 170  # a run must end within 180 s
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it


def setup_times(env: dict, starts: int) -> list:
    """Wall times of fresh interpreters running ``python -m arcform --version``,
    each scaled to the nominal host (``speed.py``)."""
    cmd = [sys.executable, "-m", "arcform", "--version"]
    # one untimed start first writes the bytecode caches an install would have
    subprocess.run(cmd, env=env, capture_output=True, check=True)
    times = []
    before = speed.reference_s()
    for _ in range(starts):
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True)
        wall = perf_counter() - start
        after = speed.reference_s()
        times.append(speed.scaled(wall, (before + after) / 2))
        before = after
        if proc.returncode != 0 or not proc.stdout.startswith(b"arcform "):
            raise RuntimeError(f"arcform --version failed: {proc.stderr.decode()}")
    return times


def run_worker(work: Path, ops: list, seconds: int, traced: bool,
               trace_file: Path, env: dict, timeout: float) -> dict:
    manifest = {"ops": ops, "seconds": seconds, "trace": traced,
                "trace_file": str(trace_file)}
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "manifest.json", "results.json"],
        cwd=work, env=env, capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr.decode()}")
    return json.loads((work / "results.json").read_text(encoding="utf-8"))


def gate_digests(workload: str, digests: dict, record: bool) -> set:
    """Byte-identical gate on the default seed: keys whose output changed.

    Only ops that succeeded when the digests were recorded are gated, so
    fixing the known defect does not trip the gate.
    """
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    if record:
        stored[workload] = {k: d for k, d in sorted(digests.items())
                            if d.startswith("exit 0 ")}
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        return set()
    expected = stored.get(workload, {})
    return {k for k, d in expected.items() if digests.get(k) != d}


def report_failures(ops: list, records: list) -> Counter:
    reasons = Counter((ops[i]["key"], reason) for i, _, _, _, reason in records if reason)
    for (key, reason), n in sorted(reasons.items()):
        print(f"failed: {key} x{n}: {reason}", file=sys.stderr)
    return reasons


def end_to_end(args, ops, records, results, setup) -> dict:
    untraced = [r for r in records if not r[1]]
    raw = [r[2] for r in untraced]
    # every op time scaled to the nominal host by the reference's mean
    # time during the op (speed.py)
    refs = [ref for ref in results["refs"] if ref is not None]
    walls = [speed.scaled(r[2], ref) for r, ref in zip(untraced, refs)]
    # throughput of one pass over the ops that succeeded, each at the
    # median of its repeats.  A failed op stops part-way at a point its
    # input decides, so neither its time nor its notes count.
    repeats, failed_inputs = {}, set()
    for (i, _, _, _, reason), wall in zip(untraced, walls):
        repeats.setdefault(i, []).append(wall)
        if reason:
            failed_inputs.add(i)
    ok = [i for i in repeats if i not in failed_inputs]
    if not ok:
        raise RuntimeError("every op failed")
    pass_s = sum(statistics.median(repeats[i]) for i in ok)
    notes = sum(ops[i]["notes"] for i in ok)
    n_failed = sum(1 for r in untraced if r[4])
    known = sum(1 for r in untraced if r[4] and r[4].startswith(checks.KNOWN_DEFECT))
    host_speed = speed.NOMINAL_S / statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "notes_per_s": (notes / pass_s, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (results["peak_rss_kb"] / 1024, "MB"),
    }
    print(f"{args.workload}, seed {args.seed}: {len(walls)} ops in "
          f"{results['passes']} passes over {len(ops)} inputs")
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s  (median of {len(setup)} starts)")
    print(f"notes_per_s  {metrics['notes_per_s'][0]:.1f} 1/s  ({notes} notes / {pass_s:.2f} s, "
          f"one pass of the {len(ok)} ok inputs, each op at its median)")
    print(f"op_p50_s     {metrics['op_p50_s'][0]:.4f} s  ({len(walls)} ops; unscaled "
          f"{statistics.median(raw):.4f} s, host at {host_speed:.2f}x nominal)")
    if len(walls) >= P90_MIN_OPS:
        p90 = statistics.quantiles(walls, n=10)[8]
        print(f"op_p90_s     {p90:.4f} s  ({len(walls)} ops)")
    else:
        print(f"op_p90_s     n/a  ({len(walls)} ops, needs {P90_MIN_OPS})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB  (worker process)")
    print(f"fail_frac    {n_failed / len(walls):.4f}  ({n_failed} of {len(walls)} ops; "
          f"{known} from the known ROADMAP item 3 defect)")
    return metrics


def per_layer(args, records, results) -> dict:
    layers = dict(results["layers"])
    problems = spans.check_layers(args.workload, layers)
    totals = results["op_self_totals"]
    for r, (_, traced, wall, _, _) in enumerate(records):
        if traced and abs(totals.get(str(r), 0.0) - wall) > max(1e-3, 0.02 * wall):
            problems.append(f"op {r}: span self times sum to {totals.get(str(r), 0.0):.6f} s, "
                            f"op wall time is {wall:.6f} s")
    if problems:
        raise RuntimeError("traced run:\n  " + "\n  ".join(problems[:20]))
    plain = sum(r[2] for r in records if not r[1])
    traced = sum(r[2] for r in records if r[1])
    layers["trace.overhead_frac"] = 1 - plain / traced
    metrics = {}
    for name, value in layers.items():
        unit = ("s" if name.endswith("_s") else "ratio" if name.endswith(("_ratio", "_frac"))
                else "bytes" if name.endswith("bytes_out") else "count")
        metrics[name] = (value, unit)
        print(f"{name:36s} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests as the byte-identical "
                             f"gate (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    began = perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "arcform" / "__init__.py").is_file():
        print("error: no src/arcform here; run from the root of an arcform checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: --record-digests needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    base = os.environ.get("PYTHONPATH")
    src_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), base])))
    worker_env = dict(src_env, PYTHONPATH=os.pathsep.join([str(BENCH), src_env["PYTHONPATH"]]))
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        files, ops = gen.build(args.workload, args.seed)
        for rel, data in files.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        # half the starts before the ops and half after, so that setup_s
        # samples the machine across the whole run
        setup = [] if args.trace else setup_times(src_env, SETUP_STARTS // 2 + 1)
        results = run_worker(work, ops, args.seconds, bool(args.trace),
                             work_root / f"trace-{args.workload}-{args.seed}.jsonl",
                             worker_env, DEADLINE_S - (perf_counter() - began))
        if not args.trace:
            setup += setup_times(src_env, SETUP_STARTS // 2)
        records = results["records"]
        if args.seed == DEFAULT_SEED:
            changed = gate_digests(args.workload, results["digests"], args.record_digests)
            for r in records:
                if ops[r[0]]["key"] in changed and not r[4]:
                    r[4] = "output bytes differ from the stored digest"
        reasons = report_failures(ops, records)
        metrics = (per_layer(args, records, results) if args.trace
                   else end_to_end(args, ops, records, results, setup))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(reason.startswith(checks.KNOWN_DEFECT) for _, reason in reasons)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[4]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
