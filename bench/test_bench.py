"""Self-tests of the benchmark's generator and output checks.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from arcform import cli  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.build(workload, 5) == gen.build(workload, 5)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seeds_differ_but_share_the_size_distribution(workload):
    files_a, ops_a = gen.build(workload, 5)
    files_b, ops_b = gen.build(workload, 6)
    assert len(files_a) == len(files_b)
    assert not set(files_a.values()) & set(files_b.values())
    assert [op["key"] for op in ops_a] == [op["key"] for op in ops_b]
    # the same slot holds a piece of about the same size under both seeds
    for a, b in zip(sizes(ops_a), sizes(ops_b)):
        assert 0.6 < a / b < 1.6, (a, b)


def sizes(ops):
    """Notes per op slot; per well-formed piece, in size order, for corpus."""
    if ops[0]["args"][0] == "corpus":
        return sorted(p["notes"] for op in ops for p in op["expect"]["pieces"])
    return [op["notes"] for op in ops]


def run(tmp_path, workload, pick):
    """Generate a workload, run the op ``pick`` chooses, return it and its output."""
    files, ops = gen.build(workload, 3)
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    op = pick(ops)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = cli.main(op["args"] + ["--out", "out"])
    finally:
        os.chdir(cwd)
    assert code == 0
    out = (tmp_path / "out").read_bytes()
    return op, out


def test_perturbed_corpus_output_fails_the_check(tmp_path, capsys):
    op, out = run(tmp_path, "corpus", lambda ops: next(o for o in ops if not o["expect"]["highbit"]))
    stderr = capsys.readouterr().err
    assert checks.check(op, 0, out, stderr) is None
    lines = out.decode().splitlines()
    name, total, pos, asym, pre = lines[1].split(",")
    moved = f"{name},{total},{1 - float(pos):.6f},{-float(asym):.6f},{pre}"
    bad = "\n".join([lines[0], moved] + lines[2:]) + "\n"
    assert checks.check(op, 0, bad.encode(), stderr) is not None
    dropped = "\n".join(lines[:1] + lines[2:]) + "\n"
    assert checks.check(op, 0, dropped.encode(), stderr) is not None


def test_perturbed_recur_report_fails_the_check(tmp_path):
    op, out = run(tmp_path, "recur", lambda ops: min(ops, key=lambda o: o["notes"]))
    assert checks.check(op, 0, out, "") is None
    report = json.loads(out)
    exact = next(m for m in report["recurrence"]["matches"] if m["similarity"] == 1.0)
    exact["start"] = str(Fraction(exact["start"]) + 1)
    assert "wrong output" in checks.check(op, 0, json.dumps(report).encode(), "")


def test_perturbed_analyze_report_fails_the_check(tmp_path):
    op, out = run(tmp_path, "analyze_long", lambda ops: min(ops, key=lambda o: o["notes"]))
    assert checks.check(op, 0, out, "") is None
    report = json.loads(out)
    report["climax"]["peak_time"] = "0"
    assert "wrong output" in checks.check(op, 0, json.dumps(report).encode(), "")
    report = json.loads(out)
    report["form"]["minimal_steps"] = 7
    assert "wrong output" in checks.check(op, 0, json.dumps(report).encode(), "")


def test_scaling_cancels_host_speed():
    # the reference raises if its result is not its checksum
    assert speed.reference_s() > 0
    nominal = speed.NOMINAL_S
    assert speed.scaled(0.5, nominal) == 0.5
    # a host at half speed doubles both the call and the reference
    assert speed.scaled(1.0, 2 * nominal) == 0.5


def test_sampler_samples_during_the_call():
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    # one sample per interval, give or take, and one on exit
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent_s() < 10 * speed.INTERVAL_S
