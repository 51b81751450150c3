#!/usr/bin/env python3
"""Mutation probe: make one small change to a module at a time and see
whether a chosen set of tests notices it.

Usage:
    python3 scripts/mutants.py MODULE [--only NAME,...] [-- PYTEST_ARGS...]

MODULE is a path under src/, such as src/arcform/score.py. --only limits
the mutants to the named top-level functions, classes and assigned
constants. The pytest arguments choose the tests (default: tests/).

Each mutant changes one thing: a comparison flipped (< and <=, > and
>=, == and !=, in and not in, is and is not), a + or - swapped (also
in +=, -=), an `and` or `or` swapped, or an int constant plus 1. It
is written with `ast.unparse` into a temporary copy of the checkout
(without .git and the caches), never into the checkout itself, and the
tests run there with -x, one mutant at a time, with hypothesis's shrink
phase off. The unmutated module, unparsed the same way, must pass first;
each mutant's tests then get TIMEOUT_FACTOR times that run's time, and
at least MIN_TIMEOUT seconds, and at most MEMORY_LIMIT bytes of address
space, so that a mutant that loops while it grows a list ends early with
a MemoryError. A mutant that fails a test, times out or fails to import
is killed. Each mutant is printed with its line, change and outcome.
Only the standard library is used, besides pytest in the subprocess.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the tests of one mutant may take this many times the unmutated run's
# time, and at least MIN_TIMEOUT seconds, before it counts as killed
TIMEOUT_FACTOR = 10
MIN_TIMEOUT = 30.0
# the address space each test run may take
MEMORY_LIMIT = 1 << 30

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


def _names(stmt: ast.stmt) -> set[str]:
    """The names that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _chosen(tree: ast.Module, only: set[str] | None) -> list[ast.stmt]:
    """The top-level statements whose nodes may be mutated."""
    if only is None:
        return list(tree.body)
    chosen = [stmt for stmt in tree.body if _names(stmt) & only]
    missing = only.difference(*map(_names, chosen))
    if missing:
        sys.exit(f"not found at the top level: {', '.join(sorted(missing))}")
    return chosen


def _sites(tree: ast.Module, only: set[str] | None) -> list[tuple]:
    """Every (node, slot, description) that one mutant can change, in
    a fixed order, so that a fresh parse finds the same sites."""
    sites = []
    for stmt in _chosen(tree, only):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    new = FLIPS[type(op)]
                    sites.append((node, i, f"{type(op).__name__} -> "
                                           f"{new.__name__}"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                    and type(node.op) in SWAPS:
                sites.append((node, "op", f"{type(node.op).__name__} -> "
                                          f"{SWAPS[type(node.op)].__name__}"))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                sites.append((node, "value",
                              f"{node.value} -> {node.value + 1}"))
    return sites


def mutant_source(source: str, only: set[str] | None, k: int) -> str:
    """The module with its k-th site changed; k = -1 changes nothing."""
    tree = ast.parse(source)
    if k >= 0:
        node, slot, _ = _sites(tree, only)[k]
        if slot == "op":
            node.op = SWAPS[type(node.op)]()
        elif slot == "value":
            node.value += 1
        else:
            node.ops[slot] = FLIPS[type(node.ops[slot])]()
    return ast.unparse(tree) + "\n"


# A pytest plugin for the copy: when the tests use hypothesis, a failing
# example ends the run at once instead of being shrunk for minutes.
PLUGIN = """\
try:
    from hypothesis import Phase, settings
except ImportError:
    pass
else:
    settings.register_profile("mutants", database=None, phases=[
        Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutants")
"""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_tests(copy: Path, pytest_args: list[str],
               timeout: float | None) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-p", "mutants_plugin", *pytest_args],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode in (0, 1):
        return "survived" if done.returncode == 0 else "killed"
    return f"error {done.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("--only", default=None,
                        help="comma-separated top-level names to mutate")
    argv, pytest_args = sys.argv[1:], ["tests"]
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    module = args.module.resolve()
    relative = module.relative_to(ROOT)
    only = set(args.only.split(",")) if args.only else None
    source = module.read_text(encoding="utf-8")
    sites = _sites(ast.parse(source), only)
    print(f"{relative}: {len(sites)} mutants", flush=True)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                    ".pytest_cache", ".bench_work",
                                    ".benchmarks")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT, copy, ignore=ignore, dirs_exist_ok=True)
        (copy / "mutants_plugin.py").write_text(PLUGIN, encoding="utf-8")
        target = copy / relative
        target.write_text(mutant_source(source, only, -1), encoding="utf-8")
        start = time.perf_counter()
        outcome = _run_tests(copy, pytest_args, None)
        if outcome != "survived":
            print(f"the unmutated module does not pass: {outcome}")
            return 2
        timeout = max(MIN_TIMEOUT,
                      TIMEOUT_FACTOR * (time.perf_counter() - start))
        print(f"unmutated run passes; each mutant gets {timeout:.0f} s",
              flush=True)
        survivors = 0
        for k, (node, _, change) in enumerate(sites):
            target.write_text(mutant_source(source, only, k),
                              encoding="utf-8")
            start = time.perf_counter()
            outcome = _run_tests(copy, pytest_args, timeout)
            survivors += outcome == "survived"
            print(f"{k + 1:4d}/{len(sites)} line {node.lineno:4d} "
                  f"{change:18s} {outcome} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(sites) - survivors} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
