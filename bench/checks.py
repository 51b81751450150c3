"""Output checks for benchmark ops.

``check(op, code, out, stderr)`` returns None when an op's output is
right for what the generator planted in its input, and a short reason
when it is not.  The checks use only the op's manifest entry from
``gen.py``; they never run a second analysis.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction as F
from typing import Optional

TOL = 2e-6  # reports round floats to 6 decimals

# ROADMAP open item 3: a .mid whose pitch or velocity byte is >= 128 makes
# NoteEvent raise a bare ValueError, so `arcform corpus` exits 2 instead
# of skipping the file.  Such ops count as failed, but as this known
# defect, not as a wrong output.
KNOWN_DEFECT = "known defect (ROADMAP item 3)"
KNOWN_DEFECT_MESSAGES = ("error: pitch out of MIDI range",
                         "error: velocity out of range")

CSV_HEADER = "file,beats_total,normalized_position,asymmetry_index,pre_mass_fraction"


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def known_defect(op: dict, code: int, stderr: str) -> bool:
    return (op["args"][0] == "corpus" and op["expect"]["highbit"] and code == 2
            and any(m in stderr for m in KNOWN_DEFECT_MESSAGES))


def check_corpus(exp: dict, out: str, stderr: str) -> None:
    lines = out.splitlines()
    expect(lines[0] == CSV_HEADER, "CSV header")
    rows, summary = lines[1:-1], lines[-1].split(",")
    pieces = sorted(exp["pieces"], key=lambda p: p["name"])
    expect([r.split(",")[0] for r in rows] == [p["name"] for p in pieces],
           "rows are not the well-formed files")
    positions = []
    for row, piece in zip(rows, pieces):
        name, total, pos, asym, pre = row.split(",")
        pos, total = float(pos), F(total)
        expect(total == F(piece["total"]), f"{name}: beats_total {total}")
        lo, hi = (F(x) / total for x in piece["region"])
        expect(lo - TOL <= pos <= hi + TOL, f"{name}: climax at {pos} outside planted region")
        expect(close(float(asym), 2 * pos - 1, 2 * TOL), f"{name}: asymmetry_index")
        expect(0 <= float(pre) <= 1, f"{name}: pre_mass_fraction")
        positions.append(pos)
    expect(summary[0] == "summary" and int(summary[1]) == len(rows), "summary count")
    expect(close(float(summary[2]), statistics.fmean(positions)), "summary mean")
    expect(close(float(summary[3]), statistics.median(positions)), "summary median")
    skipped = {line.split(" ")[2].rstrip(":") for line in stderr.splitlines()
               if line.startswith("warning: skipped ")}
    expect(skipped == set(exp["malformed"]),
           f"skipped {sorted(skipped)}, malformed {sorted(exp['malformed'])}")


def check_recur(exp: dict, out: str) -> None:
    report = json.loads(out)
    expect(report["events"] == exp["notes"] and report["parts"] == exp["parts"],
           "events/parts")
    rec = report["recurrence"]
    expect(rec["query_steps"] == exp["steps"], "query_steps")
    expect(rec["query_ratios"] == exp["ratios"], "query_ratios")
    matches = [(m["part"], F(m["start"]), F(m["end"]), m["similarity"])
               for m in rec["matches"]]
    expect([m["occurrence_index"] for m in rec["matches"]] == list(range(len(matches))),
           "occurrence_index")
    exact = {(v, F(a), F(b)) for v, a, b, is_exact in exp["planted"] if is_exact}
    found = {(v, a, b) for v, a, b, sim in matches if sim == 1.0}
    expect(exact <= found, f"exact statements missed: {sorted(exact - found)}")
    expect(found <= exact, f"similarity 1.0 off a planted exact statement: "
                           f"{sorted(found - exact)}")
    for v, a, b, is_exact in exp["planted"]:
        if not is_exact:
            expect(all(sim < 1.0 for mv, ma, mb, sim in matches
                       if mv == v and ma < F(b) and F(a) < mb),
                   f"varied statement at voice {v}, beat {a} scored 1.0")
    by_part = sorted(matches)
    for (v1, _, e1, _), (v2, s2, _, _) in zip(by_part, by_part[1:]):
        expect(v1 != v2 or e1 <= s2, f"overlapping matches in part {v1}")


def check_analyze(exp: dict, out: str, source: str) -> None:
    report = json.loads(out)
    expect(report["source"] == source and report["title"] == exp["title"],
           "source/title")
    expect(report["events"] == exp["notes"] and report["parts"] == exp["parts"],
           "events/parts")
    total = F(report["beats_total"])
    expect(total == F(exp["total"]), "beats_total")
    climax = report["climax"]
    peak = F(climax["peak_time"])
    expect(F(exp["region"][0]) <= peak <= F(exp["region"][1]),
           f"climax at beat {peak} outside planted region")
    pos = climax["normalized_position"]
    expect(close(pos, float(peak / total)), "normalized_position")
    expect(close(climax["asymmetry_index"], 2 * pos - 1, 2 * TOL), "asymmetry_index")
    times = [F(t) for t, _ in climax["curve"]]
    expect(len(times) == math.ceil(total / 2) + 1 and times[0] == 0
           and times[-1] == total, "curve grid")
    expect(all(a < b for a, b in zip(times, times[1:])), "curve times not increasing")
    expect(all(0 <= s <= 1 for _, s in climax["curve"]), "salience outside [0, 1]")
    form = report["form"]
    expect(form["form"] == exp["form"] and form["seed"] == "AB", "form/seed")
    if exp["steps"] is None:
        expect(form["minimal_steps"] == "not derivable", "minimal_steps")
        expect("predicted_climax_position" not in form, "prediction for underivable form")
    else:
        copies = exp["steps"] + 1
        expect(form["minimal_steps"] == exp["steps"], "minimal_steps")
        expect(close(form["predicted_climax_position"], copies / (copies + 1)),
               "predicted_climax_position")
        expect(form["measured_climax_position"] == pos, "measured_climax_position")


def check(op: dict, code: int, out: Optional[bytes], stderr: str) -> Optional[str]:
    """None if the op succeeded with a correct output, else why not."""
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {code}: {last[0]}"
    try:
        text = out.decode("utf-8")
        command = op["args"][0]
        if command == "corpus":
            check_corpus(op["expect"], text, stderr)
        elif command == "recur":
            check_recur(op["expect"], text)
        else:
            check_analyze(op["expect"], text, op["args"][1])
    except Mismatch as exc:
        return f"wrong output: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
