"""Deterministic JSON/CSV report rendering.

All floats are rounded to 6 decimal digits, keys are sorted, and nothing
time- or host-dependent enters the body, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .climax import ClimaxProfile
from .config import AnalysisConfig
from .recurrence import RecurrenceSeries
from .score import Piece, key_name
from .value import Value

__all__ = ["build_report", "render_json", "curve_csv", "jsonable"]

PRECISION = 6


def jsonable(value: object) -> object:
    """Recursively convert analysis values to JSON-safe primitives.

    Rationals become "p/q" strings (exact); floats are rounded to the
    declared output precision.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return round(value, PRECISION)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Value):
        return {name: jsonable(getattr(value, name))
                for name in value._fields}
    return value


def _recurrence_dict(series: RecurrenceSeries) -> dict[str, object]:
    return {
        "query_steps": list(series.query.steps),
        "query_ratios": list(series.query.ratios),
        "matches": [
            {
                "occurrence_index": m.occurrence_index,
                "part": m.part,
                "start": m.start,
                "end": m.end,
                "similarity": m.similarity,
                "deviation": m.deviation,
            }
            for m in series.matches
        ],
        "outlier_index": series.outlier_index,
    }


def build_report(piece: Piece, source: str, config: AnalysisConfig,
                 version: str,
                 climax: ClimaxProfile | None = None,
                 recurrence: RecurrenceSeries | None = None,
                 form: dict[str, object] | None = None) -> dict[str, object]:
    report: dict[str, object] = {
        "source": source,
        "title": piece.title,
        "key": key_name(piece.key) if piece.key else None,
        "beats_total": piece.beats_total,
        "parts": len(piece.parts),
        "events": sum(map(len, piece.parts)),
        "tool_version": version,
        "config": config,
    }
    if climax is not None:
        report["climax"] = climax
    if recurrence is not None:
        report["recurrence"] = _recurrence_dict(recurrence)
    if form is not None:
        report["form"] = form
    return report


def render_json(obj: object) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, ensure_ascii=False,
                      indent=2) + "\n"


def curve_csv(profile: ClimaxProfile) -> str:
    lines = ["time,salience"]
    for t, s in profile.curve:
        lines.append(f"{t},{round(s, PRECISION):.6f}")
    return "\n".join(lines) + "\n"
