"""Deterministic JSON/CSV report rendering.

All floats are rounded to 6 decimal digits, keys are sorted, and nothing
time- or host-dependent enters the body, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Dict, Optional

from .climax import ClimaxProfile
from .config import AnalysisConfig
from .recurrence import RecurrenceSeries
from .score import Piece, key_name

__all__ = ["build_report", "render_json", "curve_csv", "jsonable"]

PRECISION = 6


def jsonable(value: Any) -> Any:
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
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in fields(value)}
    return value


def _recurrence_dict(series: RecurrenceSeries) -> Dict[str, Any]:
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
                 climax: Optional[ClimaxProfile] = None,
                 recurrence: Optional[RecurrenceSeries] = None,
                 form: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "source": source,
        "title": piece.title,
        "key": key_name(piece.key) if piece.key else None,
        "beats_total": piece.beats_total,
        "parts": len(piece.parts),
        "events": len(piece.all_events()),
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


def render_json(obj: Any) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, ensure_ascii=False,
                      indent=2) + "\n"


def curve_csv(profile: ClimaxProfile) -> str:
    lines = ["time,salience"]
    for t, s in profile.curve:
        lines.append(f"{t},{round(s, PRECISION):.6f}")
    return "\n".join(lines) + "\n"
