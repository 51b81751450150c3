"""Deterministic JSON/CSV report rendering.

All floats are rounded to 6 decimal digits, keys are sorted, and nothing
time- or host-dependent enters the body, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring

from .climax import ClimaxProfile, Curve
from .config import AnalysisConfig
from .recurrence import RecurrenceSeries
from .score import Piece, key_name
from .value import Value

__all__ = ["build_report", "render_json", "curve_csv"]

PRECISION = 6
# float.__repr__ of the values JSON has no literal for, as `json` writes them
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
    """The report text, written in one pass over `obj`: byte for byte
    `json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)` and
    a newline, where `value` is `obj` with each `Fraction` as a "p/q"
    string, each float rounded to PRECISION digits, each value class as
    an object of its `_fields` and each `Curve` as the list of its rows
    (`jsonable` in `tests/oracles.py` builds that value)."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


# The writer is module-level functions, not closures inside render_json:
# a nested function that calls itself is a reference cycle, which would
# keep each call's fragments alive until the cyclic collector runs.

def _float_text(value: float) -> str:
    """`json`'s text of `round(value, PRECISION)`. In the range tested
    that rounded value has at most 15 significant digits, so its
    shortest repr is its fixed-point text without the trailing zeros."""
    if 1e-4 <= abs(value) < 1e9:
        text = ("%.6f" % value).rstrip("0")
        return text + "0" if text[-1] == "." else text
    text = float.__repr__(round(value, PRECISION))
    return _FLOAT_WORDS.get(text, text)


def _write(value: object, nl: str, out: list[str]) -> None:
    """Append the JSON text of `value` to `out`; `nl` is the newline and
    indent of the line `value` starts on. Exact types first, then tests
    in the order of the conversion `render_json` names, then `json`'s."""
    cls = type(value)  # isinstance(value, Fraction) would ask ABCMeta
    if cls is int:
        out.append(int.__repr__(value))
    elif cls is float:
        out.append(_float_text(value))
    elif cls is str:
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, Fraction):
        out.append(encode_basestring(str(value)))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        _write_object({str(k): v for k, v in value.items()}, nl, out)
    elif isinstance(value, (list, tuple, Curve)):  # a curve by its rows
        _write_array(value, nl, out)
    elif isinstance(value, Value):
        _write_object({name: getattr(value, name) for name in value._fields},
                      nl, out)
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


def _write_array(items: list | tuple | Curve, nl: str,
                 out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for item in items:
        if (type(item) is tuple and len(item) == 2
                and type(item[0]) is Fraction and type(item[1]) is float):
            # a salience curve's (time, salience) row, in one string
            out.append(f'{sep}[{inner}  "{item[0]!s}",{inner}  '
                       f'{_float_text(item[1])}{inner}]')
        else:
            out.append(sep)
            _write(item, inner, out)
        sep = "," + inner
    out.append(nl + "]")


def _write_object(fields: dict[str, object], nl: str,
                  out: list[str]) -> None:
    if not fields:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key in sorted(fields):
        out.append(f"{sep}{encode_basestring(key)}: ")
        _write(fields[key], inner, out)
        sep = "," + inner
    out.append(nl + "}")


def curve_csv(profile: ClimaxProfile) -> str:
    lines = ["time,salience"]
    for t, s in profile.curve:
        lines.append(f"{t},{s:.6f}")
    return "\n".join(lines) + "\n"
