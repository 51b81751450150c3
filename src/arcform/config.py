"""Analysis configuration: defaults, key=value files, flag overrides."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import AnalysisError, ArcformError

__all__ = ["AnalysisConfig", "DEFAULTS", "check_weights", "parse_setting",
           "read_settings"]


def check_weights(weights: Sequence[float], count: int) -> None:
    """Raise AnalysisError unless weights are `count` nonnegative values
    summing to 1. The tests are positive, so NaN fails them."""
    if not (len(weights) == count and all(w >= 0 for w in weights)
            and abs(sum(weights) - 1.0) <= 1e-9):
        raise AnalysisError(f"weights must be {count} nonnegative values "
                            f"summing to 1, got {tuple(weights)}")


@dataclass(frozen=True)
class AnalysisConfig:
    """The one source of analysis defaults; every instance is valid."""

    window: Fraction = Fraction(4)
    w_pitch: float = 0.4
    w_density: float = 0.3
    w_velocity: float = 0.3
    sim_pitch: float = 0.7
    sim_rhythm: float = 0.3
    threshold: float = 0.6

    def __post_init__(self):
        object.__setattr__(self, "window", Fraction(self.window))
        check_weights(self.salience_weights, 3)
        check_weights(self.similarity_weights, 2)
        if self.window <= 0:
            raise AnalysisError("window must be positive")
        if not 0 < self.threshold <= 1:
            raise AnalysisError("threshold must be in (0, 1]")

    @property
    def salience_weights(self) -> Tuple[float, float, float]:
        return (self.w_pitch, self.w_density, self.w_velocity)

    @property
    def similarity_weights(self) -> Tuple[float, float]:
        return (self.sim_pitch, self.sim_rhythm)


DEFAULTS = AnalysisConfig()

_FLOAT_KEYS = {"w_pitch", "w_density", "w_velocity",
               "sim_pitch", "sim_rhythm", "threshold"}


def parse_setting(key: str, value: str, where: str) -> object:
    """Parse one setting from text, for a config file line or a flag.

    Raises ArcformError naming `where` (e.g. "a.cfg:3" or "--window")
    for an unknown key or a value that does not parse. A window is an
    integer, decimal or fraction without an exponent.
    """
    try:
        if key == "window":
            # Fraction expands a decimal exponent in full, in time that
            # grows faster than the exponent, so none is accepted
            if "e" in value or "E" in value:
                raise ValueError("exponent in window")
            return Fraction(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArcformError(f"{where}: bad value for {key}") from exc
    raise ArcformError(f"{where}: unknown key {key!r}")


def read_settings(path: str) -> Dict[str, object]:
    """The parsed settings of a key=value config file; a later line wins."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ArcformError(f"{path}: not UTF-8 text") from exc
    settings: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ArcformError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        settings[key] = parse_setting(key, value, f"{path}:{lineno}")
    return settings
