"""Analysis configuration: defaults, key=value files, flag overrides."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import ArcformError

__all__ = ["AnalysisConfig", "load_config", "parse_setting"]


@dataclass(frozen=True)
class AnalysisConfig:
    window: Fraction = Fraction(4)
    w_pitch: float = 0.4
    w_density: float = 0.3
    w_velocity: float = 0.3
    sim_pitch: float = 0.7
    sim_rhythm: float = 0.3
    threshold: float = 0.6

    @property
    def salience_weights(self) -> Tuple[float, float, float]:
        return (self.w_pitch, self.w_density, self.w_velocity)

    @property
    def similarity_weights(self) -> Tuple[float, float]:
        return (self.sim_pitch, self.sim_rhythm)

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": str(self.window),
            "w_pitch": self.w_pitch,
            "w_density": self.w_density,
            "w_velocity": self.w_velocity,
            "sim_pitch": self.sim_pitch,
            "sim_rhythm": self.sim_rhythm,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AnalysisConfig":
        return cls(
            window=Fraction(str(data["window"])),
            w_pitch=float(data["w_pitch"]),
            w_density=float(data["w_density"]),
            w_velocity=float(data["w_velocity"]),
            sim_pitch=float(data["sim_pitch"]),
            sim_rhythm=float(data["sim_rhythm"]),
            threshold=float(data["threshold"]),
        )


_FLOAT_KEYS = {"w_pitch", "w_density", "w_velocity",
               "sim_pitch", "sim_rhythm", "threshold"}


def parse_setting(key: str, value: str, where: str) -> object:
    """Parse one setting from text, for a config file line or a flag.

    Raises ArcformError naming `where` (e.g. "a.cfg:3" or "--window")
    for an unknown key or a value that does not parse.
    """
    try:
        if key == "window":
            return Fraction(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArcformError(f"{where}: bad value for {key}") from exc
    raise ArcformError(f"{where}: unknown key {key!r}")


def load_config(path: str, base: Optional[AnalysisConfig] = None) -> AnalysisConfig:
    """Read a key=value config file on top of the defaults."""
    config = base or AnalysisConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ArcformError(f"{path}: not UTF-8 text") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ArcformError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        config = replace(config, **{key: parse_setting(key, value,
                                                       f"{path}:{lineno}")})
    return config
