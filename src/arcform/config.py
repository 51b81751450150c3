"""Analysis configuration: defaults, key=value files, flag overrides."""

from __future__ import annotations

from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from numbers import Real

from .errors import AnalysisError, ArcformError
from .value import Value

__all__ = ["AnalysisConfig", "DEFAULTS", "check_threshold", "check_weights",
           "check_window", "parse_setting", "read_settings", "read_text"]


def check_weights(weights: Sequence[float], count: int) -> None:
    """Raise AnalysisError unless weights are a sequence of `count`
    nonnegative real numbers summing to 1. The tests are positive, so
    NaN fails them."""
    if not (hasattr(weights, "__len__") and len(weights) == count
            and all(isinstance(w, Real) and w >= 0 for w in weights)
            and abs(sum(weights) - 1.0) <= 1e-9):
        raise AnalysisError(f"weights must be {count} nonnegative values "
                            f"summing to 1, got {weights!r}")


def check_threshold(threshold: object) -> None:
    """Raise AnalysisError unless the threshold is a real number in
    (0, 1]. A `Decimal` is not a `numbers.Real`, so it is refused."""
    if not (isinstance(threshold, Real) and 0 < threshold <= 1):
        raise AnalysisError("threshold must be in (0, 1]")


def _fraction(value: object) -> Fraction:
    """`Fraction(value)`, but a string may hold no exponent: Fraction
    expands a decimal exponent in full, in time that grows faster than
    the exponent. A `Decimal` is read as its string, so the same rule
    holds for it."""
    if isinstance(value, Decimal):
        value = str(value)
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent in {value!r}")
    return Fraction(value)


def check_window(window: object) -> Fraction:
    """The salience window as an exact positive Fraction. Raises
    AnalysisError for anything else: NaN, an infinity, a non-number, or
    a string that is not an integer, decimal or fraction without an
    exponent."""
    try:
        window = _fraction(window)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise AnalysisError(f"window must be a finite number, "
                            f"got {window!r}") from exc
    if window <= 0:
        raise AnalysisError("window must be positive")
    return window


class AnalysisConfig(Value):
    """The one source of analysis defaults; every instance is valid."""

    _fields = ("window", "w_pitch", "w_density", "w_velocity", "sim_pitch",
               "sim_rhythm", "threshold")

    def __init__(self, window: Fraction = Fraction(4), w_pitch: float = 0.4,
                 w_density: float = 0.3, w_velocity: float = 0.3,
                 sim_pitch: float = 0.7, sim_rhythm: float = 0.3,
                 threshold: float = 0.6) -> None:
        check_weights((w_pitch, w_density, w_velocity), 3)
        check_weights((sim_pitch, sim_rhythm), 2)
        window = check_window(window)
        check_threshold(threshold)
        vars(self).update(window=window, w_pitch=w_pitch,
                          w_density=w_density, w_velocity=w_velocity,
                          sim_pitch=sim_pitch, sim_rhythm=sim_rhythm,
                          threshold=threshold)

    @property
    def salience_weights(self) -> tuple[float, float, float]:
        return (self.w_pitch, self.w_density, self.w_velocity)

    @property
    def similarity_weights(self) -> tuple[float, float]:
        return (self.sim_pitch, self.sim_rhythm)


DEFAULTS = AnalysisConfig()


def parse_setting(key: str, value: str, where: str) -> object:
    """Parse one setting from text, for a config file line or a flag.

    Raises ArcformError naming `where` (e.g. "a.cfg:3" or "--window")
    for an unknown key or a value that does not parse. A window is an
    integer, decimal or fraction without an exponent, any other key a float.
    """
    try:
        if key == "window":
            return _fraction(value)
        if key in AnalysisConfig._fields:
            return float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArcformError(f"{where}: bad value for {key}") from exc
    raise ArcformError(f"{where}: unknown key {key!r}")


def read_text(path: str, error: type[ArcformError] = ArcformError) -> str:
    """The text of a UTF-8 file without one leading byte-order mark, as
    some editors write. Raises `error` if the file is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text") from exc


def read_settings(path: str) -> dict[str, object]:
    """The parsed settings of a key=value config file; a later line wins."""
    lines = read_text(path).splitlines()
    settings: dict[str, object] = {}
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
