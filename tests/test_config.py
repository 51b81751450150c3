import inspect
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from arcform import AnalysisError, IntervalProfile, NoteEvent, Part, Piece
from arcform.climax import climax_profile, salience_curve
from arcform.config import AnalysisConfig, check_weights
from arcform.recurrence import find_recurrences, similarity


def _defaults(func):
    return {name: p.default
            for name, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_library_defaults_are_the_config_defaults():
    config = AnalysisConfig()
    salience = {"weights": config.salience_weights, "window": config.window}
    assert _defaults(salience_curve) == salience
    assert _defaults(climax_profile) == salience
    assert _defaults(similarity) == {"weights": config.similarity_weights}
    assert _defaults(find_recurrences) == {
        "threshold": config.threshold, "weights": config.similarity_weights}


PIECE = Piece((Part(0, (NoteEvent(0, 1, 60), NoteEvent(1, 1, 62))),))
WINDOW_CALLS = {
    "config": lambda window: AnalysisConfig(window=window),
    "salience_curve": lambda window: salience_curve(PIECE, window=window),
    "climax_profile": lambda window: climax_profile(PIECE, window=window),
}


@pytest.mark.parametrize("window", [
    float("nan"), float("inf"), float("-inf"), None, "abc", "", "1/0",
    "1e-1000000", "2E1", [4], Decimal("1e-1000000"), Decimal("1e1000000"),
    Decimal("NaN")])
@pytest.mark.parametrize("call", WINDOW_CALLS)
def test_a_window_that_is_not_a_finite_number_is_an_analysis_error(
        call, window):
    # a string or Decimal follows the CLI's rule: no exponent, which
    # Fraction would expand in full
    began = time.perf_counter()
    with pytest.raises(AnalysisError, match="window must be a finite number"):
        WINDOW_CALLS[call](window)
    assert time.perf_counter() - began < 0.2


@pytest.mark.parametrize("window,expected", [
    ("3/2", Fraction(3, 2)), (" 0.5 ", Fraction(1, 2)), (2, Fraction(2)),
    (0.25, Fraction(1, 4)), (Fraction(5, 3), Fraction(5, 3)),
    (Decimal("0.5"), Fraction(1, 2))])
def test_a_window_is_kept_as_an_exact_fraction(window, expected):
    kept = AnalysisConfig(window=window).window
    assert kept == expected and type(kept) is Fraction
    assert salience_curve(PIECE, window=window) == salience_curve(
        PIECE, window=expected)


@pytest.mark.parametrize("build", [
    lambda: check_weights(("a", 0.5, 0.5), 3),
    lambda: check_weights((None, 1.0), 2),
    lambda: check_weights((0.5, 0.5j), 2),
    lambda: check_weights(None, 3),
    lambda: AnalysisConfig(w_pitch="0.4"),
    lambda: AnalysisConfig(sim_rhythm=None),
    lambda: AnalysisConfig(threshold="x"),
    lambda: AnalysisConfig(threshold=None),
    lambda: salience_curve(PIECE, weights=("x", 0.5, 0.5)),
    lambda: similarity(IntervalProfile((), ()), IntervalProfile((), ()),
                       weights=(1.0, "0")),
], ids=["weights-str", "weights-none", "weights-complex", "no-weights",
        "config-weight", "config-similarity-weight", "threshold-str",
        "threshold-none", "salience-weights", "similarity-weights"])
def test_a_weight_or_threshold_that_is_not_a_real_number_is_an_analysis_error(
        build):
    with pytest.raises(AnalysisError):
        build()


THRESHOLD_CALLS = {
    "config": lambda threshold: AnalysisConfig(threshold=threshold),
    "find_recurrences": lambda threshold: find_recurrences(
        PIECE, PIECE.parts[0], threshold=threshold),
}


@pytest.mark.parametrize("threshold", [
    "0.5", None, Decimal("0.5"), [0.5], 0.5j, float("nan"), 0, -0.1, 1.5])
@pytest.mark.parametrize("call", THRESHOLD_CALLS)
def test_a_threshold_that_is_not_a_real_in_the_unit_interval_is_an_analysis_error(
        call, threshold):
    with pytest.raises(AnalysisError, match=r"threshold must be in \(0, 1\]"):
        THRESHOLD_CALLS[call](threshold)
