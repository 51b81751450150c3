"""The one-pass JSON writer against the standard library's encoder."""

import gc
from enum import IntEnum
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcform import (AnalysisConfig, ClimaxProfile, IntervalProfile,
                     RecurrenceMatch, RecurrenceSeries, climax_profile)
from arcform import report
from arcform.cli import load_piece
from arcform.report import build_report, render_json
from oracles import oracle_render_json

NAN, INF = float("nan"), float("inf")


# subclasses of int, str and float, which the writer's exact-type tests
# pass over to its isinstance chain
class Mode(IntEnum):
    MAJOR = 1


class Name(str):
    pass


class Level(float):
    pass


# quotes, backslashes, control characters, non-ASCII text, a line
# separator and a lone surrogate, as a non-UTF-8 file name brings in
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "é", "日", "\u2028",
            "\udcff"]
TEXTS = st.text(st.one_of(st.characters(), st.sampled_from(_AWKWARD)),
                max_size=6)
INTS = st.one_of(st.integers(), st.sampled_from([10**30, -10**30, -1]))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 1e-7, -1e-7, 1e16, 1e300, NAN, INF, -INF]))
FRACTIONS = st.one_of(st.fractions(), INTS.map(F))
# 2 and 10 sort differently as strings; True and "True", 1 and "1" make
# the same key, so the later one wins
KEYS = st.one_of(TEXTS, INTS, st.booleans(), st.none(), FRACTIONS,
                 st.sampled_from([2, 10, 1, True, "1", "True"]))
CURVES = st.lists(st.tuples(FRACTIONS, FLOATS), max_size=4).map(tuple)
# rows the writer must not take for a curve's: a list pair, an int time,
# an int salience and a third column
NEAR_CURVES = st.lists(st.one_of(
    st.tuples(FRACTIONS, FLOATS).map(list),
    st.tuples(INTS, FLOATS),
    st.tuples(FRACTIONS, INTS),
    st.tuples(FRACTIONS, FLOATS, FLOATS),
    st.tuples(FRACTIONS, FLOATS)), max_size=4).map(tuple)
VALUES = st.one_of(
    st.builds(AnalysisConfig, window=st.fractions(F(1, 8), 16),
              threshold=st.sampled_from([0.01, 0.6, 1.0])),
    st.builds(ClimaxProfile, CURVES, FRACTIONS, FLOATS, FLOATS, FLOATS),
    st.builds(RecurrenceMatch, INTS, INTS, FRACTIONS, FRACTIONS, FLOATS),
    st.lists(st.tuples(INTS, FRACTIONS), max_size=3).map(
        lambda pairs: IntervalProfile(*map(tuple, zip(*pairs)))
        if pairs else IntervalProfile((), ())))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, FLOATS, FRACTIONS, TEXTS,
                   CURVES, NEAR_CURVES, VALUES)
TREES = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(KEYS, children, max_size=4)), max_leaves=12)

REPORT = build_report(
    load_piece(str(Path(__file__).parent / "fixtures" / "fixture_fig1.notes")),
    "fixture_fig1.notes", AnalysisConfig(), "0",
    climax=ClimaxProfile(((F(0), 0.25), (F(1, 2), 1 / 3), (F(1), NAN)),
                         F(1, 2), 0.5, 0.0, 0.25),
    recurrence=RecurrenceSeries(
        IntervalProfile((2, -1), (F(1, 2), F(3))),
        (RecurrenceMatch(0, 1, F(-3, 2), F(4), 0.75),), None),
    form={"minimal_steps": 2, "tree": "é \"quoted\" \\ \udcff\n"})


@pytest.mark.parametrize("value", [
    REPORT, None, True, False, 10**30, -1, -0.0, 1e-7, -1e-7, 1e16, 1e300,
    NAN, INF, -INF, 0.1234567, F(-3, 2), F(4), "é\udcff\"\\\x00",
    {2: "a", 10: "b", True: 1, "True": 2, 1: 3, "1": 4}, [], (), {}, [[], {}],
    ((F(1), 0.5),), ((F(1, 3), 0.1234567), (F(-2), NAN)),
    [[F(1), 0.5]], ((1, 0.5),), ((F(1), 1),), ((F(1), 0.5, 0.5),),
    ((F(1), 0.5), [F(1), 0.5], (F(1), 1)),
    AnalysisConfig(), IntervalProfile((), ()),
    Mode.MAJOR, Name("é\"x"), Level(0.1234567), Level(1e300),
    {Name("k"): [Mode.MAJOR, Level(-0.0)]}, ((F(1), Level(0.5)),)])
def test_render_json_is_the_standard_encoding(value):
    assert render_json(value) == oracle_render_json(value)


# the last value is past the range, where '%.6f' would give ...405399
@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.0, 5e-05, 0.0001, 0.30000000000000004, 999999999.9999996,
    1e9, NAN, INF, -INF, -1.0, -5e-05, -0.0001, 0.0078125, 0.00009999995,
    10472411465.4054])
def test_float_text_at_the_edges_of_the_fixed_point_range(value):
    assert render_json(value) == oracle_render_json(value)
    assert render_json(((F(1), value),)) == oracle_render_json(((F(1), value),))


@given(st.floats(1e-4, 1e9, exclude_max=True), st.booleans())
def test_float_text_inside_the_fixed_point_range(value, negative):
    value = -value if negative else value
    assert render_json(value) == oracle_render_json(value)


@given(TREES)
@settings(max_examples=200, deadline=None)
def test_render_json_matches_the_standard_encoder(value):
    assert render_json(value) == oracle_render_json(value)


@pytest.mark.parametrize("value", [object(), {1: {2}}, [b"bytes"],
                                   (F(1), 1j)])
def test_render_json_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        oracle_render_json(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render_json(value)


def test_render_json_leaves_nothing_for_the_cyclic_collector(fixtures_dir):
    piece = load_piece(str(fixtures_dir / "passion_chorales.notes"))
    report = build_report(piece, "passion_chorales.notes", AnalysisConfig(),
                          "0", climax=climax_profile(piece))
    gc.collect()
    gc.disable()
    try:
        render_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_curve_rows_are_written_without_a_call_per_row(fixtures_dir,
                                                       monkeypatch):
    profile = climax_profile(load_piece(str(fixtures_dir
                                            / "passion_chorales.notes")))
    rows = len(profile.curve)
    expected = oracle_render_json(profile)
    calls = 0
    write = report._write

    def counting_write(value, nl, out):
        nonlocal calls
        calls += 1
        write(value, nl, out)

    monkeypatch.setattr(report, "_write", counting_write)
    assert render_json(profile) == expected
    # the profile and its five fields; a row through the generic path
    # would cost three calls more
    assert calls < 10 < rows
