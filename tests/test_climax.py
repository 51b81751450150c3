import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcform import AnalysisError, NoteEvent, Part, Piece, parse_text
from arcform import climax
from arcform.climax import Curve, climax_profile, locate_climax, salience_curve
from arcform.report import curve_csv, render_json
from oracles import (oracle_locate_climax, oracle_render_json,
                     oracle_salience_curve, peak_margin, random_piece,
                     reverse_piece, short_note_piece)


def mono_piece(pitches, dur=1, velocity=64):
    events = tuple(NoteEvent(Fraction(i) * dur, Fraction(dur), p, velocity)
                   for i, p in enumerate(pitches))
    return Piece(parts=(Part(0, events),))


# --- salience_curve -----------------------------------------------------------

def test_monotone_pitch_rise_peaks_at_end():
    piece = mono_piece(range(40, 80), dur=1)
    curve = salience_curve(piece, (1.0, 0.0, 0.0), Fraction(4))
    values = [s for _, s in curve]
    assert values == sorted(values)
    profile = locate_climax(curve)
    assert profile.peak_time >= piece.beats_total - 2


def test_symmetric_arch_peaks_near_midpoint():
    pitches = list(range(40, 70)) + list(range(70, 40, -1))
    piece = mono_piece(pitches, dur=1)
    profile = climax_profile(piece, (0.5, 0.25, 0.25), Fraction(4))
    grid = Fraction(2) / piece.beats_total
    assert abs(profile.normalized_position - 0.5) <= float(grid)


def test_curve_covers_whole_span():
    piece = mono_piece([60, 62, 64], dur=1)
    curve = salience_curve(piece)
    assert curve[0][0] == 0
    assert curve[-1][0] == piece.beats_total


def test_empty_and_zero_duration_errors():
    with pytest.raises(AnalysisError, match="empty"):
        salience_curve(Piece())
    with pytest.raises(AnalysisError, match="window"):
        salience_curve(mono_piece([60]), window=Fraction(0))


def test_grid_over_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr(climax, "MAX_GRID_POINTS", 11)
    piece = mono_piece([60])  # one beat
    assert len(salience_curve(piece, window=Fraction(1, 5))) == 11
    with pytest.raises(AnalysisError, match="12 grid points"):
        salience_curve(piece, window=Fraction(2, 11))


def test_grid_bound_is_one_hundred_thousand_points():
    piece = mono_piece([60])  # one beat, so 100 000 steps of 1/100 000
    with pytest.raises(AnalysisError, match="100001 grid points"):
        salience_curve(piece, window=Fraction(2, 100_000))


def test_bad_weights_rejected():
    with pytest.raises(AnalysisError, match="weights"):
        salience_curve(mono_piece([60, 62]), weights=(0.5, 0.5, 0.5))
    with pytest.raises(AnalysisError, match="weights"):
        salience_curve(mono_piece([60, 62]), weights=(1.2, -0.1, -0.1))
    with pytest.raises(AnalysisError, match="weights"):
        salience_curve(mono_piece([60, 62]), weights=(float("nan"), 0.5, 0.5))



denominators = st.sampled_from([1, 2, 3, 4, 6, 8])
rationals = st.builds(Fraction, st.integers(0, 48), denominators)
durations = st.builds(Fraction, st.integers(1, 24), denominators)


@st.composite
def multi_voice_pieces(draw):
    """1-6 overlapping voices with rational onsets and durations; the
    whole piece may start late, and pitches may all be equal."""
    start = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(5, 3),
                                  Fraction(12)]))
    pitches = draw(st.sampled_from([st.integers(0, 127), st.just(60),
                                    st.integers(58, 62)]))
    parts = []
    for voice in range(draw(st.integers(1, 6))):
        events = draw(st.lists(
            st.builds(lambda on, du, p, v: NoteEvent(start + on, du, p, v, voice),
                      rationals, durations, pitches, st.integers(1, 127)),
            min_size=1, max_size=10))
        parts.append(Part(voice, tuple(events)))
    return Piece(parts=tuple(parts))


weights_choices = st.sampled_from([(0.4, 0.3, 0.3), (1.0, 0.0, 0.0),
                                   (0.0, 0.0, 1.0), (0.2, 0.5, 0.3)])
windows = st.one_of(st.builds(Fraction, st.integers(1, 40), denominators),
                    st.just(Fraction(500)))  # wider than any drawn piece


@settings(max_examples=300, deadline=None)
@given(multi_voice_pieces(), weights_choices, windows)
@example(mono_piece([60]), (0.4, 0.3, 0.3), Fraction(4))  # single note
# both grid points' windows cover the whole one-beat piece
@example(mono_piece([60]), (0.4, 0.3, 0.3), Fraction(8))
@example(mono_piece([60, 72, 48]), (0.4, 0.3, 0.3), Fraction(50))  # wide
@example(mono_piece([64, 64, 64]), (0.4, 0.3, 0.3), Fraction(3, 2))  # pmin == pmax
@example(Piece(parts=(Part(0, (NoteEvent(Fraction(9), Fraction(1, 3), 0, 1),
                               NoteEvent(Fraction(10), Fraction(2), 127))),)),
         (0.4, 0.3, 0.3), Fraction(2))  # gap before the first onset
# every window edge on an onset or an end: an onset at lo counts, one at hi not
@example(mono_piece([60, 62, 64, 65, 67], velocity=90), (0.2, 0.5, 0.3),
         Fraction(2))
# a late start: edges between 0 and the first onset that are no note's tick
@example(Piece(parts=(Part(0, (NoteEvent(Fraction(7, 3), Fraction(1, 2), 64,
                                         100),)),
                      Part(1, (NoteEvent(Fraction(10, 3), Fraction(2, 3), 52,
                                         40, 1),)))),
         (0.2, 0.5, 0.3), Fraction(3, 4))
def test_salience_curve_matches_direct_definition(piece, weights, window):
    curve = salience_curve(piece, weights, window)
    expected = oracle_salience_curve(piece, weights, window)
    assert curve == expected
    # the rows zip the two columns, so check that neither is longer
    assert len(curve.ticks) == len(curve.saliences) == len(expected)


# --- the Curve -----------------------------------------------------------------

FIG_LIKE = mono_piece([60, 64, 67, 72, 71, 67, 64, 60], velocity=90)


def test_curve_equals_the_tuple_of_its_rows():
    curve = salience_curve(FIG_LIKE, (0.4, 0.3, 0.3), Fraction(3, 2))
    expected = oracle_salience_curve(FIG_LIKE, (0.4, 0.3, 0.3),
                                     Fraction(3, 2))
    assert type(curve) is Curve and type(expected) is tuple
    assert curve == expected and expected == curve
    assert not curve != expected and not expected != curve
    assert curve == salience_curve(FIG_LIKE, (0.4, 0.3, 0.3), Fraction(3, 2))
    assert curve != expected[:-1] and expected[:-1] != curve
    assert curve != list(expected) and list(expected) != curve


def test_curve_reads_like_its_tuple():
    curve = salience_curve(FIG_LIKE)
    rows = oracle_salience_curve(FIG_LIKE, (0.4, 0.3, 0.3), Fraction(4))
    assert hash(curve) == hash(rows)
    assert len(curve) == len(rows) == 5
    assert curve[0] == rows[0] and curve[-1] == rows[-1]
    assert curve[1:3] == rows[1:3] and type(curve[1:3]) is tuple
    assert curve[::-1] == rows[::-1]
    with pytest.raises(IndexError):
        curve[len(rows)]
    assert list(curve) == list(rows)
    assert repr(curve) == repr(rows)
    for copied in (pickle.loads(pickle.dumps(curve)), copy.copy(curve),
                   copy.deepcopy(curve)):
        assert type(copied) is Curve
        assert copied == curve == pickle.loads(pickle.dumps(rows))
        assert hash(copied) == hash(rows)


def test_curve_cannot_be_mutated():
    curve = salience_curve(FIG_LIKE)
    before = tuple(curve)
    with pytest.raises(TypeError):
        curve[0] = (Fraction(0), 1.0)
    with pytest.raises(TypeError):
        del curve[0]
    for name in ("ticks", "unit", "saliences", "_rows", "other"):
        with pytest.raises(AttributeError):
            setattr(curve, name, None)
    with pytest.raises(AttributeError):
        del curve.saliences
    with pytest.raises(AttributeError):
        curve.saliences.append(1.0)
    assert curve == before


@settings(max_examples=100, deadline=None)
@given(multi_voice_pieces(), weights_choices, windows)
def test_profile_of_a_curve_equals_the_profile_of_its_tuple(piece, weights,
                                                            window):
    profile = climax_profile(piece, weights, window)
    rows = tuple(salience_curve(piece, weights, window))
    expected = locate_climax(rows)
    assert profile == expected and hash(profile) == hash(expected)
    # field for field, each float bit for bit
    assert repr(profile) == repr(expected)
    assert type(profile.peak_time) is Fraction
    assert render_json(profile) == render_json(expected) == \
        oracle_render_json(profile)
    assert curve_csv(profile) == curve_csv(expected)


def test_climax_profile_records_both_spans(monkeypatch):
    # a benchmark traces climax_profile through these two names
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, result))
            return result
        return wrapper

    for name in ("salience_curve", "locate_climax"):
        monkeypatch.setattr(climax, name,
                            counting(name, getattr(climax, name)))
    piece = mono_piece(range(60, 70))  # ten beats, a grid step of two
    profile = climax_profile(piece)
    assert [name for name, _ in calls] == ["salience_curve", "locate_climax"]
    curve = calls[0][1]
    assert calls[1][1] is profile and profile.curve is curve
    assert len(curve) == 6
    assert [t for t, _ in curve] == [0, 2, 4, 6, 8, 10]


# --- locate_climax ------------------------------------------------------------

def test_peak_arithmetic_simple_triangle():
    profile = locate_climax(((Fraction(0), 0.0), (Fraction(1), 1.0),
                             (Fraction(2), 0.0)))
    assert profile.peak_time == 1
    assert profile.normalized_position == 0.5
    assert profile.asymmetry_index == 0.0


def test_peak_arithmetic_late_peak():
    profile = locate_climax(((Fraction(0), 0.0), (Fraction(2), 1.0),
                             (Fraction(3), 0.0)))
    assert profile.normalized_position == pytest.approx(2 / 3)
    assert profile.asymmetry_index == pytest.approx(1 / 3)


def test_tie_takes_earliest_maximum():
    profile = locate_climax(((Fraction(0), 0.0), (Fraction(1), 1.0),
                             (Fraction(2), 1.0), (Fraction(3), 0.0)))
    assert profile.peak_time == 1


def test_all_zero_curve_errors():
    with pytest.raises(AnalysisError, match="no salience content"):
        locate_climax(((Fraction(0), 0.0), (Fraction(1), 0.0)))


def test_pre_mass_fraction_definition():
    curve = ((Fraction(0), 1.0), (Fraction(1), 2.0), (Fraction(2), 3.0),
             (Fraction(3), 1.0))
    profile = locate_climax(curve)
    assert profile.peak_time == 2
    assert profile.pre_mass_fraction == pytest.approx(3 / 7)


@st.composite
def increasing_curves(draw):
    """Curves with increasing times from 0 and saliences from a few
    values, so maxima tie often, as on a grid of equal windows."""
    steps = draw(st.lists(st.fractions(Fraction(1, 8), 4), min_size=0,
                          max_size=12))
    times = [Fraction(0)]
    for step in steps:
        times.append(times[-1] + step)
    saliences = draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.7, 0.7000000000000001])
        | st.floats(0, 1), min_size=len(times), max_size=len(times)))
    return tuple(zip(times, saliences))


@given(increasing_curves())
@example(((Fraction(0), 0.2), (Fraction(1, 3), 0.9), (Fraction(1), 0.1),
          (Fraction(3, 2), 0.9)))
@example(((Fraction(0), 0.5),))
@example(())
def test_locate_climax_matches_time_comparisons(curve):
    try:
        expected = oracle_locate_climax(curve)
    except AnalysisError as exc:
        with pytest.raises(AnalysisError, match=str(exc)):
            locate_climax(curve)
        return
    profile = locate_climax(curve)
    assert profile.curve is curve
    # bit for bit: the same floats summed in the same order
    assert (profile.peak_time, profile.normalized_position,
            profile.asymmetry_index, profile.pre_mass_fraction) == expected


# --- invariants ---------------------------------------------------------------

def test_bounds_on_random_pieces():
    rng = random.Random(2023)
    for _ in range(200):
        piece = random_piece(rng)
        profile = climax_profile(piece)
        assert 0.0 <= profile.normalized_position <= 1.0
        assert -1.0 <= profile.asymmetry_index <= 1.0
        assert 0.0 <= profile.pre_mass_fraction <= 1.0


def test_velocity_scaling_preserves_argmax():
    rng = random.Random(7)
    for _ in range(30):
        piece = random_piece(rng)
        if any(e.velocity > 63 for e in piece.all_events()):
            continue  # doubling would clamp
        doubled = Piece(parts=tuple(
            Part(p.voice, tuple(
                NoteEvent(e.onset, e.duration, e.pitch, e.velocity * 2,
                          e.voice) for e in p.events))
            for p in piece.parts))
        assert climax_profile(piece).peak_time == \
            climax_profile(doubled).peak_time


def test_time_reversal_negates_asymmetry():
    # Antisymmetry is an argmax-level claim: it requires a peak that is
    # unique with margin (a plateau breaks it under any fixed tie rule).
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        piece = short_note_piece(rng)
        window = Fraction(4)
        fwd = climax_profile(piece, window=window)
        if peak_margin(fwd.curve) < 0.05:
            continue
        rev = climax_profile(reverse_piece(piece), window=window)
        grid_step = float((window / 2) / piece.beats_total)
        # one grid step of peak position = 2 grid steps of asymmetry
        assert abs(fwd.asymmetry_index + rev.asymmetry_index) \
            <= 2 * grid_step + 1e-9
        checked += 1
    assert checked >= 100


def smooth_piece(rng):
    """Monophonic melodies whose windowed mean peaks where the top pitch
    is: a monotone ramp or a mirror-symmetric arch."""
    if rng.random() < 0.5:
        n = rng.randint(8, 40)
        lo = rng.randint(30, 60)
        pitches = list(range(lo, lo + n))
    else:
        up = sorted(rng.sample(range(30, 100), rng.randint(4, 20)))
        pitches = up + up[-2::-1]
    return mono_piece(pitches)


def test_weight_degeneracy_peak_window_contains_highest_pitch():
    rng = random.Random(5)
    for _ in range(50):
        piece = smooth_piece(rng)
        window = Fraction(4)
        profile = climax_profile(piece, (1.0, 0.0, 0.0), window)
        top = max(e.pitch for e in piece.all_events())
        lo = profile.peak_time - window / 2
        hi = profile.peak_time + window / 2
        assert any(e.pitch == top and e.onset < hi and e.end > lo
                   for e in piece.all_events())


def test_fig1_fixture_is_right_skewed(fixtures_dir):
    piece = parse_text((fixtures_dir / "fixture_fig1.notes").read_text())
    profile = climax_profile(piece)
    assert profile.normalized_position > 0.5
    assert profile.asymmetry_index > 0.0
