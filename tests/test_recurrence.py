from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from arcform import (AnalysisError, NoteEvent, Part, Piece,
                     chromaticism_index, classify_cadence, climax_profile,
                     estimate_key, find_recurrences, interval_profile,
                     parse_text, similarity, skyline)
from arcform.config import DEFAULTS
from arcform.recurrence import (_BOUND_BITS, IntervalProfile, _joint_cut,
                                _lane_width, _packed_distances, _read_lanes,
                                _score, _weight_ticks)

from oracles import (melody, oracle_chromaticism_index,
                     oracle_classify_cadence, oracle_find_recurrences,
                     oracle_similarity, oracle_skyline,
                     recursive_edit_distance, table_edit_distance)


# --- interval_profile --------------------------------------------------------

def test_profile_arithmetic():
    prof = interval_profile(melody([60, 62, 64]))
    assert prof.steps == (2, 2)
    assert prof.ratios == (1, 1)


def test_profile_transposition_invariance():
    assert interval_profile(melody([60, 62, 64])) == \
        interval_profile(melody([67, 69, 71]))


def test_profile_single_note_empty():
    prof = interval_profile(melody([60]))
    assert prof.steps == () and prof.ratios == ()


def test_profile_rejects_polyphony_and_empty():
    poly = Part(0, (NoteEvent(0, 2, 60), NoteEvent(1, 1, 64)))
    with pytest.raises(AnalysisError, match="polyphonic"):
        interval_profile(poly)
    with pytest.raises(AnalysisError, match="empty"):
        interval_profile(Part(0, ()))


# --- similarity --------------------------------------------------------------

def test_similarity_identical_is_one():
    prof = interval_profile(melody([60, 62, 64, 65, 67]))
    assert similarity(prof, prof) == 1.0


def test_similarity_one_substitution_in_eight():
    a = IntervalProfile((1,) * 8, (Fraction(1),) * 8)
    b = IntervalProfile((1,) * 7 + (2,), (Fraction(1),) * 8)
    assert similarity(a, b, (1.0, 0.0)) == pytest.approx(0.875)


def test_similarity_against_empty_profile():
    a = IntervalProfile((1,) * 8, (Fraction(1),) * 8)
    empty = IntervalProfile((), ())
    assert similarity(a, empty, (1.0, 0.0)) == 0.0
    assert similarity(empty, empty) == 1.0


@pytest.mark.parametrize("weights", [(0.7, 0.3), (0.1, 0.9), (1.0, 0.0),
                                     (0.5, 0.5)])
def test_integer_score_is_the_exact_fraction_score(weights):
    # 0.1 and 0.9 are n / 2**55 and n / 2**53 as Fractions
    w_pitch, w_rhythm = map(Fraction, weights)
    ticks = _weight_ticks(weights)
    for denom in range(1, 25):
        for d_steps in range(denom + 2):
            for d_ratios in range(denom + 2):
                exact = 1 - (w_pitch * Fraction(d_steps, denom)
                             + w_rhythm * Fraction(d_ratios, denom))
                assert _score(d_steps, d_ratios, denom, *ticks) == \
                    float(max(Fraction(0), exact))


def test_similarity_weight_violation():
    prof = IntervalProfile((), ())
    with pytest.raises(AnalysisError, match="weights"):
        similarity(prof, prof, (0.9, 0.3))
    with pytest.raises(AnalysisError, match="weights"):
        similarity(prof, prof, (1.5, -0.5))
    with pytest.raises(AnalysisError, match="weights"):
        similarity(prof, prof, (0.5, 0.3, 0.2))
    with pytest.raises(AnalysisError, match="weights"):
        similarity(prof, prof, (float("nan"), 1.0))


_PITCH_ALPHABET = [60, 62, 64, 65, 67]


@st.composite
def short_melodies(draw, max_len=6):
    n = draw(st.integers(1, max_len))
    pitches = draw(st.lists(st.sampled_from(_PITCH_ALPHABET),
                            min_size=n, max_size=n))
    durations = draw(st.lists(
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        min_size=n, max_size=n))
    return melody(pitches, durations)


@given(short_melodies(), short_melodies())
def test_similarity_symmetric_and_matches_oracle(m1, m2):
    a, b = interval_profile(m1), interval_profile(m2)
    s = similarity(a, b)
    assert s == similarity(b, a)
    assert 0.0 <= s <= 1.0
    assert s == oracle_similarity(a.steps, a.ratios, b.steps, b.ratios,
                                  0.7, 0.3)


@given(short_melodies(), st.integers(-12, 12),
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
def test_transposition_and_tempo_invariance(m, shift, scale):
    pitches = [e.pitch + shift for e in m.events]
    if not all(0 <= p <= 127 for p in pitches):
        shift = 0
        pitches = [e.pitch for e in m.events]
    scaled = []
    onset = Fraction(0)
    for e, p in zip(m.events, pitches):
        scaled.append(NoteEvent(onset, e.duration * scale, p))
        onset += e.duration * scale
    other = Part(0, tuple(scaled))
    assert interval_profile(other) == interval_profile(m)
    assert similarity(interval_profile(m), interval_profile(other)) == 1.0


# --- bit-vector edit distance -------------------------------------------------

def prefix_distances(pattern, text):
    """Distance to every text prefix: the packed kernel with one lane."""
    return [len(pattern)] + list(_packed_distances(pattern, text, 1,
                                                   len(text)))


@given(st.lists(st.integers(0, 3), max_size=10),
       st.lists(st.integers(0, 3), max_size=12))
def test_prefix_distances_match_recursive_oracle(pattern, text):
    assert prefix_distances(pattern, text) == [
        recursive_edit_distance(pattern, text[:k])
        for k in range(len(text) + 1)]
    assert table_edit_distance(pattern, text) == \
        recursive_edit_distance(pattern, text)


def test_prefix_distances_empty_query_and_empty_text():
    assert prefix_distances([], [5, 6, 7]) == [0, 1, 2, 3]
    assert prefix_distances([5, 6, 7], []) == [3]
    assert prefix_distances([], []) == [0]


def test_prefix_distances_pattern_longer_than_a_machine_word():
    pattern = [i % 7 for i in range(70)]
    text = [i % 5 for i in range(75)]
    got = prefix_distances(pattern, text)
    assert got[-1] == recursive_edit_distance(pattern, text)
    assert got[20] == recursive_edit_distance(pattern, text[:20])


@pytest.mark.parametrize("pattern_len", [1, 15, 16, 31, 32, 63, 64, 65])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_packed_distances_match_recursive_oracle_in_every_lane(pattern_len,
                                                               data):
    # pattern lengths on each side of every lane width (16, 32, 64, 128)
    pattern = data.draw(st.lists(st.integers(0, 3), min_size=pattern_len,
                                 max_size=pattern_len))
    text = data.draw(st.lists(st.integers(0, 4), max_size=10))
    lanes = data.draw(st.integers(1, max(1, len(text))))
    width = _lane_width(pattern_len)
    for t, packed in enumerate(
            _packed_distances(pattern, text, lanes, len(text)), 1):
        got = _read_lanes(packed, lanes, width)
        for s in range(min(lanes, len(text) - t + 1)):
            assert got[s] == recursive_edit_distance(pattern, text[s:s + t])


# --- heap-sweep skyline and one-pass recurrences against the oracles ------------

_GRID_ONSETS = st.builds(Fraction, st.integers(0, 24), st.sampled_from([1, 2, 3]))
_SHORT_DURATIONS = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])


@st.composite
def tied_parts(draw, voice, min_events=0, max_events=14):
    """Overlapping notes on a narrow pitch range (so equal-pitch ties are
    common), with rests between them and some notes repeated, exactly or
    with another velocity."""
    events = draw(st.lists(st.builds(
        NoteEvent, onset=_GRID_ONSETS, duration=_SHORT_DURATIONS,
        pitch=st.integers(60, 64), velocity=st.integers(1, 127),
        voice=st.integers(0, 2)), min_size=min_events, max_size=max_events))
    if events:
        for e in draw(st.lists(st.sampled_from(events), max_size=3)):
            velocity = draw(st.sampled_from([e.velocity, 1]))
            events.append(NoteEvent(e.onset, e.duration, e.pitch, velocity,
                                    e.voice))
    return Part(voice, tuple(events))


@st.composite
def tied_pieces(draw, max_parts=3):
    n = draw(st.integers(1, max_parts))
    return Piece(parts=tuple(draw(tied_parts(v)) for v in range(n)))


@st.composite
def monophonic_parts(draw, voice, min_events=0, max_events=14):
    """One note at a time, some after a rest, with the notes' own voices
    mixed as in a skyline."""
    notes = draw(st.lists(st.tuples(
        st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2)]),
        _SHORT_DURATIONS, st.integers(60, 64), st.integers(1, 127),
        st.integers(0, 2)), min_size=min_events, max_size=max_events))
    events = []
    onset = Fraction(0)
    for rest, duration, pitch, velocity, note_voice in notes:
        onset += rest
        events.append(NoteEvent(onset, duration, pitch, velocity, note_voice))
        onset += duration
    return Part(voice, tuple(events))


@given(st.one_of(
    tied_pieces(),
    # one monophonic part is its own line, without the sweep
    st.integers(0, 2).flatmap(monophonic_parts).map(
        lambda part: Piece(parts=(part,)))))
def test_skyline_matches_oracle(piece):
    if not piece.all_events():
        with pytest.raises(AnalysisError, match="empty"):
            skyline(piece)
        return
    assert skyline(piece) == oracle_skyline(piece)


THRESHOLDS = [0.01, 0.1, 0.3, 0.6, 0.9, 1.0]
WEIGHT_PAIRS = [(0.7, 0.3), (0.5, 0.5), (0.1, 0.9), (1.0, 0.0), (0.0, 1.0)]


@st.composite
def recurrence_cases(draw, notes=st.integers(2, 8), max_parts=3,
                     min_events=0, max_events=14,
                     kinds=("tied", "line", "short", "empty")):
    """A query of `notes` notes, and a piece whose parts may share a voice
    number. A part of each kind: overlapping notes (its skyline takes the
    sweep), one note at a time (it is its own skyline), fewer notes than
    the shortest window, or none. Parts of the first two kinds have
    `min_events` to `max_events` notes, more than the longest window for
    a short query."""
    n = draw(notes)
    lo = max(2, n // 2)
    parts = []
    for i in range(draw(st.integers(1, max_parts))):
        voice = draw(st.integers(0, max_parts - 1))
        # the first part is of a kind that can hold windows
        kind = draw(st.sampled_from(
            kinds if i else [k for k in kinds if k in ("tied", "line")]))
        if kind == "tied":
            part = draw(tied_parts(voice, min_events, max_events))
        elif kind == "line":
            part = draw(monophonic_parts(voice, min_events, max_events))
        elif kind == "short":
            part = draw(monophonic_parts(voice, 1, lo - 1))
        else:
            part = Part(voice, ())
        parts.append(part)
    piece = Piece(parts=tuple(parts))
    lines = [skyline(Piece(parts=(p,))).events for p in piece.parts
             if p.events]
    lines = [line for line in lines if len(line) >= n]
    if lines and draw(st.booleans()):
        # a slice of one part's own top line, so some windows score high
        line = draw(st.sampled_from(lines))
        start = draw(st.integers(0, len(line) - n))
        query = Part(0, line[start:start + n])
    else:
        query = melody(draw(st.lists(st.integers(60, 64), min_size=n,
                                     max_size=n)),
                       draw(st.lists(_SHORT_DURATIONS, min_size=n,
                                     max_size=n)))
    threshold = draw(st.sampled_from(THRESHOLDS))
    weights = draw(st.sampled_from(WEIGHT_PAIRS))
    return piece, query, threshold, weights


# A failing example is reported as drawn: shrinking it would rerun the
# oracle, which scores every window from scratch, for minutes.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@given(recurrence_cases())
@settings(deadline=None, phases=NO_SHRINK)
def test_find_recurrences_matches_oracle(case):
    piece, query, threshold, weights = case
    assert find_recurrences(piece, query, threshold, weights) == \
        oracle_find_recurrences(piece, query, threshold, weights)


@pytest.mark.parametrize("notes", [2, 16, 17, 33])
@given(data=st.data())
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
def test_find_recurrences_matches_oracle_at_lane_width_edges(notes, data):
    # profiles of 1, 15, 16 and 32 intervals: the narrowest pattern and
    # each side of the 16- and 32-bit lanes; the parts that are not empty
    # or short have at least that many notes, so their skylines hold
    # windows. The oracle takes seconds per 33-note query over a 49-note
    # line, so that case draws no lines; the smaller ones do.
    kinds = ("tied", "short", "empty") if notes > 17 else (
        "tied", "line", "short", "empty")
    piece, query, threshold, weights = data.draw(recurrence_cases(
        st.just(notes), 2, notes, notes + notes // 2, kinds))
    assert find_recurrences(piece, query, threshold, weights) == \
        oracle_find_recurrences(piece, query, threshold, weights)


EXTREME_WEIGHTS = [
    (5e-324, 1.0), (1.0, 5e-324), (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 10**400), 1 - Fraction(1, 10**400))]


@pytest.mark.parametrize("threshold", THRESHOLDS + [
    # a third, a Fraction just below the float 0.6 (which it rounds up
    # to), one just above the float below 1 (which it rounds down to)
    Fraction(1, 3), Fraction(0.6) - Fraction(1, 2**80),
    1 - Fraction(7, 10 * 2**53), 1])
@pytest.mark.parametrize("weights", WEIGHT_PAIRS + EXTREME_WEIGHTS)
def test_joint_bound_never_drops_a_passing_pair(weights, threshold):
    *ticks, den = _weight_ticks(weights)
    a, b = ((n << _BOUND_BITS) // den for n in ticks)
    for denom in range(1, 49):
        cut = _joint_cut(denom, threshold)
        for d_steps in range(denom + 1):
            for d_ratios in range(denom + 1):
                if _score(d_steps, d_ratios, denom, *ticks, den) >= threshold:
                    assert a * d_steps + b * d_ratios < cut
    # at the widest query of a lane width (one more note widens the
    # lane), every distance is at most the last denominator: the weighted
    # distance and the cut stay below the lane's high bit, so the packed
    # compare borrows from no other lane
    for notes in (16, 32):
        width = _lane_width(notes - 1)
        assert width == notes < _lane_width(notes)
        denom = -(-3 * notes // 2) - 1
        assert (a + b) * denom < 2 ** (width - 1)
        assert _joint_cut(denom, threshold) < 2 ** (width - 1)


@pytest.mark.parametrize("weights", EXTREME_WEIGHTS)
@pytest.mark.parametrize("threshold", [Fraction(1, 3), 0.6, 1])
def test_extreme_and_exact_weights_and_thresholds(weights, threshold):
    # a subnormal weight has a 1075-bit denominator and a Fraction one
    # may be far below any float, so the cuts take no float division
    piece = Piece(parts=(melody(TUNE),))
    query = melody(TUNE[2:9])
    assert find_recurrences(piece, query, threshold, weights) == \
        oracle_find_recurrences(piece, query, threshold, weights)


# --- find_recurrences ---------------------------------------------------------

TUNE = [60, 64, 62, 65, 64, 60, 62, 64, 65, 67, 65, 64]


def planted_piece(shifts, gap=4):
    events = []
    onset = Fraction(0)
    starts = []
    for shift in shifts:
        starts.append(onset)
        for pitch in TUNE:
            events.append(NoteEvent(onset, 1, pitch + shift))
            onset += 1
        onset += gap
    return Piece(parts=(Part(0, tuple(events)),)), starts


@pytest.mark.parametrize("statement, span", [
    # two notes split in two: the whole statement, ceil(1.5 * 4) notes,
    # scores 0.6, and each shorter window at most 0.5
    ([60, 64, 64, 67, 67, 72], (0, 6)),
    # one more split: the whole statement would score 0.5 but is a note
    # too long, and the 5-note window from the third note ties it
    ([60, 64, 64, 64, 67, 67, 72], (2, 7)),
])
def test_windows_reach_one_and_a_half_times_the_query(statement, span):
    piece = Piece(parts=(melody(statement),))
    query = melody([60, 64, 67, 72])
    series = find_recurrences(piece, query, 0.45, (1.0, 0.0))
    assert series == oracle_find_recurrences(piece, query, 0.45, (1.0, 0.0))
    assert [(m.start, m.end) for m in series.matches] == [span]


def test_windows_start_at_half_the_query():
    # a 6-note query takes windows of 3 to 9 notes. The 3-note statement
    # scores 0.2, and so does its first two notes' window: the third note
    # turns an insertion in each stream into a substitution. That
    # shorter window would win the tie, but it is too short.
    piece = Piece(parts=(melody([60, 62, 90], [1, 1, 3]),))
    query = melody([60, 62, 64, 65, 67, 69])
    series = find_recurrences(piece, query, 0.2, (0.5, 0.5))
    assert series == oracle_find_recurrences(piece, query, 0.2, (0.5, 0.5))
    assert [(m.start, m.end, m.similarity) for m in series.matches] == \
        [(0, 5, 0.2)]


def test_window_at_the_float_below_the_threshold_fails():
    # the best windows score 0.5 (two of four steps replaced). A Fraction
    # just above 0.5 rounds to 0.5, so they pass the joint bound, and the
    # exact compare with the threshold must drop them.
    piece = Piece(parts=(melody([60, 61, 62, 63, 65]),))
    query = melody([60, 62, 64, 65, 67])
    assert [m.similarity for m in find_recurrences(
        piece, query, 0.5, (1.0, 0.0)).matches] == [0.5]
    threshold = Fraction(1, 2) + Fraction(1, 2**60)
    assert find_recurrences(piece, query, threshold, (1.0, 0.0)).matches == ()


def test_parts_sharing_a_voice_compare_spans_in_beats():
    # the same tune in voice 0 at beats 20-28 in quarters (scale 1) and at
    # beats 10-14 in eighths (scale 2): equal ticks, disjoint beats
    tune = TUNE[:8]
    piece = Piece(parts=(melody(tune, start=20),
                         melody(tune, [Fraction(1, 2)] * 8, start=10)))
    series = find_recurrences(piece, melody(tune), 0.6, (0.7, 0.3))
    assert series == oracle_find_recurrences(piece, melody(tune), 0.6,
                                             (0.7, 0.3))
    assert [(m.start, m.end) for m in series.matches] == [(10, 14), (20, 28)]


def test_short_part_does_not_bound_the_window_length():
    # a 7-note part holds windows of the 12-note query (lo = 6), but the
    # statement in the other part is 12 notes long, in either part order
    short = melody(TUNE[:7], voice=1)
    statement = melody(TUNE, start=3, voice=0)
    for parts in ((short, statement), (statement, short)):
        piece = Piece(parts=parts)
        series = find_recurrences(piece, melody(TUNE), 1.0, (0.5, 0.5))
        assert series == oracle_find_recurrences(piece, melody(TUNE), 1.0,
                                                 (0.5, 0.5))
        assert [(m.part, m.start, m.end) for m in series.matches] == \
            [(0, 3, 15)]


def test_planted_exact_transpositions_recovered():
    piece, starts = planted_piece([0, 5, -3, 7])
    series = find_recurrences(piece, melody(TUNE), 1.0, (0.5, 0.5))
    assert [m.start for m in series.matches] == starts
    assert all(m.similarity == 1.0 for m in series.matches)
    assert series.outlier_index is None


def test_joint_bound_scores_only_the_windows_over_the_threshold(
        monkeypatch):
    # every lane that reaches the score memo passes through `compress`
    scored = []

    def counting(data, selectors):
        starts = list(compress(data, selectors))
        scored.extend(starts)
        return iter(starts)

    monkeypatch.setattr("arcform.recurrence.compress", counting)
    piece, _ = planted_piece([0, 5, -3, 7])
    query = melody(TUNE)
    threshold, weights = DEFAULTS.threshold, DEFAULTS.similarity_weights
    find_recurrences(piece, query, threshold, weights)
    line = skyline(piece).events
    profile, n = interval_profile(query), len(query)
    passing = sum(
        similarity(profile, interval_profile(Part(0, line[s:s + length])),
                   weights) >= threshold
        for length in range(max(2, n // 2), -(-3 * n // 2) + 1)
        for s in range(len(line) - length + 1))
    # exact here (210 of 210); the per-distance cuts it replaced let 298
    # lanes through for the 210 passing windows
    assert passing <= len(scored) <= 1.05 * passing


def test_planted_statements_found_in_128_bit_lanes():
    # a 70-note query has 69 intervals, so its lanes are 128 bits wide and
    # a step reads both distances from each lane's low 64 bits
    tune = [(60 + (5 * i * i + 3 * i) % 14, Fraction(1 + (i % 3 == 0), 2))
            for i in range(70)]
    assert _lane_width(len(tune) - 1) == 128
    varied = [(p + (i in (10, 30, 50)), d) for i, (p, d) in enumerate(tune)]
    statements = [[(p + 5, d) for p, d in tune], varied, tune,
                  [(p - 3, d) for p, d in tune]]
    events, spans = [], []
    onset = Fraction(0)
    for statement in statements:
        start = onset
        for pitch, dur in statement:
            events.append(NoteEvent(onset, dur, pitch))
            onset += dur
        spans.append((start, onset))
        onset += 4
    piece = Piece(parts=(Part(0, tuple(events)),))
    series = find_recurrences(piece, melody(*zip(*tune)), 0.6, (0.7, 0.3))
    assert [(m.start, m.end) for m in series.matches] == spans
    assert [m.similarity == 1.0 for m in series.matches] == \
        [True, False, True, True]
    assert series.outlier_index == 1


def test_no_statements_empty_series():
    piece = Piece(parts=(melody([60, 61, 60, 61, 60, 61, 60, 61,
                                 60, 61, 60, 61]),))
    series = find_recurrences(Piece(parts=(melody([60] * 12),)),
                              melody(TUNE), 0.9)
    assert series.matches == ()
    assert series.outlier_index is None


def test_query_too_short():
    with pytest.raises(AnalysisError, match="shorter than 2"):
        find_recurrences(Piece(parts=(melody(TUNE),)), melody([60]))


def test_deviation_complement_exact():
    piece, _ = planted_piece([0, 2])
    series = find_recurrences(piece, melody(TUNE), 0.5)
    for m in series.matches:
        assert m.deviation == 1.0 - m.similarity


def test_varied_statement_flagged_as_outlier():
    # four exact transpositions plus one statement with two subdivided
    # notes and one chromatic alteration
    piece, starts = planted_piece([0, 5, -3, 7])
    varied = [(60, Fraction(1, 2)), (62, Fraction(1, 2)), (64, 1), (62, 1),
              (65, 1), (64, 1), (60, 1), (62, 1), (64, Fraction(1, 2)),
              (63, Fraction(1, 2)), (65, 1), (67, 1), (65, 1), (64, 1)]
    onset = piece.beats_total + 4
    start5 = onset
    extra = []
    for pitch, dur in varied:
        extra.append(NoteEvent(onset, Fraction(dur), pitch))
        onset += Fraction(dur)
    piece = Piece(parts=(Part(0, piece.parts[0].events + tuple(extra)),))
    series = find_recurrences(piece, melody(TUNE), 0.6)
    assert len(series.matches) == 5
    assert series.outlier_index == 4
    outlier = series.matches[4]
    assert outlier.start >= start5 - 1 and outlier.similarity < 1.0


# --- chromaticism -------------------------------------------------------------

def test_chromaticism_diatonic_scale_zero():
    scale = melody([60, 62, 64, 65, 67, 69, 71, 72])
    assert chromaticism_index(scale, (0, "major")) == 0


def test_chromaticism_one_in_eight():
    seg = melody([60, 62, 64, 66, 67, 69, 71, 72])  # F# in C major
    assert chromaticism_index(seg, (0, "major")) == Fraction(1, 8)


def test_chromaticism_minor_admits_raised_seventh():
    seg = melody([57, 59, 60, 62, 64, 65, 68, 69])  # A minor with G#
    assert chromaticism_index(seg, (9, "minor")) == 0


def test_chromaticism_minor_admits_both_sevenths():
    seg = melody([57, 59, 60, 62, 64, 65, 67, 68, 69, 70])  # G, G#; B-flat
    assert chromaticism_index(seg, (9, "minor")) == Fraction(1, 10)


def test_chromaticism_requires_key():
    with pytest.raises(AnalysisError, match="estimate_key"):
        chromaticism_index(melody([60]), None)
    with pytest.raises(AnalysisError, match="empty"):
        chromaticism_index(Part(0, ()), (0, "major"))


# Parts of one piece on different tick scales: each voice counts in its
# own unit (thirds in one, quarters in another), on a short grid, so
# voices share onsets at whole beats and the piece's timeline rescales
# every part. A narrow pitch range makes unison closes, so cadences are
# often undecidable, and a part may be empty.
_UNITS = st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(1, 2),
                          Fraction(1)])
_KEYS = st.none() | st.tuples(st.integers(0, 11),
                              st.sampled_from(["major", "minor"]))


@st.composite
def mixed_scale_parts(draw, voice, unit):
    notes = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6),
                                    st.integers(55, 67)), max_size=10))
    return Part(voice, tuple(NoteEvent(unit * on, unit * dur, pitch, 64, voice)
                             for on, dur, pitch in notes))


@st.composite
def mixed_scale_pieces(draw, max_parts=3):
    units = draw(st.lists(_UNITS, min_size=1, max_size=max_parts))
    return Piece(parts=tuple(draw(mixed_scale_parts(v, unit))
                             for v, unit in enumerate(units)),
                 key=draw(_KEYS))


def outcome(function, *args):
    """The result of a call, or the message of its AnalysisError."""
    try:
        return function(*args)
    except AnalysisError as exc:
        return ("AnalysisError", str(exc))


@given(mixed_scale_pieces(), _KEYS)
@settings(max_examples=150)
def test_chromaticism_matches_oracle_on_mixed_scales(piece, key):
    for part in piece.parts:
        result = outcome(chromaticism_index, part, key)
        assert result == outcome(oracle_chromaticism_index, part, key)
        assert type(result) in (Fraction, tuple)


# --- estimate_key -------------------------------------------------------------

def brute_force_key(piece):
    """The best of the 24 keys by sorting them all, with mass summed as
    `Fraction` beats over every `NoteEvent`."""
    mass = {}
    for e in piece.all_events():
        mass[e.pitch % 12] = mass.get(e.pitch % 12, Fraction(0)) + e.duration
    scored = []
    for tonic in range(12):
        for mode in ("major", "minor"):
            base = ({0, 2, 4, 5, 7, 9, 11} if mode == "major"
                    else {0, 2, 3, 5, 7, 8, 10})
            scale = {(pc + tonic) % 12 for pc in base}
            overlap = sum((d for pc, d in mass.items() if pc in scale),
                          Fraction(0))
            scored.append((-overlap, 0 if mode == "major" else 1, tonic,
                           (tonic, mode)))
    return min(scored)[3]


def test_estimate_key_major_scale():
    piece = Piece(parts=(melody([60, 62, 64, 65, 67, 69, 71]),))
    assert estimate_key(piece) == (0, "major")


def test_estimate_key_transposition_covariance():
    piece = Piece(parts=(melody([67, 69, 71, 72, 74, 76, 78]),))
    assert estimate_key(piece) == (7, "major")


def test_estimate_key_tie_break_on_natural_minor_scale():
    # A natural minor: same pitch classes as C major; overlap ties and
    # the tie-break (major first, then lower tonic) decides
    piece = Piece(parts=(melody([57, 59, 60, 62, 64, 65, 67]),))
    assert estimate_key(piece) == brute_force_key(piece)
    assert estimate_key(piece) == (0, "major")


def test_estimate_key_reads_a_minor_melody_as_its_relative_major():
    # A natural minor, most of its duration on A and E
    pitches = [57, 59, 60, 62, 64, 65, 67, 69, 64, 57]
    piece = Piece(parts=(melody(pitches, [4, 1, 1, 1, 4, 1, 1, 4, 4, 4]),))
    assert estimate_key(piece) == brute_force_key(piece) == (0, "major")


@given(st.lists(st.tuples(st.integers(36, 84), st.integers(1, 4)),
                min_size=1, max_size=16), st.integers(-24, 24))
def test_estimate_key_moves_with_a_transposition(notes, shift):
    pitches, durations = zip(*notes)
    mass = [0] * 12
    for pitch, duration in notes:
        mass[pitch % 12] += duration
    major = (0, 2, 4, 5, 7, 9, 11)
    scores = sorted(sum(mass[(pc + tonic) % 12] for pc in major)
                    for tonic in range(12))
    assume(scores[-1] > scores[-2])  # one best major key
    tonic, mode = estimate_key(Piece(parts=(melody(pitches, durations),)))
    moved = melody([pitch + shift for pitch in pitches], durations)
    assert estimate_key(Piece(parts=(moved,))) == ((tonic + shift) % 12, mode)


@st.composite
def equal_mass_pieces(draw):
    """Pitch classes that each sound for one beat in all, as three thirds
    in voice 0 or four quarters in voice 1, so many keys tie, and they
    tie only if the two voices' masses are summed on one exact scale."""
    pcs = draw(st.lists(st.integers(0, 11), min_size=1, max_size=12,
                        unique=True))
    thirds, quarters = [], []
    for pc in pcs:
        pitch = pc + 12 * draw(st.integers(4, 6))
        count = draw(st.sampled_from([3, 4]))
        notes = thirds if count == 3 else quarters
        for _ in range(count):
            notes.append(NoteEvent(Fraction(len(notes), count),
                                   Fraction(1, count), pitch))
    return Piece(parts=(Part(0, thirds), Part(1, quarters)))


@given(st.one_of(
    st.lists(st.integers(36, 84), min_size=1, max_size=16).map(
        lambda pitches: Piece(parts=(melody(pitches),))),
    mixed_scale_pieces(), equal_mass_pieces()))
@settings(max_examples=150)
def test_estimate_key_matches_brute_force(piece):
    if not piece.all_events():
        with pytest.raises(AnalysisError, match="^empty piece$"):
            estimate_key(piece)
        return
    assert estimate_key(piece) == brute_force_key(piece)


# --- cadence classification ---------------------------------------------------

def chords(sonorities, key=None):
    events = []
    for i, pitches in enumerate(sonorities):
        for v, p in enumerate(pitches):
            events.append(NoteEvent(Fraction(i), 1, p, 64, v))
    return Piece(parts=(Part(0, tuple(events)),), key=key)


def test_plagal_cadence():
    piece = chords([(53, 60, 65), (48, 60, 64)])
    assert classify_cadence(piece, (0, "major")) == "plagal"


def test_authentic_cadence():
    piece = chords([(55, 59, 62), (48, 60, 64)])
    assert classify_cadence(piece, (0, "major")) == "authentic"


def test_half_cadence():
    piece = chords([(53, 57, 60), (55, 59, 62)])
    assert classify_cadence(piece, (0, "major")) == "half"


def test_other_cadence():
    piece = chords([(57, 60, 64), (48, 60, 64)])
    assert classify_cadence(piece, (0, "major")) == "other"


def test_cadence_uses_piece_key():
    piece = chords([(53, 60, 65), (48, 60, 64)], key=(0, "major"))
    assert classify_cadence(piece) == "plagal"


def test_cadence_undecidable_on_monophonic_close():
    piece = Piece(parts=(melody([60, 62, 64]),))
    with pytest.raises(AnalysisError, match="undecidable"):
        classify_cadence(piece, (0, "major"))


def test_cadence_requires_key():
    piece = chords([(53, 60, 65), (48, 60, 64)])
    with pytest.raises(AnalysisError, match="key"):
        classify_cadence(piece)


@st.composite
def closed_pieces(draw):
    """A mixed-scale piece and a key. With a key, the voices add a close
    at two whole beats, mostly after every other onset: a bass on the
    key's 5th, 4th or 2nd degree, then on its 1st, 5th or 3rd, each with
    one to three notes above it (or in unison with it) spread over the
    voices."""
    piece = draw(mixed_scale_pieces())
    key = draw(_KEYS)
    if key is None:
        return piece, key
    parts = [list(part.events) for part in piece.parts]
    close = sorted(draw(st.sets(st.integers(10, 16), min_size=2, max_size=2)))
    for onset, degrees in zip(close, ((7, 5, 2), (0, 7, 4))):
        bass = 48 + (key[0] + draw(st.sampled_from(degrees))) % 12
        for pitch in [bass, *draw(st.lists(st.integers(bass, bass + 16),
                                           min_size=1, max_size=3))]:
            voice = draw(st.integers(0, len(parts) - 1))
            parts[voice].append(NoteEvent(onset, 1, pitch, 64, voice))
    return Piece(parts=tuple(Part(voice, events)
                             for voice, events in enumerate(parts)),
                 key=piece.key), key


@given(closed_pieces())
@settings(max_examples=200)
def test_classify_cadence_matches_oracle_on_mixed_scales(case):
    piece, key = case
    assert outcome(classify_cadence, piece, key) == \
        outcome(oracle_classify_cadence, piece, key)
    assert outcome(classify_cadence, piece) == \
        outcome(oracle_classify_cadence, piece)


# --- the encoded chorale fixture ----------------------------------------------

def test_fixture_chorale_series(fixtures_dir):
    piece = parse_text((fixtures_dir / "passion_chorales.notes").read_text())
    query = skyline(parse_text(
        (fixtures_dir / "chorale_query.notes").read_text()))
    series = find_recurrences(piece, query, 0.6)
    assert len(series.matches) == 5
    assert series.outlier_index == 4


def test_fixture_cadences_both_plagal(fixtures_dir):
    passion = parse_text((fixtures_dir / "passion_close_62.notes").read_text())
    oratorio = parse_text((fixtures_dir / "oratorio_close_5.notes").read_text())
    assert classify_cadence(passion) == "plagal"
    assert classify_cadence(passion) == classify_cadence(oratorio)


def test_no_analysis_builds_note_events(fixtures_dir):
    piece = parse_text((fixtures_dir / "passion_close_62.notes").read_text())
    query = skyline(parse_text(
        (fixtures_dir / "chorale_query.notes").read_text()))
    line = skyline(piece)
    climax_profile(piece)
    find_recurrences(piece, query)
    key = estimate_key(piece)
    classify_cadence(piece, key)
    chromaticism_index(line, key)
    for part in (*piece.parts, query, line):
        assert "events" not in vars(part)
