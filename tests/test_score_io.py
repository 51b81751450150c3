import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arcform import (AnalysisError, MidiError, NoteEvent, NotesParseError,
                     Part, Piece, import_midi, parse_text, serialize_text,
                     skyline)

from oracles import midi_file, oracle_import_midi


# --- text format ------------------------------------------------------------

def test_parse_minimal_event_defaults():
    piece = parse_text("0 1 60")
    (part,) = piece.parts
    (ev,) = part.events
    assert ev == NoteEvent(Fraction(0), Fraction(1), 60, 64, 0)


def test_parse_metadata_and_fraction():
    piece = parse_text("@key C major\n0 1/2 67 100 2\n")
    assert piece.key == (0, "major")
    (part,) = piece.parts
    assert part.voice == 2
    assert part.events[0].duration == Fraction(1, 2)
    assert part.events[0].velocity == 100


def test_parse_zero_duration_rejected():
    with pytest.raises(NotesParseError) as err:
        parse_text("0 0 60")
    assert "non-positive duration" in str(err.value)
    assert err.value.line == 1


@pytest.mark.parametrize("source,fragment", [
    ("0 1", "field count"),
    ("0 1 60 64 0 9", "field count"),
    ("x 1 60", "non-numeric"),
    ("0 1 200", "pitch out of range"),
    ("0 1 60 0", "velocity out of range"),
    # several bad fields: the first failing check in this order wins
    ("-1 0 200 0", "non-positive duration"),
    ("-1 1 200 0", "negative onset"),
    ("0 1 200 0", "pitch out of range"),
    ("@key C major\n@key D minor", "duplicate @key"),
    ("@key H major", "unknown tonic"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(NotesParseError, match=fragment):
        parse_text(source)


def test_comments_and_blanks_skipped():
    piece = parse_text("# header\n\n0 1 60\n  # indented comment\n")
    assert len(piece.all_events()) == 1


def test_title_metadata():
    piece = parse_text("@title My Chorale No. 3\n0 1 60")
    assert piece.title == "My Chorale No. 3"


_beats = st.fractions(min_value=0, max_value=32, max_denominator=8)
_durations = st.fractions(min_value=Fraction(1, 8), max_value=8,
                          max_denominator=8)


@st.composite
def pieces(draw, max_voices=3, max_events=12):
    n_voices = draw(st.integers(1, max_voices))
    parts = []
    for voice in range(n_voices):
        events = draw(st.lists(
            st.builds(NoteEvent,
                      onset=_beats, duration=_durations,
                      pitch=st.integers(0, 127),
                      velocity=st.integers(1, 127),
                      voice=st.just(voice)),
            min_size=1, max_size=max_events))
        parts.append(Part(voice=voice, events=tuple(events)))
    key = draw(st.none() | st.tuples(st.integers(0, 11),
                                     st.sampled_from(["major", "minor"])))
    title = draw(st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        max_size=12))
    return Piece(parts=tuple(parts), key=key, title=title.strip())


@given(pieces())
def test_text_round_trip(piece):
    assert parse_text(serialize_text(piece)) == piece


def test_beats_total_is_max_event_end():
    piece = parse_text("0 1 60\n2 3/2 64\n")
    assert piece.beats_total == Fraction(7, 2)
    assert Piece().beats_total == 0


_rational = st.builds(Fraction, st.integers(0, 5000), st.integers(1, 97))


@given(st.lists(st.lists(st.tuples(_rational, _rational.filter(bool)),
                         max_size=8), max_size=4))
def test_timeline_ticks_are_the_exact_beats(voices):
    piece = Piece(parts=tuple(
        Part(v, tuple(NoteEvent(on, dur, 60) for on, dur in notes))
        for v, notes in enumerate(voices)))
    events = piece.all_events()
    scale, onsets, ends = piece.timeline
    assert [Fraction(t, scale) for t in onsets] == [e.onset for e in events]
    assert [Fraction(t, scale) for t in ends] == [e.end for e in events]
    assert piece.beats_total == max((e.end for e in events), default=0)
    assert type(piece.beats_total) is Fraction


class _Beats(Fraction):
    pass


@pytest.mark.parametrize("value,exact", [
    (3, Fraction(3)),
    (0.375, Fraction(3, 8)),
    ("7/3", Fraction(7, 3)),
    (_Beats(5, 2), Fraction(5, 2)),
    (Fraction(1, 96), Fraction(1, 96)),
])
def test_note_event_stores_exact_fractions(value, exact):
    ev = NoteEvent(value, value, 60)
    for stored in (ev.onset, ev.duration):
        assert type(stored) is Fraction
        assert stored == exact


@pytest.mark.parametrize("onset,duration,message", [
    (Fraction(-1, 3), Fraction(1), "negative onset"),
    (Fraction(0), Fraction(0), "non-positive duration"),
    (Fraction(1), Fraction(-1, 7), "non-positive duration"),
    (-1, 0, "non-positive duration"),
])
def test_note_event_sign_checks(onset, duration, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        NoteEvent(onset, duration, 60)


def test_part_orders_onsets_that_round_to_one_float():
    third = Fraction(1, 3)
    later = third + Fraction(1, 10 ** 30)
    assert float(later) == float(third)
    events = (NoteEvent(later, 1, 50), NoteEvent(third, 1, 70),
              NoteEvent(third, 1, 60), NoteEvent(later, 1, 40, 9),
              NoteEvent(later, 1, 40, 8))
    assert Part(0, events).events == (events[2], events[1], events[3],
                                      events[4], events[0])


# --- MIDI import ------------------------------------------------------------

def test_midi_single_quarter_note():
    data = midi_file([[(0, [0x90, 60, 80]), (480, [0x80, 60, 0])]],
                     division=480, fmt=0)
    piece = import_midi(data)
    (part,) = piece.parts
    (ev,) = part.events
    assert (ev.onset, ev.duration, ev.pitch, ev.velocity) == (0, 1, 60, 80)


def test_midi_velocity_zero_is_note_off():
    data = midi_file([[(0, [0x90, 64, 70]), (240, [0x90, 64, 0])]])
    (part,) = import_midi(data).parts
    assert part.events[0].duration == Fraction(1, 2)


def test_midi_running_status():
    # second note-on omits the status byte
    data = midi_file([[(0, [0x90, 60, 70]),
                       (480, [62, 70]),
                       (480, [0x80, 60, 0]),
                       (0, [0x80, 62, 0])]])
    (part,) = import_midi(data).parts
    assert [e.pitch for e in part.events] == [60, 62]


def test_midi_two_tracks_become_two_voices():
    data = midi_file([
        [(0, [0x90, 60, 70]), (480, [0x80, 60, 0])],
        [(0, [0x90, 72, 70]), (960, [0x80, 72, 0])],
    ])
    piece = import_midi(data)
    assert [p.voice for p in piece.parts] == [0, 1]
    assert piece.beats_total == 2


def test_midi_empty_track_list():
    piece = import_midi(midi_file([]))
    assert piece.parts == ()
    assert piece.beats_total == 0


def test_midi_unmatched_note_on_closed_with_warning():
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x90, 62, 70]),
                       (480, [0x80, 62, 0])]])
    with pytest.warns(UserWarning, match="unmatched note-on"):
        piece = import_midi(data)
    pitches = sorted(e.pitch for e in piece.all_events())
    assert pitches == [60, 62]
    # closed at track end
    held = next(e for e in piece.all_events() if e.pitch == 60)
    assert held.end == 2


def test_midi_bad_magic():
    with pytest.raises(MidiError, match="magic"):
        import_midi(b"RIFF" + bytes(20))


def test_midi_truncated_chunk():
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x80, 60, 0])]])
    with pytest.raises(MidiError, match="truncated"):
        import_midi(data[:-5])


@pytest.mark.parametrize("events", [
    [(0, [0x90, 60, 200]), (480, [0x80, 60, 0])],   # velocity byte
    [(0, [0x90, 0xBC, 70]), (480, [0x80, 60, 0])],  # pitch byte
    [(0, [0x90, 60, 70]), (480, [0x80, 0xBC, 0])],  # note-off pitch byte
    [(0, [0xC0, 0x85])],                            # program change
])
def test_midi_high_bit_data_byte_rejected(events):
    with pytest.raises(MidiError, match="high bit"):
        import_midi(midi_file([events]))


@pytest.mark.parametrize("message", [
    [0xFF, 0x01, 0x7F, 0x41, 0x42],  # text meta claims 127 bytes
    [0xF0, 0x40, 0x01, 0xF7],        # sysex claims 64 bytes
])
def test_midi_event_length_past_track_end_rejected(message):
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x80, 60, 0]),
                       (0, message)]])
    with pytest.raises(MidiError, match="past the end"):
        import_midi(data)


@st.composite
def smf_files(draw):
    """Well-formed SMFs dense in what the reader must order right: a few
    channels and pitches, so notes of one (channel, pitch) overlap and
    several notes share an onset and a pitch; velocity-0 note-offs,
    running status, meta events and unmatched note-ons."""
    division = draw(st.sampled_from([1, 3, 96, 480, 1000]))
    fmt = draw(st.sampled_from([0, 1]))
    messages = st.tuples(st.just(0) | st.integers(0, 3 * division),
                         st.sampled_from([0x80, 0x90, 0x90, 0xFF]),
                         st.integers(0, 2), st.integers(58, 62),
                         st.integers(0, 127), st.booleans())
    tracks = []
    for _ in range(1 if fmt == 0 else draw(st.integers(1, 3))):
        track, status = [], None
        for delta, kind, channel, pitch, velocity, running in draw(
                st.lists(messages, max_size=40)):
            if kind == 0xFF:
                message, status = [0xFF, 0x01, 0x00], None
            elif (kind | channel) == status and running:
                message = [pitch, velocity]
            else:
                status = kind | channel
                message = [status, pitch, velocity]
            track.append((delta, message))
        tracks.append(track)
    return midi_file(tracks, division=division, fmt=fmt)


@given(smf_files())
def test_import_midi_matches_note_by_note_reader(data):
    def read(importer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            piece = importer(data)
        return piece, [str(w.message) for w in caught]

    piece, warned = read(import_midi)
    expected, expected_warned = read(oracle_import_midi)
    # equal Parts hold equal events in the same order
    assert piece == expected
    assert warned == expected_warned


def test_midi_smpte_division_rejected():
    import struct
    data = struct.pack(">4sIHHH", b"MThd", 6, 0, 0, 0xE250)
    with pytest.raises(MidiError, match="SMPTE"):
        import_midi(data)


# --- skyline ---------------------------------------------------------------

def test_skyline_identity_on_monophonic_part():
    piece = parse_text("0 1 60 64 3\n1 1 62 64 3\n3 2 64 64 3\n")
    line = skyline(piece)
    assert line.events == piece.parts[0].events


def test_skyline_max_rule():
    piece = parse_text("0 1 60\n0 1 67\n")
    line = skyline(piece)
    assert [e.pitch for e in line.events] == [67]


def test_skyline_held_top_note_masks_lower_voice():
    piece = parse_text("0 4 72 64 0\n0 2 60 64 1\n2 2 62 64 1\n")
    line = skyline(piece)
    assert len(line.events) == 1
    assert line.events[0] == NoteEvent(0, 4, 72, 64, 0)


def test_skyline_lower_note_truncated_then_resumes():
    # low held note interrupted by a higher short note in the middle
    piece = parse_text("0 4 60 64 0\n1 1 72 64 1\n")
    line = skyline(piece)
    assert [(e.onset, e.duration, e.pitch) for e in line.events] == [
        (0, 1, 60), (Fraction(1), Fraction(1), 72), (Fraction(2), Fraction(2), 60)]


def test_skyline_equal_pitch_tie_earlier_start_wins():
    piece = parse_text("0 2 60 100 0\n1 2 60 50 1\n")
    line = skyline(piece)
    assert line.events[0].velocity == 100
    assert line.events[0].onset == 0


def test_skyline_empty_piece_errors():
    with pytest.raises(AnalysisError, match="empty"):
        skyline(Piece())


@given(pieces(max_voices=3, max_events=8))
def test_skyline_is_monophonic_and_tracks_max_pitch(piece):
    line = skyline(piece)
    for a, b in zip(line.events, line.events[1:]):
        assert a.end <= b.onset
    # brute-force sweep: at every segment midpoint the skyline pitch
    # equals the highest sounding pitch
    events = piece.all_events()
    bounds = sorted({e.onset for e in events} | {e.end for e in events})
    for lo, hi in zip(bounds, bounds[1:]):
        mid = (lo + hi) / 2
        sounding = [e.pitch for e in events if e.onset <= mid < e.end]
        covering = [e.pitch for e in line.events if e.onset <= mid < e.end]
        if sounding:
            assert covering == [max(sounding)]
        else:
            assert covering == []
