import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcform import (AnalysisError, MidiError, NoteEvent, NotesParseError,
                     Part, Piece, import_midi, parse_text, serialize_text,
                     skyline)
from arcform import score
from arcform.score import MAX_SCALE_BITS

from oracles import midi_file, oracle_import_midi, oracle_parse_text, varlen


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
    ("0 1 128", "pitch out of range"),
    ("0 1 60 0", "velocity out of range"),
    ("0 1 60 128", "velocity out of range"),
    # several bad fields: the first failing check in this order wins
    ("-1 0 200 0", "non-positive duration"),
    ("-1 1 200 0", "negative onset"),
    ("0 1 200 0", "pitch out of range"),
    ("@key C major\n@key D minor", "duplicate @key"),
    # the token count of two five-field lines, not their field counts
    ("0 1 60 64 0 7\n1 1 62 64", "field count, line 1"),
    ("0 1 60 64\n1 1 62 64 0 7", "field count, line 2"),
    # two lines of 13 tokens, not the 11 of two five-field lines
    ("0 1 60 64 0\n1 1 62 64 0 9 9", "field count, line 2"),
    ("@key H major", "unknown tonic"),
    # the first fault by line wins, wherever the `@` lines fall
    ("0 1 200\n@key C major\n@key D minor", "pitch out of range, line 1"),
    ("0 1 60\n@key C major\n@key D minor\n0 1 60 0",
     "duplicate @key, line 3"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(NotesParseError, match=fragment):
        parse_text(source)


def test_tick_scale_bound_edge():
    # a denominator of 2**1023 needs a 1024-bit scale, the most allowed
    assert MAX_SCALE_BITS == 1024
    piece = parse_text(f"1/{2 ** 1023} 1 60\n0 1/{2 ** 1023} 62\n")
    assert piece.parts[0].scale == 2 ** 1023
    with pytest.raises(NotesParseError,
                       match="1025-bit tick scale, over 1024, line 1$"):
        parse_text(f"1/{2 ** 1024} 1 60\n")
    # the scale is the lcm of every token so far, across voices
    with pytest.raises(NotesParseError,
                       match="1025-bit tick scale, over 1024, line 3$"):
        parse_text(f"1/{2 ** 1023} 1 60 64 0\n1 1/{2 ** 1023} 60\n"
                   f"0 1/3 62 64 1\n")
    # the same in five-field lines, which the columnar reader takes first
    piece = parse_text(f"1/{2 ** 1023} 1 60 64 0\n0 1/{2 ** 1023} 62 64 0\n")
    assert piece.parts[0].scale == 2 ** 1023
    with pytest.raises(NotesParseError,
                       match="1025-bit tick scale, over 1024, line 3$"):
        parse_text(f"1/{2 ** 1023} 1 60 64 0\n1 1/{2 ** 1023} 60 64 0\n"
                   f"0 1/3 62 64 1\n")


def test_tick_scale_bound_on_an_odd_denominator():
    # 3**646 takes 1024 bits, the most allowed, so the bound leaves no
    # room for a factor of 2 that no beat's denominator holds
    den = 3 ** 646
    assert den.bit_length() == MAX_SCALE_BITS
    assert parse_text(f"0 1/{den} 60\n").parts[0].scale == den
    # the walk that names a later fault takes the same bound
    with pytest.raises(NotesParseError,
                       match="velocity out of range, line 2$"):
        parse_text(f"0 1/{den} 60\n0 1 60 0\n")


# Lines for the reader against its oracle: note lines of 2 to 6 fields
# whose tokens are mostly good, with signs, reducible and zero
# denominators, digit separators and non-ASCII digits mixed in, and
# denominators whose lcm crosses MAX_SCALE_BITS within a few lines;
# comments, blank lines and metadata, good, bad or repeated; any Unicode
# whitespace between fields and any line break between lines.
BIG_DENOMINATORS = [3 ** 200, 5 ** 150, 7 ** 120, 11 ** 100, 2 ** 1023,
                    2 ** 1024]
beat_tokens = st.one_of(
    st.integers(0, 8).map(str),
    st.builds("{}/{}".format, st.integers(0, 9),
              st.sampled_from([1, 2, 3, 4, 6, 8, 12])),
    st.builds("{}/{}".format, st.integers(1, 3),
              st.sampled_from(BIG_DENOMINATORS)),
    st.sampled_from(["+3", "-1", "-1/-2", "1/-2", "-1/2", "2/4", "0/5",
                     "1/0", "/0", "1/", "1_0", "1/1_2", "٣",
                     "٣/٤", "1.5", "x"]))
int_tokens = st.one_of(
    st.integers(1, 127).map(str), st.integers(-1, 129).map(str),
    st.sampled_from(["+3", "-0", "1_0", "٣", "７", "0x1", "x",
                     "1/2"]))
note_lines = st.builds(
    lambda on, dur, rest, seps: "".join(
        token + sep for token, sep in zip([on, dur, *rest], seps)),
    beat_tokens, beat_tokens, st.one_of(
        st.lists(int_tokens, min_size=1, max_size=3),
        st.lists(int_tokens, max_size=4)),
    st.lists(st.sampled_from([" ", "  ", "\t", "\u00a0", "\u2003",
                              "\u3000", " \t"]), min_size=6, max_size=6))
other_lines = st.sampled_from([
    "", "   ", "\t", "#", "# comment", "#0 1 60", "  # 0 1 60 64 0",
    "@title", "@title A piece", "@title\tTabbed  title ", "@key C major",
    "@key F# minor", "@key Bb MAJOR", "@key\u2003D\u2003minor",
    "@key H major", "@key C", "@key C major extra", "@key C dorian",
    "@key Cx major", "@tempo 120", "@"])
notes_sources = st.lists(st.builds(
    "{}{}{}".format, st.sampled_from(["", " ", "\t", "\u2003"]),
    st.one_of(note_lines, note_lines, note_lines, other_lines),
    st.sampled_from(["\n", "\r\n", "\r", "\u2028", "\x85", "\x1c"])),
    max_size=12).map("".join)


def _parse_outcome(parse, source):
    try:
        return parse(source)
    except NotesParseError as exc:
        return str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(notes_sources)
def test_parse_text_matches_its_oracle(source):
    assert _parse_outcome(parse_text, source) == \
        _parse_outcome(oracle_parse_text, source)


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


# One token of a written piece changed, and the note fields it may go in:
# each change is either read by the columnar reader ("+3", "٣", "300" as
# a voice) or a fault that the walker names.
CHANGED_TOKENS = {"128": [2], "0": [1, 3], "1/0": [0, 1], "1/-2": [0, 1],
                  "-1/2": [0, 1], "1/2/3": [0, 1], "+3": [0, 1, 2, 3, 4],
                  "٣": [0, 1, 2, 3, 4], "300": [4]}


@st.composite
def regular_sources(draw):
    """`serialize_text` of a piece of up to four voices, sometimes with
    one token changed, one field dropped or a trailing comment."""
    lines = serialize_text(draw(pieces(max_voices=4))).splitlines()
    change = draw(st.sampled_from(
        [None, None, None, "drop", "comment", *CHANGED_TOKENS]))
    notes = [i for i, line in enumerate(lines) if line[0] != "@"]
    if change is not None:
        i = draw(st.sampled_from(notes))
        fields = lines[i].split()
        if change == "drop":
            fields.pop()
        elif change == "comment":
            fields.append("# comment")
        else:
            fields[draw(st.sampled_from(CHANGED_TOKENS[change]))] = change
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(regular_sources())
def test_parse_text_matches_its_oracle_on_regular_files(source):
    assert _parse_outcome(parse_text, source) == \
        _parse_outcome(oracle_parse_text, source)


def bench_shaped_text(seed, notes=600, voices=4):
    """A file as the benchmark writes one: a title, then notes sorted by
    onset across the voices, onsets in eighths and durations of 1/8 to 2
    beats."""
    rng = random.Random(seed)
    rows = sorted((Fraction(rng.randrange(8 * notes), 8),
                   Fraction(rng.choice([1, 2, 3, 4, 6, 8, 16]), 8),
                   rng.randrange(36, 90), rng.randrange(30, 120),
                   rng.randrange(voices)) for _ in range(notes))
    return "".join([f"@title bench {seed}\n",
                    *(f"{on} {dur} {p} {vel} {v}\n"
                      for on, dur, p, vel, v in rows)])


# A valid file that reached `score._raise_first_fault` would end in its
# AssertionError, so each test that reads a valid file, here and above,
# pins that the columnar reader read it.
@given(pieces(max_voices=4))
def test_written_pieces_take_the_columnar_path(piece):
    assert parse_text(serialize_text(piece)) == piece


def test_valid_file_splits_each_block_at_once(monkeypatch):
    # only the leading lines, the tags and the first note, go through
    # `score._note_fields`; splitting every line by it reads the same
    # piece about a third slower
    rows = [(Fraction(i // 4, 2), Fraction(1 + i % 3, 4), 40 + 7 * i % 50,
             1 + i % 127, i % 4) for i in range(1000)]
    piece = Piece(parts=[Part(v, [NoteEvent(*row) for row in rows
                                  if row[4] == v]) for v in range(4)],
                  key=(2, "minor"), title="one split")
    text = serialize_text(piece)
    seen = []
    note_fields = score._note_fields

    def spy(raw, tags):
        seen.append(raw)
        return note_fields(raw, tags)

    monkeypatch.setattr(score, "_note_fields", spy)
    assert parse_text(text) == piece
    assert seen == text.splitlines()[:3]


def test_fixtures_and_bench_files_take_the_columnar_path():
    fixtures = Path(__file__).parent / "fixtures"
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(fixtures.rglob("*.notes"))]
    sources = [text for text in sources
               if not isinstance(_parse_outcome(oracle_parse_text, text),
                                 tuple)]
    assert len(sources) == 11
    sources += [bench_shaped_text(seed) for seed in range(3)]
    expected = [oracle_parse_text(text) for text in sources]
    assert [parse_text(text) for text in sources] == expected


# Valid shapes other than a written piece's, each put among or after
# 256 note lines, which fill two blocks.
_NOTES = bench_shaped_text(0, notes=256).splitlines()
_MIDDLE = len(_NOTES) // 2


@pytest.mark.parametrize("text", [
    pytest.param("\n".join(_NOTES) + "\n# end\n\n \t \n",
                 id="trailing-comment-and-blanks"),
    pytest.param("\n".join(_NOTES[:_MIDDLE] + [""] + _NOTES[_MIDDLE:]),
                 id="blank-mid-file"),
    pytest.param("\n".join(_NOTES[:_MIDDLE] + ["  # a comment"]
                           + _NOTES[_MIDDLE:]), id="comment-mid-file"),
    # a blank and a comment line that make the count of tokens of four
    # five-field lines: only the `#` tells the block apart
    pytest.param("\n".join(_NOTES[:_MIDDLE] + [
        "0 1 60 64 0", "", "# 1 2 3 4 5 6 7 8 9", "1 1 62 64 0"]
        + _NOTES[_MIDDLE:]), id="five-field-token-count"),
    # a title of five tokens, as many as a note line's
    pytest.param("\n".join(_NOTES[1:_MIDDLE] + ["@title late in the file"]
                           + _NOTES[_MIDDLE:] + ["@key F# minor"]),
                 id="late-tags"),
    pytest.param("\n".join(_NOTES + ["9 1 60", "9 1 60 100",
                                     "10 1/2 61 100 0"]),
                 id="three-and-four-fields"),
    pytest.param("\n".join(_NOTES + ["9 1 60 64 300", "9 1 60 64 -1"]),
                 id="voices-300-and-minus-1"),
    pytest.param("\n".join(_NOTES + ["9 1 +60 064 1_0", "-1/-2 1 ٣ 64 0"]),
                 id="int-spellings"),
    pytest.param("0 1 +60 064 1_0\n", id="int-spellings-alone"),
])
def test_valid_shapes_take_the_columnar_path(text):
    assert parse_text(text) == oracle_parse_text(text)


@st.composite
def tied_pieces(draw):
    """Notes that share onsets (any denominator) and pitches, so equal
    (onset, pitch) keys must keep the order they were given in."""
    onsets = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 7),
                              Fraction(5, 2), Fraction(10, 3), Fraction(4)])
    parts = []
    for voice in draw(st.lists(st.integers(-2, 5), min_size=1, max_size=4,
                               unique=True).map(sorted)):
        events = draw(st.lists(st.builds(
            NoteEvent, onset=onsets, duration=_durations,
            pitch=st.sampled_from([0, 60, 61, 127]),
            velocity=st.integers(1, 127), voice=st.just(voice)),
            min_size=1, max_size=10))
        parts.append(Part(voice, events))
    return Piece(parts=tuple(parts))


@given(tied_pieces())
def test_columns_parsed_from_text_equal_columns_built_from_events(piece):
    parsed = parse_text(serialize_text(piece))
    assert parsed == piece and hash(parsed) == hash(piece)
    assert [p.events for p in parsed.parts] == [p.events for p in piece.parts]
    assert parsed.all_events() == piece.all_events()
    assert parsed.timeline == piece.timeline


def test_part_from_columns_equals_part_from_events():
    # times in ticks of 1/12 beat, out of order, with an (onset, pitch) tie
    columns = ((6, 0, 6, 3), (3, 12, 9, 6), (62, 60, 62, 64),
               (10, 20, 30, 40), (1, 1, 1, 2))
    built = Part._from_columns(1, 12, columns)
    events = (NoteEvent(Fraction(1, 2), Fraction(1, 4), 62, 10, 1),
              NoteEvent(0, 1, 60, 20, 1),
              NoteEvent(Fraction(1, 2), Fraction(3, 4), 62, 30, 1),
              NoteEvent(Fraction(1, 4), Fraction(1, 2), 64, 40, 2))
    from_events = Part(1, events)
    assert built == from_events and hash(built) == hash(from_events)
    assert built.scale == 4 and built.onsets == (0, 1, 2, 2)
    assert built.events == from_events.events == (
        events[1], events[3], events[0], events[2])


def test_part_sorts_notes_out_of_order_only_in_the_last_pair():
    events = (NoteEvent(0, 1, 60), NoteEvent(1, 1, 62), NoteEvent(1, 1, 61))
    assert Part(0, events).pitches == (60, 61, 62)


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


def test_midi_velocity_zero_closes_the_note_before_track_end():
    data = midi_file([[(0, [0x90, 64, 70]), (240, [0x90, 64, 0]),
                       (240, [0xB0, 7, 100])]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (part,) = import_midi(data).parts
    assert [e.duration for e in part.events] == [Fraction(1, 2)]


def test_midi_overlapping_notes_of_one_key_close_oldest_first():
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x90, 60, 90]),
                       (480, [0x80, 60, 0]), (480, [0x80, 60, 0])]])
    (part,) = import_midi(data).parts
    assert [(e.onset, e.duration, e.velocity) for e in part.events] == [
        (0, 2, 70), (1, 2, 90)]


def test_midi_repair_warning_names_the_caller_of_import_midi():
    data = midi_file([[(0, [0x90, 60, 70])]])
    with pytest.warns(UserWarning, match="unmatched note-on") as record:
        import_midi(data)
    assert record[0].filename == __file__


def test_midi_running_status():
    # second note-on omits the status byte
    data = midi_file([[(0, [0x90, 60, 70]),
                       (480, [62, 70]),
                       (480, [0x80, 60, 0]),
                       (0, [0x80, 62, 0])]])
    (part,) = import_midi(data).parts
    assert [e.pitch for e in part.events] == [60, 62]


@pytest.mark.parametrize("message", [
    [0xFF, 0x01, 0x00],  # empty text meta event
    [0xF0, 0x01, 0xF7],  # sysex event
])
def test_meta_and_sysex_events_cancel_running_status(message):
    # a data byte after a meta or sysex event has no status to run on
    data = midi_file([[(0, [0x90, 60, 70]), (0, message),
                       (480, [60, 0])]])
    with pytest.raises(MidiError, match="data byte without running status"):
        import_midi(data)


def test_midi_two_tracks_become_two_voices():
    data = midi_file([
        [(0, [0x90, 60, 70]), (480, [0x80, 60, 0])],
        [(0, [0x90, 72, 70]), (960, [0x80, 72, 0])],
    ])
    piece = import_midi(data)
    assert [p.voice for p in piece.parts] == [0, 1]
    assert piece.beats_total == 2


@pytest.mark.parametrize("alien_before", [{0}, {1}, {0, 1, 2}])
def test_midi_alien_chunks_are_skipped_as_if_absent(alien_before):
    tracks = [[(0, [0x90, 60, 70]), (480, [0x80, 60, 0])],
              [(0, [0x90, 72, 70]), (960, [0x80, 72, 0])]]
    piece = import_midi(midi_file(tracks, alien_before=alien_before))
    assert piece == import_midi(midi_file(tracks))
    assert [p.voice for p in piece.parts] == [0, 1]


def test_midi_missing_track_after_alien_chunk_is_truncated():
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x80, 60, 0])]],
                     alien_before={1})
    two_tracks = data[:10] + (2).to_bytes(2, "big") + data[12:]
    with pytest.raises(MidiError, match="truncated chunk"):
        import_midi(two_tracks)


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
    running status, meta and sysex events, 0xF7 escapes, unmatched
    note-ons, messages of one data byte (0xC0, 0xD0) and of two that are
    not notes (0xB0, and the system statuses that both readers take with
    two data bytes), deltas written with leading 0x80 bytes, alien chunks
    between the tracks, and tracks with no end-of-track event, each of
    which then ends on a note-off."""
    division = draw(st.sampled_from([1, 3, 96, 480, 1000]))
    fmt = draw(st.sampled_from([0, 1]))
    messages = st.tuples(st.just(0) | st.integers(0, 3 * division),
                         st.sampled_from([0x80, 0x90, 0x90, 0x80, 0x90,
                                          0x90, 0xB0, 0xC0, 0xD0, 0xF0,
                                          0xF1, 0xF7, 0xFF]),
                         st.integers(0, 2), st.integers(58, 62),
                         st.integers(0, 127), st.booleans(),
                         st.sampled_from([0, 0, 1, 2, 3]))
    system = st.sampled_from([*range(0xF1, 0xF7), *range(0xF8, 0xFF)])
    end_of_track = draw(st.booleans())
    tracks = []
    for _ in range(1 if fmt == 0 else draw(st.integers(1, 3))):
        track, status = [], None
        for delta, kind, channel, pitch, velocity, running, pad in draw(
                st.lists(messages, max_size=40)):
            data = [pitch] if kind in (0xC0, 0xD0) else [pitch, velocity]
            if kind == 0xFF:
                message, status = [0xFF, 0x01, 0x00], None
            elif kind == 0xF0:
                message, status = [0xF0, 0x02, pitch, 0xF7], None
            elif kind == 0xF7:  # an escaped note-on, which both skip
                message, status = [0xF7, 0x03, 0x90, *data], None
            elif kind == 0xF1:
                message, status = [draw(system), *data], None
            elif (kind | channel) == status and running:
                message = data
            else:
                status = kind | channel
                message = [status, *data]
            written = varlen(delta)
            track.append((bytes([0x80] * min(pad, 4 - len(written)))
                          + written, message))
        if not end_of_track:
            track.append((0, [0x80, 60, 0]))
        tracks.append(track)
    aliens = draw(st.sets(st.integers(0, len(tracks))))
    return midi_file(tracks, division=division, fmt=fmt, alien_before=aliens,
                     end_of_track=end_of_track)


def _read_warned(importer, data: bytes):
    """The piece `importer` reads from `data`, and its warnings' texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        piece = importer(data)
    return piece, [str(w.message) for w in caught]


@given(smf_files())
def test_import_midi_matches_note_by_note_reader(data):
    # equal Parts hold equal events in the same order
    assert _read_warned(import_midi, data) == _read_warned(oracle_import_midi,
                                                           data)


@st.composite
def run_dense_smf_files(draw):
    """SMFs whose tracks hold long stretches of note and controller
    events with one-byte deltas, each stretch in explicit or in running
    status, broken by what a run of fixed-width events cannot hold:
    deltas of two bytes or more, deltas padded with 0x80 bytes, meta,
    sysex and 0xF7 events, and messages of one data byte (0xC0, 0xD0),
    some in running status. Three pitches on two channels, and velocity
    0 in some note-ons, make velocity-0 note-offs, overlapping notes of
    one key and unmatched note-ons."""
    events = st.tuples(st.just(0) | st.integers(0, 127),
                       st.sampled_from([0x80, 0x90, 0x90, 0x90, 0xB0, 0xE0]),
                       st.integers(0, 1), st.integers(60, 62),
                       st.sampled_from([0, 1, 64, 127]))
    breaks = st.sampled_from(["delta", "padded", "meta", "sysex", "escape",
                              0xC0, 0xD0])
    tracks = []
    for _ in range(draw(st.integers(1, 2))):
        track, status = [], None
        for _ in range(draw(st.integers(1, 4))):
            size = draw(st.integers(1, 30))
            stretch = draw(st.lists(events, min_size=size, max_size=size))
            running = draw(st.booleans())
            for delta, kind, channel, pitch, velocity in stretch:
                if running:  # the stretch keeps its first event's status
                    kind, channel = stretch[0][1:3]
                data = [pitch, velocity]
                if not (running and kind | channel == status):
                    status = kind | channel
                    data.insert(0, status)
                track.append((delta, data))
            kind = draw(breaks)
            delta, message, more = draw(st.integers(0, 127)), None, []
            if kind == "delta":
                delta = draw(st.integers(128, (1 << 21) - 1))
            elif kind == "padded":
                delta = b"\x80" * draw(st.integers(1, 3)) + bytes([delta])
            elif kind == "meta":
                message, status = [0xFF, 0x01, 0x00], None
            elif kind == "sysex":
                message, status = [0xF0, 0x01, 0xF7], None
            elif kind == "escape":  # an escaped note-on, which both skip
                message, status = [0xF7, 0x03, 0x90, 60, 64], None
            else:  # a message of one data byte, and up to 3 in running status
                status = kind | draw(st.integers(0, 1))
                first, *rest = draw(st.lists(st.integers(0, 127), min_size=1,
                                             max_size=4))
                message = [status, first]
                more = [(draw(st.integers(0, 127)), [value]) for value in rest]
            if message is None:  # a note event after a long delta
                message = [0x90 | draw(st.integers(0, 1)), 61, 64]
                status = message[0]
            track += [(delta, message), *more]
        tracks.append(track)
    return midi_file(tracks, division=draw(st.sampled_from([24, 96, 480])),
                     end_of_track=draw(st.booleans()))


@given(run_dense_smf_files())
def test_import_midi_matches_note_by_note_reader_on_long_runs(data):
    assert _read_warned(import_midi, data) == _read_warned(oracle_import_midi,
                                                           data)


_RUN = score._RUN  # the module's pattern, which `_RunSpy` stands in for


class _RunSpy:
    """Stands in for `score._RUN` and keeps, for every search, the kind
    of run it found and its length in events."""

    def __init__(self):
        self.found = []

    def match(self, chunk, pos):
        run = _RUN.match(chunk, pos)
        if run.lastindex:
            self.found.append(("explicit", (run.end() - pos) // 4))
        else:
            self.found.append(("running", (run.end() - pos) // 3))
        return run


@pytest.mark.parametrize("running", [False, True])
def test_bench_shaped_track_is_read_as_one_run(monkeypatch, running):
    # as the benchmark writes them: 96 ticks a beat, every delta in one
    # byte and a status on every event; then also with velocity-0
    # note-offs under running status
    events = []
    for i in range(40):
        pitch = 60 + i % 3
        events += [(12, [0x90, pitch, 80]),
                   (24, [0x90 if running else 0x80, pitch, 0])]
    if running:  # every status after the first is left out
        events[1:] = [(delta, message[1:]) for delta, message in events[1:]]
    data = midi_file([events], division=96)
    spy = _RunSpy()
    monkeypatch.setattr(score, "_RUN", spy)
    assert _read_warned(import_midi, data) == _read_warned(oracle_import_midi,
                                                           data)
    # the last search finds the end-of-track event, which is no run
    if running:
        assert spy.found == [("explicit", 1), ("running", 79), ("running", 0)]
    else:
        assert spy.found == [("explicit", 80), ("running", 0)]


def _patched(start: int, value: int, size: int = 4) -> bytes:
    """A one-track SMF, with a 13-byte track body, whose big-endian
    field at `start` is set to `value`."""
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x80, 60, 0])]], fmt=0)
    return data[:start] + value.to_bytes(size, "big") + data[start + size:]


@pytest.mark.parametrize("data,message", [
    (midi_file([[(b"\x80\x80\x80\x80\x00", [0xFF, 0x2F, 0x00])]],
               end_of_track=False), "variable-length quantity too long"),
    (midi_file([[(0, [0xFF])]], end_of_track=False), "truncated meta event"),
    (_patched(4, 5), "truncated header chunk"),
    (_patched(4, 100), "truncated header chunk"),
    (_patched(4, (1 << 24) + 6), "truncated header chunk"),
    (_patched(8, 256, 2), "unsupported format 256"),
    (_patched(10, 257, 2), "truncated chunk"),
    (_patched(18, 14), "truncated chunk"),
    (_patched(18, (1 << 24) + 13), "truncated chunk"),
], ids=["five-byte delta", "ends on a meta status", "header length 5",
        "header past the end", "header length's high byte",
        "format's high byte", "track count's high byte",
        "track past the end", "track length's high byte"])
def test_midi_file_error(data, message):
    with pytest.raises(MidiError) as err:
        import_midi(data)
    assert type(err.value) is MidiError and str(err.value) == message


def test_run_searches_stop_after_two_misses_until_a_meta(monkeypatch):
    def stretch(count, first_delta=12):
        return [(12 if i else first_delta, [0x90, 60 + i % 3, 64 * (i % 2)])
                for i in range(count)]

    far = [(200, [0x90, 63, 64])]  # a two-byte delta, where none is searched
    events = (stretch(2) + far + stretch(3) + far
              + stretch(10)  # searches spent: read one event at a time
              + [(0, [0xFF, 0x01, 0x00])] + stretch(6, first_delta=0)
              + far + stretch(2) + far + stretch(2))
    data = midi_file([events], division=96)
    spy = _RunSpy()
    monkeypatch.setattr(score, "_RUN", spy)
    assert _read_warned(import_midi, data) == _read_warned(oracle_import_midi,
                                                           data)
    # the meta gives back 2 searches; the run of 6 after it is taken and
    # gives them back again, so both short stretches after it are searched
    # and the end-of-track event is not
    assert spy.found == [("explicit", n) for n in (2, 3, 6, 2, 2)]


def test_one_data_byte_messages_in_running_status_are_no_run(monkeypatch):
    # 11 program changes under running status are 22 bytes of 7 bits,
    # as long as a run of 3-byte events, which they are not
    events = ([(12, [0xC0, 5])] + [(12, [5])] * 11
              + [(12, [0x90, 60, 64]), (12, [0x80, 60, 0])])
    data = midi_file([events], division=96)
    spy = _RunSpy()
    monkeypatch.setattr(score, "_RUN", spy)
    assert _read_warned(import_midi, data) == _read_warned(oracle_import_midi,
                                                           data)
    assert spy.found == [("running", 0), ("running", 7)]


def _run(count: int, edit=None) -> list:
    """`count` note-ons that a run can hold, as (delta, message) pairs;
    `edit(i, data)` may change event i's data bytes."""
    events = []
    for i in range(count):
        data = [60 + i % 3, 64]
        if edit is not None:
            data = edit(i, data)
        events.append((12, [0x90, *data]))
    return events


def _high_bit_at_9(i, data):
    return [data[0], 0x85] if i == 9 else data


@pytest.mark.parametrize("running", [False, True], ids=["explicit", "running"])
@pytest.mark.parametrize("events,end_of_track,message", [
    (_run(20, edit=_high_bit_at_9), True,
     "channel event data byte has the high bit set"),
    (_run(15) + [(12, [0x90, 60])], False, "truncated channel event"),
    (_run(10) + [(0, [0xFF, 0x01, 0x00]), (12, [60, 0]), (12, [61, 0]),
                 (12, [62, 0])], True, "data byte without running status"),
    (_run(10) + [(b"\x80\x80\x80\x80\x00", [0x90, 60, 0])], True,
     "variable-length quantity too long"),
    (_run(10) + [(b"\x83", [])], False,
     "truncated variable-length quantity"),
    (_run(10) + [(12, [0xC0])], False, "truncated channel event"),
], ids=["high bit in event 10", "cut inside a run", "data byte after meta",
        "five-byte delta", "cut inside a two-byte delta",
        "cut after a program change status"])
def test_midi_fault_at_a_run_edge(events, end_of_track, message, running):
    if running:  # the same bytes with every status after the first left out
        events = [(delta, data[1:] if 0 < i and data[:1] == [0x90] else data)
                  for i, (delta, data) in enumerate(events)]
    data = midi_file([events], end_of_track=end_of_track)
    with pytest.raises(MidiError) as err:
        import_midi(data)
    assert type(err.value) is MidiError and str(err.value) == message


def test_midi_smpte_division_rejected():
    import struct
    data = struct.pack(">4sIHHH", b"MThd", 6, 0, 0, 0xE250)
    with pytest.raises(MidiError, match="SMPTE"):
        import_midi(data)


def test_midi_zero_division_rejected():
    with pytest.raises(MidiError, match="^zero time division$"):
        import_midi(midi_file([[]], division=0))


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
