"""Symbolic score data model, .notes text I/O, MIDI import, skyline melody.

Onsets and durations are exact rationals (beats) so that duration-ratio
comparisons downstream never suffer float drift. A part keeps them as
integer ticks at its own scale, and builds `NoteEvent`s only on demand.
"""

from __future__ import annotations

import heapq
import warnings
from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, le, sub

from .errors import AnalysisError, MidiError, NotesParseError
from .value import Value

__all__ = [
    "MAX_SCALE_BITS",
    "NoteEvent",
    "Part",
    "Piece",
    "parse_text",
    "serialize_text",
    "import_midi",
    "skyline",
    "key_name",
    "parse_key_name",
]

_LETTER_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_PC_NAME = {0: "C", 1: "C#", 2: "D", 3: "D#", 4: "E", 5: "F", 6: "F#",
            7: "G", 8: "G#", 9: "A", 10: "A#", 11: "B"}
_MODES = ("major", "minor")
MAX_SCALE_BITS = 1024  # of a .notes tick scale; a MIDI division takes 15


def parse_key_name(tonic: str, mode: str) -> tuple[int, str]:
    """Turn e.g. ("F#", "minor") into (6, "minor")."""
    if not tonic or tonic[0].upper() not in _LETTER_PC:
        raise ValueError(f"unknown tonic letter {tonic!r}")
    pc = _LETTER_PC[tonic[0].upper()]
    for accidental in tonic[1:]:
        if accidental == "#":
            pc += 1
        elif accidental == "b":
            pc -= 1
        else:
            raise ValueError(f"unknown accidental in tonic {tonic!r}")
    mode = mode.lower()
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return pc % 12, mode


def key_name(key: tuple[int, str]) -> str:
    tonic, mode = key
    return f"{_PC_NAME[tonic % 12]} {mode}"


class NoteEvent(Value):
    """A single timed pitched event. Times are in beats."""

    _fields = ("onset", "duration", "pitch", "velocity", "voice")

    def __init__(self, onset: Fraction, duration: Fraction, pitch: int,
                 velocity: int = 64, voice: int = 0) -> None:
        # a Fraction's denominator is positive, so its sign is the
        # numerator's; only other types (subclasses too) are converted
        if type(onset) is not Fraction:
            onset = Fraction(onset)
        if type(duration) is not Fraction:
            duration = Fraction(duration)
        _check_note(onset.numerator, duration.numerator, pitch, velocity)
        vars(self).update(onset=onset, duration=duration, pitch=pitch,
                          velocity=velocity, voice=voice)

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration


def _check_note(onset: int, duration: int, pitch: int, velocity: int) -> None:
    """Raise ValueError for the first bad field; `onset` and `duration`
    need only carry the sign of the beats."""
    if duration <= 0:
        raise ValueError("non-positive duration")
    if onset < 0:
        raise ValueError("negative onset")
    if not 0 <= pitch <= 127:
        raise ValueError("pitch out of range")
    if not 1 <= velocity <= 127:
        raise ValueError("velocity out of range")


class Part(Value):
    """One voice as integer columns, sorted stably by (onset, pitch).

    Note i starts at `onsets[i]` and lasts `durations[i]` ticks of
    1/`scale` beat, where `scale` is the lcm of the notes' onset and
    duration denominators. That scale is canonical, so two parts hold the
    same notes exactly when their fields are equal. `voices` holds each
    note's own voice, which a skyline mixes. `Part(voice, events)` builds
    one from `NoteEvent`s; `events` builds them back on first access.
    """

    _fields = ("voice", "scale", "onsets", "durations", "pitches",
               "velocities", "voices")
    voice: int
    scale: int
    onsets: tuple[int, ...]
    durations: tuple[int, ...]
    pitches: tuple[int, ...]
    velocities: tuple[int, ...]
    voices: tuple[int, ...]

    def __init__(self, voice: int = 0,
                 events: Iterable[NoteEvent] = ()) -> None:
        events = tuple(events)
        scale = lcm(*{e.onset.denominator for e in events},
                    *{e.duration.denominator for e in events})
        self._fill(voice, scale, [
            [e.onset.numerator * (scale // e.onset.denominator)
             for e in events],
            [e.duration.numerator * (scale // e.duration.denominator)
             for e in events],
            [e.pitch for e in events], [e.velocity for e in events],
            [e.voice for e in events]])

    @classmethod
    def _from_columns(cls, voice: int, scale: int,
                      columns: Sequence[Sequence[int]]) -> Part:
        """A part from its five note columns, in field order, with times
        in ticks of 1/scale beat."""
        part = cls.__new__(cls)
        part._fill(voice, scale, columns)
        return part

    def _fill(self, voice: int, scale: int,
              columns: Sequence[Sequence[int]]) -> None:
        """Set the fields: sort the columns stably by (onset, pitch),
        unless they already are (as `serialize_text` writes them), and
        reduce the scale to the canonical one.

        Callers pass lists or tuples, not iterators: `tuple()` of an
        iterator is allocated at a guessed size and resized, which moves
        small tuples from one of CPython's per-size free lists to another
        and raises a long run's peak memory."""
        onsets, _, pitches, _, _ = columns
        if not all(map(le, zip(onsets, pitches),
                       zip(onsets[1:], pitches[1:]))):
            # two stable sorts order by (onset, pitch) and keep equal
            # notes in input order, with no key object per note
            order = sorted(range(len(onsets)), key=pitches.__getitem__)
            order.sort(key=onsets.__getitem__)
            # out of order means two notes or more, so itemgetter gives tuples
            columns = map(itemgetter(*order), columns)
        onsets, durations, pitches, velocities, voices = map(tuple, columns)
        unit = gcd(scale, *onsets, *durations)
        if unit > 1:
            scale //= unit
            onsets = tuple([t // unit for t in onsets])
            durations = tuple([t // unit for t in durations])
        vars(self).update(voice=voice, scale=scale, onsets=onsets,
                          durations=durations, pitches=pitches,
                          velocities=velocities, voices=voices)

    @cached_property
    def events(self) -> tuple[NoteEvent, ...]:
        """The notes as `NoteEvent`s, built on first access and kept."""
        beats = {t: Fraction(t, self.scale)
                 for t in {*self.onsets, *self.durations}}
        return tuple(NoteEvent(beats[on], beats[dur], pitch, vel, voice)
                     for on, dur, pitch, vel, voice in zip(
                         self.onsets, self.durations, self.pitches,
                         self.velocities, self.voices))

    def __len__(self) -> int:
        return len(self.pitches)

    def is_monophonic(self) -> bool:
        ends = map(add, self.onsets, self.durations)
        return all(map(le, ends, self.onsets[1:]))


class Piece(Value):
    _fields = ("parts", "key", "title")

    def __init__(self, parts: Iterable[Part] = (),
                 key: tuple[int, str] | None = None, title: str = "") -> None:
        parts = tuple(parts)
        if key is not None:
            tonic, mode = key
            if not 0 <= tonic <= 11 or mode not in _MODES:
                raise ValueError(f"bad key {key!r}")
        vars(self).update(parts=parts, key=key, title=title)

    @cached_property
    def timeline(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """`(scale, onsets, ends)`: every event of `all_events()` in whole
        ticks of 1/scale beat, where scale is the lcm of the parts'
        scales. Computed once per piece; exact, so any order or difference
        of ticks is that of the beats."""
        scale = lcm(*[p.scale for p in self.parts])
        onsets: list[int] = []
        ends: list[int] = []
        for p in self.parts:
            on, dur = p.onsets, p.durations
            if p.scale != scale:
                k = scale // p.scale
                on, dur = [t * k for t in on], [t * k for t in dur]
            onsets += on
            ends += map(add, on, dur)
        return scale, tuple(onsets), tuple(ends)

    def column(self, name: str) -> list[int]:
        """One of the parts' integer columns (`pitches`, `velocities` or
        `voices`) over every note, in `all_events()` order."""
        return list(chain.from_iterable(getattr(p, name)
                                        for p in self.parts))

    @cached_property
    def beats_total(self) -> Fraction:
        """Latest event end; computed once per piece."""
        scale, _, ends = self.timeline
        return Fraction(max(ends, default=0), scale)

    def all_events(self) -> tuple[NoteEvent, ...]:
        return tuple(e for p in self.parts for e in p.events)


def parse_text(source: str) -> Piece:
    """Parse the canonical .notes text format into a Piece."""
    key: tuple[int, str] | None = None
    title: str | None = None
    # per voice, its notes' onset token, duration token, pitch and
    # velocity, one note after another in one flat list
    by_voice: defaultdict[int, list] = defaultdict(list)
    beats: dict[str, tuple[int, int]] = {}
    scale = 1  # the lcm of the denominators in `beats`

    def parse_beat(token: str) -> tuple[int, int]:
        """A new beat token as its reduced (numerator, denominator), with
        a positive denominator, kept in `beats` for the token's next use:
        durations repeat heavily and onsets repeat across voices."""
        nonlocal scale
        if "/" in token:
            num, den = map(int, token.split("/", 1))
            if not den:
                raise ZeroDivisionError(f"beat {token!r}")
            unit = gcd(num, den) if den > 0 else -gcd(num, den)
            num, den = num // unit, den // unit
        else:
            num, den = int(token), 1
        scale = lcm(scale, den)
        if scale.bit_length() > MAX_SCALE_BITS:
            raise NotesParseError(f"beats need a {scale.bit_length()}-bit "
                                  f"tick scale, over {MAX_SCALE_BITS}", lineno)
        value = beats[token] = (num, den)
        return value

    for lineno, raw in enumerate(source.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if fields[0][0] == "@":
            fields = raw.strip().split(None, 1)
            tag = fields[0]
            rest = fields[1].strip() if len(fields) > 1 else ""
            if tag == "@key":
                if key is not None:
                    raise NotesParseError("duplicate @key", lineno)
                parts = rest.split()
                if len(parts) != 2:
                    raise NotesParseError("@key needs tonic and mode", lineno)
                try:
                    key = parse_key_name(parts[0], parts[1])
                except ValueError as exc:
                    raise NotesParseError(str(exc), lineno) from exc
            elif tag == "@title":
                if title is not None:
                    raise NotesParseError("duplicate @title", lineno)
                title = rest
            else:
                raise NotesParseError(f"unknown metadata tag {tag}", lineno)
            continue
        if not 3 <= len(fields) <= 5:
            raise NotesParseError("wrong field count", lineno)
        try:
            onset = beats.get(fields[0]) or parse_beat(fields[0])
            duration = beats.get(fields[1]) or parse_beat(fields[1])
            pitch = int(fields[2])
            velocity = int(fields[3]) if len(fields) >= 4 else 64
            voice = int(fields[4]) if len(fields) >= 5 else 0
        except (ValueError, ZeroDivisionError) as exc:
            raise NotesParseError("non-numeric field", lineno) from exc
        try:
            _check_note(onset[0], duration[0], pitch, velocity)
        except ValueError as exc:
            raise NotesParseError(str(exc), lineno) from exc
        by_voice[voice].extend((fields[0], fields[1], pitch, velocity))
    # every beat in ticks of one scale; each part then reduces its own
    ticks_of = {token: num * (scale // den)
                for token, (num, den) in beats.items()}.__getitem__
    parts = []
    for v, notes in sorted(by_voice.items()):
        parts.append(Part._from_columns(v, scale, [
            list(map(ticks_of, notes[0::4])), list(map(ticks_of, notes[1::4])),
            notes[2::4], notes[3::4], [v] * (len(notes) // 4)]))
    return Piece(parts=tuple(parts), key=key, title=title or "")


def serialize_text(piece: Piece) -> str:
    """Inverse of parse_text (field-for-field round trip)."""
    lines: list[str] = []
    if piece.title:
        lines.append(f"@title {piece.title}")
    if piece.key is not None:
        lines.append(f"@key {key_name(piece.key)}")
    for part in piece.parts:
        for ev in part.events:
            lines.append(f"{ev.onset} {ev.duration} {ev.pitch} "
                         f"{ev.velocity} {ev.voice}")
    return "\n".join(lines) + "\n"


# --- Standard MIDI File import -------------------------------------------

def _read_varlen(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MidiError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiError("variable-length quantity too long")


def _track_events(chunk: bytes, division: int, voice: int) -> Part:
    """One MTrk chunk's notes as a part, sorted by (onset, pitch); equal
    ones stay in the order they closed."""
    notes: list[int] = []  # start, length, pitch, velocity of each note
    # per channel << 7 | pitch, the tick and velocity of each open note,
    # oldest first, one after another in one flat list
    open_notes: dict[int, list[int]] = {}
    pos = tick = status = 0
    size = len(chunk)
    while pos < size:
        byte = chunk[pos]
        if byte < 0x80:  # one-byte delta, the common case
            tick += byte
            pos += 1
        else:
            delta, pos = _read_varlen(chunk, pos)
            tick += delta
        if pos >= size:
            raise MidiError("truncated track event")
        byte = chunk[pos]
        if byte & 0x80:
            status = byte
            pos += 1
        elif status == 0:
            raise MidiError("data byte without running status")
        kind = status & 0xF0
        if kind == 0xF0 and status in (0xFF, 0xF0, 0xF7):
            if status == 0xFF:
                if pos >= size:
                    raise MidiError("truncated meta event")
                pos += 1  # meta type
            length, pos = _read_varlen(chunk, pos)
            if pos + length > size:
                raise MidiError("meta or sysex event runs past the end of "
                                "its track")
            pos += length
            status = 0  # meta and sysex events cancel running status
        elif kind == 0xC0 or kind == 0xD0:  # one data byte
            if pos >= size:
                raise MidiError("truncated channel event")
            if chunk[pos] & 0x80:
                raise MidiError("channel event data byte has the high bit set")
            pos += 1
        else:
            if pos + 2 > size:
                raise MidiError("truncated channel event")
            pitch = chunk[pos]
            value = chunk[pos + 1]
            if (pitch | value) & 0x80:
                raise MidiError("channel event data byte has the high bit set")
            pos += 2
            if kind == 0x90 and value:
                key = (status & 0x0F) << 7 | pitch
                stack = open_notes.get(key)
                if stack is None:
                    open_notes[key] = [tick, value]
                else:
                    stack += (tick, value)
            elif kind == 0x80 or kind == 0x90:  # note-off, or velocity 0
                stack = open_notes.get((status & 0x0F) << 7 | pitch)
                if stack:
                    start = stack[0]
                    if tick > start:
                        notes += (start, tick - start, pitch, stack[1])
                    del stack[:2]
    for key, stack in open_notes.items():
        pitch = key & 0x7F
        for start, vel in zip(stack[0::2], stack[1::2]):
            warnings.warn(f"unmatched note-on (pitch {pitch}) closed at "
                          f"track end", stacklevel=3)
            if tick > start:
                notes += (start, tick - start, pitch, vel)
    return Part._from_columns(voice, division, [
        notes[0::4], notes[1::4], notes[2::4], notes[3::4],
        [voice] * (len(notes) // 4)])


def import_midi(data: bytes) -> Piece:
    """Parse a Standard MIDI File (format 0 or 1) into a Piece."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MidiError("bad header magic")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6 or 8 + header_len > len(data):
        raise MidiError("truncated header chunk")
    fmt = int.from_bytes(data[8:10], "big")
    ntrks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1):
        raise MidiError(f"unsupported format {fmt}")
    if division & 0x8000:
        raise MidiError("SMPTE time division not supported")
    if division == 0:
        raise MidiError("zero time division")
    pos = 8 + header_len
    parts: list[Part] = []
    while len(parts) < ntrks:  # an alien chunk is skipped as if absent
        if pos + 8 > len(data):
            raise MidiError("truncated chunk")
        magic = data[pos:pos + 4]
        length = int.from_bytes(data[pos + 4:pos + 8], "big")
        if pos + 8 + length > len(data):
            raise MidiError("truncated chunk")
        chunk = data[pos + 8:pos + 8 + length]
        pos += 8 + length
        if magic == b"MTrk":
            parts.append(_track_events(chunk, division, len(parts)))
    return Piece(parts=tuple(parts))


# --- skyline melody extraction --------------------------------------------

def skyline(piece: Piece) -> Part:
    """Monophonic top line: highest sounding pitch wins at every moment.

    Tie at equal pitch goes to the earlier-starting event (then lower voice,
    then the first in `all_events()` order). One sweep over the sorted
    boundaries keeps the sounding events in a max-heap and drops those that
    have ended only when they reach its top: O(n log n) for n events. The
    sweep and its output stay in the piece's integer ticks. A piece of one
    monophonic part is its own line: no two of its notes sound together,
    so the sweep would return its notes unchanged, as voice 0.
    """
    parts = piece.parts
    if not any(map(len, parts)):
        raise AnalysisError("empty piece")
    if len(parts) == 1 and parts[0].is_monophonic():
        part = parts[0]
        return Part._from_columns(0, part.scale, [
            part.onsets, part.durations, part.pitches, part.velocities,
            part.voices])
    scale, onsets, ends = piece.timeline
    pitches, velocities, voices = map(piece.column,
                                      ("pitches", "velocities", "voices"))
    boundaries = sorted(set(onsets).union(ends))
    by_onset = sorted(range(len(onsets)), key=onsets.__getitem__)
    heap: list[tuple[int, int, int, int]] = []
    pushed = 0
    segments: list[tuple[int, int, int]] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        while pushed < len(by_onset) and onsets[by_onset[pushed]] <= lo:
            i = by_onset[pushed]
            heapq.heappush(heap, (-pitches[i], onsets[i], voices[i], i))
            pushed += 1
        while heap and ends[heap[0][3]] <= lo:
            heapq.heappop(heap)
        if not heap:
            continue
        winner = heap[0][3]
        if segments and segments[-1][2] == winner and segments[-1][1] == lo:
            segments[-1] = (segments[-1][0], hi, winner)
        else:
            segments.append((lo, hi, winner))
    los, his, winners = zip(*segments)
    return Part._from_columns(0, scale, [
        los, list(map(sub, his, los)), [pitches[i] for i in winners],
        [velocities[i] for i in winners], [voices[i] for i in winners]])
