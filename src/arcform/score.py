"""Symbolic score data model, .notes text I/O, MIDI import, skyline melody.

Onsets and durations are exact rationals (beats) so that duration-ratio
comparisons downstream never suffer float drift. A part keeps them as
integer ticks at its own scale, and builds `NoteEvent`s only on demand.
"""

from __future__ import annotations

import heapq
import re
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, le, sub

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


# The canonical decimal spelling of each 7-bit value: the pitches,
# velocities and voices that the reader takes without `int()`
_SEVEN_BIT = {str(i): i for i in range(128)}
# note lines split at once: their tokens are the reader's one transient
# copy of the text, so 128 lines at a time keep its peak memory that of
# a block, not of the file
_BLOCK_LINES = 128


class _Ints(dict):
    """Int tokens, each read with `int()` on its first miss and kept."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def parse_text(source: str) -> Piece:
    """Parse the canonical .notes text format into a Piece.

    `_parse_columns` reads every valid file a column at a time. It
    raises ValueError only for a file with a fault, and
    `_raise_first_fault` then names the first fault and its line."""
    lines = source.splitlines()
    try:
        return _parse_columns(lines)
    except ValueError:
        pass
    # outside the handler, so that the walk's error does not carry the
    # reader's as its context
    _raise_first_fault(lines)


def _read_tag(raw: str, key: tuple[int, str] | None,
              title: str | None) -> tuple[tuple[int, str] | None, str | None]:
    """The key and title after the `@` line `raw`; ValueError names a
    fault in it."""
    fields = raw.strip().split(None, 1)
    tag = fields[0]
    rest = fields[1].strip() if len(fields) > 1 else ""
    if tag == "@key":
        if key is not None:
            raise ValueError("duplicate @key")
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError("@key needs tonic and mode")
        key = parse_key_name(parts[0], parts[1])
    elif tag == "@title":
        if title is not None:
            raise ValueError("duplicate @title")
        title = rest
    else:
        raise ValueError(f"unknown metadata tag {tag}")
    return key, title


def _note_fields(raw: str, tags: list) -> list[str] | None:
    """The five fields of the .notes line `raw`, a 3- or 4-field line's
    with velocity 64 and voice 0; None for a blank or comment line, and
    for an `@` line, whose tag `_read_tag` reads into `tags`, the key
    and the title. ValueError names a fault in the line."""
    fields = raw.split()
    if not fields or fields[0][0] == "#":
        return None
    if fields[0][0] == "@":
        tags[:] = _read_tag(raw, *tags)
        return None
    if len(fields) != 5:
        if not 3 <= len(fields) <= 4:
            raise ValueError("wrong field count")
        fields += ("64", "0")[len(fields) - 3:]
    return fields


def _parse_columns(lines: list[str]) -> Piece:
    """The piece of the .notes lines; ValueError if they hold a fault.

    The leading blank, comment and `@` lines are read one at a time, and
    the trailing blank and comment lines are skipped. The lines between
    go in blocks of `_BLOCK_LINES`, and each block is split once, with a
    `;` token between lines, so that each field is a slice of the
    tokens. A block with a `#` or `@`, or with the wrong count of
    tokens, is split line by line by `_note_fields` instead. Any other
    block holds note lines only, and if one has more or fewer than five
    fields, some line has more, and some `;` falls in a field's place
    and fails to convert like any other bad field. So a ValueError
    always means a fault, and where the blocks fall changes only the
    speed."""
    tags = [None, None]
    start = 0
    while start < len(lines) and _note_fields(lines[start], tags) is None:
        start += 1
    # the note lines stop before a trailing run of blank and comment
    # lines; a file with none pays one test, of its last line
    stop = len(lines)
    while stop > start and lines[stop - 1].lstrip()[:1] in ("", "#"):
        stop -= 1
    bounds = [*range(start, stop, _BLOCK_LINES), stop]
    # the beat tokens, then their ticks
    onsets: list = []
    durations: list = []
    pitches: list[int] = []
    velocities: list[int] = []
    voices: list[int] = []
    ints = _Ints(_SEVEN_BIT)
    for lo, hi in zip(bounds, bounds[1:]):
        block = lines[lo:hi]
        text = " ; ".join(block)
        tokens = text.split()
        if len(tokens) != 6 * len(block) - 1 or "#" in text or "@" in text:
            tokens = []
            for raw in block:
                if (fields := _note_fields(raw, tags)) is not None:
                    tokens += fields
                    tokens.append(";")
        onsets += tokens[0::6]
        durations += tokens[1::6]
        pitches += map(ints.__getitem__, tokens[2::6])
        velocities += map(ints.__getitem__, tokens[3::6])
        voices += map(ints.__getitem__, tokens[4::6])
    # a 7-bit velocity may be 0, and a token that missed `_SEVEN_BIT` may
    # be out of its field's range
    if 0 in velocities or len(ints) > len(_SEVEN_BIT) and (
            min(pitches) < 0 or max(pitches) > 127
            or min(velocities) < 1 or max(velocities) > 127):
        raise ValueError("pitch or velocity out of range")
    scale, ticks = _beat_ticks({*onsets, *durations})
    onsets[:] = map(ticks.__getitem__, onsets)
    durations[:] = map(ticks.__getitem__, durations)
    if min(onsets, default=0) < 0 or min(durations, default=1) <= 0:
        raise ValueError("negative onset or non-positive duration")
    if voices and voices.count(voices[0]) != len(voices):
        # one stable sort groups the voices and keeps each one's order
        order = sorted(range(len(voices)), key=voices.__getitem__)
        onsets, durations, pitches, velocities = map(
            itemgetter(*order), (onsets, durations, pitches, velocities))
        voices.sort()
    parts = []
    lo = 0
    while lo < len(voices):
        v = voices[lo]
        hi = bisect_right(voices, v, lo)
        parts.append(Part._from_columns(v, scale, [
            onsets[lo:hi], durations[lo:hi], pitches[lo:hi],
            velocities[lo:hi], [v] * (hi - lo)]))
        lo = hi
    key, title = tags
    return Piece(parts=tuple(parts), key=key, title=title or "")


def _beat_ticks(beats: set[str]) -> tuple[int, dict[str, int]]:
    """The lcm of the beats' reduced denominators, and each beat in ticks
    of 1/lcm; ValueError if a beat is not an integer or n/d with d != 0,
    or the lcm needs over MAX_SCALE_BITS. Onset beats are nearly all
    distinct, so the numbers are converted in bulk, not one by one."""
    fractions = [token for token in beats if "/" in token]
    integers = [token for token in beats if "/" not in token]
    terms = (list(map(int, "/".join(fractions).split("/")))
             if fractions else [])
    ints = list(map(int, integers))
    # a token of two slashes or more adds terms
    if len(terms) != 2 * len(fractions):
        raise ValueError("a beat of two slashes or more")
    nums, dens = terms[0::2], terms[1::2]
    if 0 in dens:
        raise ValueError("a zero denominator")
    # a negative denominator reduces to a negative one, which `lcm`
    # takes as positive; the ticks are exact quotients either way
    scale = 1
    for den in set(map(floordiv, dens, map(gcd, nums, dens))):
        scale = lcm(scale, den)
        if scale.bit_length() > MAX_SCALE_BITS:
            raise ValueError("tick scale over MAX_SCALE_BITS")
    ticks = dict(zip(fractions, map(floordiv, map(scale.__mul__, nums),
                                    dens)))
    ticks.update(zip(integers, map(scale.__mul__, ints)))
    return scale, ticks


def _raise_first_fault(lines: list[str]) -> None:
    """Raise the first fault of the .notes lines, with its line number.

    `_parse_columns` raises ValueError only for lines that hold a fault,
    so this walk builds nothing: it makes the oracle reader's checks in
    their order, and keeps only the tick scale and each token's number,
    a beat's as a numerator with the beat's sign."""
    tags = [None, None]
    signs: dict[str, int] = {}
    scale = 1  # the lcm of the denominators of the beats in `signs`
    ints = _Ints(_SEVEN_BIT)
    for lineno, raw in enumerate(lines, start=1):
        try:
            if (fields := _note_fields(raw, tags)) is None:
                continue
            on, dur, pitch, velocity, voice = fields
            try:
                for token in (on, dur):
                    if token not in signs:
                        num, den = (map(int, token.split("/")) if "/" in token
                                    else (int(token), 1))
                        signs[token] = num * den // abs(den)
                        scale = lcm(scale, den // gcd(num, den))
                        if scale.bit_length() > MAX_SCALE_BITS:
                            raise NotesParseError(
                                f"beats need a {scale.bit_length()}-bit "
                                f"tick scale, over {MAX_SCALE_BITS}", lineno)
                pitch, velocity, _ = ints[pitch], ints[velocity], ints[voice]
            except (ValueError, ZeroDivisionError) as exc:
                raise NotesParseError("non-numeric field", lineno) from exc
            _check_note(signs[on], signs[dur], pitch, velocity)
        except ValueError as exc:  # from `_note_fields` or `_check_note`
            raise NotesParseError(str(exc), lineno) from exc
    raise AssertionError("the .notes lines hold no fault")


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


# A run of channel events of two data bytes each is read with slices.
# Group 1 matches 4-byte events: a one-byte delta, a status, two data
# bytes. The other branch, 7-bit bytes only, holds 3-byte events under a
# running status. Both take well-formed events only, so every fault is
# left to the per-event loop.
_RUN = re.compile(rb"((?:[\x00-\x7f][\x80-\xbf\xe0-\xef][\x00-\x7f]{2})+)"
                  rb"|[\x00-\x7f]+")
_TWO_DATA_BYTES = frozenset([*range(0x80, 0xC0), *range(0xE0, 0xF0)])
_MIN_RUN = 6  # events; a shorter run is read one event at a time
_SEARCHES = 2  # failed run searches a track may make before a run or meta


def _track_events(chunk: bytes, division: int, voice: int) -> Part:
    """One MTrk chunk's notes as a part, sorted by (onset, pitch); equal
    ones stay in the order they closed."""
    notes: list[int] = []  # start, length, pitch, velocity of each note
    # per channel << 7 | pitch, the tick and velocity of each open note,
    # oldest first, one after another in one flat list
    open_notes: dict[int, list[int]] = {}
    pos = tick = status = 0
    size = len(chunk)
    # a one-byte delta under `plain` is read with no run search: 0 while
    # searches are left, 0x80 once they are spent; none starts before
    # `resume`, the end of the last short run found
    plain = resume = 0
    searches = _SEARCHES
    while pos < size:
        byte = chunk[pos]
        if byte < plain:  # one-byte delta, with run searches off
            tick += byte
            pos += 1
        elif byte & 0x80:
            if pos + 1 < size and chunk[pos + 1] < 0x80:  # two-byte delta
                tick += (byte & 0x7F) << 7 | chunk[pos + 1]
                pos += 2
            else:
                delta, pos = _read_varlen(chunk, pos)
                tick += delta
        else:  # one-byte delta, where a run may start
            if pos >= resume:
                run = _RUN.match(chunk, pos)
                end = run.end()
                stride = (4 if run.lastindex else
                          3 if status in _TWO_DATA_BYTES else 0)
                if stride and end - pos >= _MIN_RUN * stride:
                    end -= (end - pos) % stride
                    for tick, status, pitch, value in zip(
                            accumulate(chunk[pos + stride:end:stride],
                                       initial=tick + byte),
                            chunk[pos + 1:end:4] if stride == 4
                            else repeat(status),
                            chunk[pos + stride - 2:end:stride],
                            chunk[pos + stride - 1:end:stride]):
                        kind = status & 0xF0
                        if kind == 0x90 and value:
                            key = (status & 0x0F) << 7 | pitch
                            stack = open_notes.get(key)
                            if stack is None:
                                open_notes[key] = [tick, value]
                            else:
                                stack += (tick, value)
                        elif kind == 0x80 or kind == 0x90:
                            stack = open_notes.get(
                                (status & 0x0F) << 7 | pitch)
                            if stack:
                                start = stack[0]
                                if tick > start:
                                    notes += (start, tick - start, pitch,
                                              stack[1])
                                del stack[:2]
                    pos = end
                    searches = _SEARCHES
                    continue
                resume = end
                searches -= 1
                if not searches:
                    plain = 0x80
            tick += byte
            pos += 1
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
            searches = _SEARCHES
            plain = 0
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
        # its columns are already sorted and canonical: no `_fill` needed
        line = Part.__new__(Part)
        vars(line).update(zip(Part._fields, Part._key(parts[0])), voice=0)
        return line
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
