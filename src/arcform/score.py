"""Symbolic score data model, .notes text I/O, MIDI import, skyline melody.

Onsets and durations are exact rationals (beats) so that duration-ratio
comparisons downstream never suffer float drift.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .errors import AnalysisError, MidiError, NotesParseError

__all__ = [
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


def parse_key_name(tonic: str, mode: str) -> Tuple[int, str]:
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


def key_name(key: Tuple[int, str]) -> str:
    tonic, mode = key
    return f"{_PC_NAME[tonic % 12]} {mode}"


@dataclass(frozen=True)
class NoteEvent:
    """A single timed pitched event. Times are in beats."""

    onset: Fraction
    duration: Fraction
    pitch: int
    velocity: int = 64
    voice: int = 0

    def __post_init__(self):
        # a Fraction's denominator is positive, so its sign is the
        # numerator's; only other types (subclasses too) are converted
        onset, duration = self.onset, self.duration
        if type(onset) is not Fraction:
            onset = Fraction(onset)
            object.__setattr__(self, "onset", onset)
        if type(duration) is not Fraction:
            duration = Fraction(duration)
            object.__setattr__(self, "duration", duration)
        if duration.numerator <= 0:
            raise ValueError("non-positive duration")
        if onset.numerator < 0:
            raise ValueError("negative onset")
        if not 0 <= self.pitch <= 127:
            raise ValueError("pitch out of range")
        if not 1 <= self.velocity <= 127:
            raise ValueError("velocity out of range")

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration


@dataclass(frozen=True)
class Part:
    """One voice: events kept sorted, stably, by (onset, pitch)."""

    voice: int = 0
    events: Tuple[NoteEvent, ...] = ()

    def __post_init__(self):
        # int / int is correctly rounded, so the float key is monotone in
        # the onset and only float ties compare Fractions
        ordered = tuple(sorted(self.events, key=lambda e: (
            e.onset.numerator / e.onset.denominator, e.onset, e.pitch)))
        object.__setattr__(self, "events", ordered)

    def is_monophonic(self) -> bool:
        for prev, nxt in zip(self.events, self.events[1:]):
            if nxt.onset < prev.end:
                return False
        return True


@dataclass(frozen=True)
class Piece:
    parts: Tuple[Part, ...] = ()
    key: Optional[Tuple[int, str]] = None
    title: str = ""

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.key is not None:
            tonic, mode = self.key
            if not 0 <= tonic <= 11 or mode not in _MODES:
                raise ValueError(f"bad key {self.key!r}")

    @cached_property
    def timeline(self) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """`(scale, onsets, ends)`: every event of `all_events()` in whole
        ticks of 1/scale beat, where scale is the lcm of the onset and
        duration denominators. Computed once per piece; exact, so any
        order or difference of ticks is that of the beats."""
        events = self.all_events()
        onsets = [e.onset for e in events]
        durations = [e.duration for e in events]
        scale = lcm(*{x.denominator for x in onsets},
                    *{x.denominator for x in durations})
        on_ticks = tuple([x.numerator * (scale // x.denominator)
                          for x in onsets])
        end_ticks = tuple([on + x.numerator * (scale // x.denominator)
                           for on, x in zip(on_ticks, durations)])
        return scale, on_ticks, end_ticks

    @cached_property
    def beats_total(self) -> Fraction:
        """Latest event end; computed once per piece."""
        scale, _, ends = self.timeline
        return Fraction(max(ends, default=0), scale)

    def all_events(self) -> Tuple[NoteEvent, ...]:
        return tuple(e for p in self.parts for e in p.events)


def _beats(ticks: List[int], scale: int) -> Dict[int, Fraction]:
    """Each distinct tick count in beats of `scale` ticks, built once."""
    return {t: Fraction(t, scale) for t in set(ticks)}


def _parse_beat(token: str, memo: dict[str, Fraction]) -> Fraction:
    """A beat token, memoised: durations repeat heavily, onsets repeat
    across voices, and a Fraction is immutable, so events share them."""
    value = memo.get(token)
    if value is None:
        if "/" in token:
            num, den = token.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(token))
        memo[token] = value
    return value


def parse_text(source: str) -> Piece:
    """Parse the canonical .notes text format into a Piece."""
    key: Optional[Tuple[int, str]] = None
    title: Optional[str] = None
    events: list[NoteEvent] = []
    beats: dict[str, Fraction] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            fields = line.split(None, 1)
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
        fields = line.split()
        if not 3 <= len(fields) <= 5:
            raise NotesParseError("wrong field count", lineno)
        try:
            onset = _parse_beat(fields[0], beats)
            duration = _parse_beat(fields[1], beats)
            pitch = int(fields[2])
            velocity = int(fields[3]) if len(fields) >= 4 else 64
            voice = int(fields[4]) if len(fields) >= 5 else 0
        except (ValueError, ZeroDivisionError) as exc:
            raise NotesParseError("non-numeric field", lineno) from exc
        try:
            events.append(NoteEvent(onset, duration, pitch, velocity, voice))
        except ValueError as exc:
            raise NotesParseError(str(exc), lineno) from exc
    by_voice: dict[int, list[NoteEvent]] = {}
    for ev in events:
        by_voice.setdefault(ev.voice, []).append(ev)
    parts = tuple(Part(voice=v, events=tuple(evs))
                  for v, evs in sorted(by_voice.items()))
    return Piece(parts=parts, key=key, title=title or "")


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

def _read_varlen(data: bytes, pos: int) -> Tuple[int, int]:
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


def _track_events(chunk: bytes, division: int, voice: int) -> Tuple[NoteEvent, ...]:
    """One MTrk chunk's notes, sorted by (onset, pitch); equal ones stay
    in the order they closed."""
    notes: list[Tuple[int, int, int, int]] = []  # start, pitch, length, vel
    open_notes: dict[Tuple[int, int], list[Tuple[int, int]]] = {}
    pos = 0
    tick = 0
    status = 0

    def close(channel: int, pitch: int, end_tick: int) -> None:
        stack = open_notes.get((channel, pitch))
        if not stack:
            return
        start_tick, vel = stack.pop(0)
        if end_tick > start_tick:
            notes.append((start_tick, pitch, end_tick - start_tick,
                          max(1, vel)))

    size = len(chunk)
    while pos < size:
        if chunk[pos] < 0x80:  # one-byte delta, the common case
            tick += chunk[pos]
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
        if status in (0xFF, 0xF0, 0xF7):
            if status == 0xFF:
                if pos >= size:
                    raise MidiError("truncated meta event")
                pos += 1  # meta type
            length, pos = _read_varlen(chunk, pos)
            if pos + length > size:
                raise MidiError("meta or sysex event runs past the end of "
                                "its track")
            pos += length
        else:
            kind = status & 0xF0
            channel = status & 0x0F
            ndata = 1 if kind in (0xC0, 0xD0) else 2
            if pos + ndata > size:
                raise MidiError("truncated channel event")
            key = chunk[pos]
            value = chunk[pos + 1] if ndata == 2 else 0
            if (key | value) & 0x80:
                raise MidiError("channel event data byte has the high bit set")
            pos += ndata
            if kind == 0x90 and value > 0:
                open_notes.setdefault((channel, key), []).append((tick, value))
            elif kind in (0x80, 0x90):  # note-off, or note-on at velocity 0
                close(channel, key, tick)
    for (channel, pitch), stack in open_notes.items():
        while stack:
            warnings.warn(f"unmatched note-on (pitch {pitch}) closed at "
                          f"track end", stacklevel=3)
            close(channel, pitch, tick)
    # ticks stay ints until here: one Fraction per distinct tick count
    notes.sort(key=itemgetter(0, 1))
    beats = _beats([n[0] for n in notes] + [n[2] for n in notes], division)
    return tuple(NoteEvent(beats[start], beats[length], pitch, vel, voice)
                 for start, pitch, length, vel in notes)


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
    for track_index in range(ntrks):
        if pos + 8 > len(data):
            raise MidiError("truncated chunk")
        magic = data[pos:pos + 4]
        length = int.from_bytes(data[pos + 4:pos + 8], "big")
        if pos + 8 + length > len(data):
            raise MidiError("truncated chunk")
        chunk = data[pos + 8:pos + 8 + length]
        pos += 8 + length
        if magic != b"MTrk":
            continue  # alien chunk: skip per SMF spec
        parts.append(Part(voice=track_index,
                          events=_track_events(chunk, division, track_index)))
    return Piece(parts=tuple(parts))


# --- skyline melody extraction --------------------------------------------

def skyline(piece: Piece) -> Part:
    """Monophonic top line: highest sounding pitch wins at every moment.

    Tie at equal pitch goes to the earlier-starting event (then lower voice,
    then the first in `all_events()` order). One sweep over the sorted
    boundaries keeps the sounding events in a max-heap and drops those that
    have ended only when they reach its top: O(n log n) for n events. The
    sweep runs on the piece's integer ticks; only the output notes are
    built as Fractions.
    """
    events = piece.all_events()
    if not events:
        raise AnalysisError("empty piece")
    scale, onsets, ends = piece.timeline
    boundaries = sorted(set(onsets).union(ends))
    by_onset = sorted(range(len(events)), key=onsets.__getitem__)
    heap: list[Tuple[int, int, int, int]] = []
    pushed = 0
    segments: list[Tuple[int, int, int]] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        while pushed < len(by_onset) and onsets[by_onset[pushed]] <= lo:
            i = by_onset[pushed]
            heapq.heappush(heap, (-events[i].pitch, onsets[i],
                                  events[i].voice, i))
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
    beats = _beats([lo for lo, _, _ in segments]
                   + [hi - lo for lo, hi, _ in segments], scale)
    out = tuple(NoteEvent(beats[lo], beats[hi - lo], events[i].pitch,
                          events[i].velocity, events[i].voice)
                for lo, hi, i in segments)
    return Part(voice=0, events=out)
