"""Independent oracles the tests check the library against.

Deliberately written with different algorithms than the implementations
they verify: plain recursion and a Wagner–Fischer table instead of the
bit-vector edit distance, string rewriting instead of tree rewriting,
recognition that strips one copy of the head per step instead of one
length division, a per-window sum over every clipped window instead of
prefix integrals, a climax found by comparing times instead of by its
index, a scan of every event at every boundary instead of a heap sweep,
every recurrence window scored from scratch instead of one pass per
window start, a MIDI reader that builds each note's `Fraction`s as it
closes, a recursive-descent tree parser instead of an explicit stack, a
from-scratch MIDI byte writer, tonal analyses that read each note as a
`NoteEvent` with `Fraction` times instead of the integer columns, a
`.notes` reader that checks each note through one call and grows the
tick scale at every new token, and the report text from the standard
library's JSON encoder over `jsonable`'s plain values instead of the
one-pass writer.

It also holds the test-input builders more than one test file uses: a
MIDI byte writer, melodies and random pieces, and a CLI runner.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import warnings
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path
from typing import Optional, Sequence, Set, Tuple

from arcform.climax import Curve
from arcform.errors import AnalysisError, GrammarError, NotesParseError
from arcform.grammar import FormTree, Leaf, Node, flatten
from arcform.recurrence import (IntervalProfile, RecurrenceMatch,
                                RecurrenceSeries, diatonic_set)
from arcform.report import PRECISION
from arcform.score import (MAX_SCALE_BITS, NoteEvent, Part, Piece,
                           _check_note, parse_key_name)
from arcform.value import Value

PKG_ROOT = Path(__file__).resolve().parent.parent


def recursive_edit_distance(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance by direct recursion on sequence tails."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(go(i + 1, j) + 1,
                   go(i, j + 1) + 1,
                   go(i + 1, j + 1) + (a[i] != b[j]))

    return go(0, 0)


def table_edit_distance(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance by the Wagner–Fischer table, one row at a
    time."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row = row, [i]
        for j, y in enumerate(b, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1,
                           prev[j - 1] + (x != y)))
    return row[-1]


def oracle_similarity(steps_a, ratios_a, steps_b, ratios_b,
                      w_pitch: float, w_rhythm: float) -> float:
    if not steps_a and not steps_b:
        return 1.0
    denom = max(len(steps_a), len(steps_b))
    d = (Fraction(w_pitch) * Fraction(table_edit_distance(steps_a, steps_b), denom)
         + Fraction(w_rhythm) * Fraction(table_edit_distance(ratios_a, ratios_b), denom))
    return float(min(Fraction(1), max(Fraction(0), 1 - d)))


def left_language(seed: str, depth: int) -> Set[str]:
    """Strings reachable by prepending a copy of the first letter."""
    seen = {seed}
    frontier = {seed}
    for _ in range(depth):
        frontier = {s[0] + s for s in frontier} - seen
        seen |= frontier
    return seen


def right_language(seed: str, depth: int) -> Set[str]:
    """Strings reachable by appending a copy of the last letter."""
    seen = {seed}
    frontier = {seed}
    for _ in range(depth):
        frontier = {s + s[-1] for s in frontier} - seen
        seen |= frontier
    return seen


def oracle_recognize(form: str, seed: FormTree,
                     max_steps: int) -> Optional[int]:
    """Root-level left-replications by inverse rewriting: strip one
    copy of the seed's first child per step until the seed is left."""
    base = flatten(seed)
    head = flatten(seed.children[0]) if isinstance(seed, Node) else None
    count = 0
    rest = form
    while rest != base:
        if head is None or not rest.startswith(head):
            return None
        rest = rest[len(head):]
        count += 1
    if count > max_steps:
        raise GrammarError(
            f"derivation needs {count} steps, over the {max_steps}-step bound")
    return count


def oracle_parse_tree(text: str) -> FormTree:
    """The nested-parentheses tree parser, one recursion per level."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def parse(pos: int) -> Tuple[FormTree, int]:
        if pos >= len(tokens):
            raise GrammarError("unexpected end of tree text")
        tok = tokens[pos]
        if tok == "(":
            children = []
            pos += 1
            while pos < len(tokens) and tokens[pos] != ")":
                child, pos = parse(pos)
                children.append(child)
            if pos >= len(tokens):
                raise GrammarError("unbalanced parentheses")
            return Node(tuple(children)), pos + 1
        if tok == ")":
            raise GrammarError("unexpected ')'")
        return Leaf(tok), pos + 1

    tree, pos = parse(0)
    if pos != len(tokens):
        raise GrammarError("trailing tokens after tree")
    return tree


def oracle_parse_text(source: str) -> Piece:
    """The .notes reader with one `_check_note` call per note line, the
    field count tested before any field is read, and the scale's lcm
    taken at every new beat token."""
    key: Optional[Tuple[int, str]] = None
    title: Optional[str] = None
    by_voice: defaultdict = defaultdict(list)
    beats: dict = {}
    scale = 1

    def parse_beat(token: str) -> Tuple[int, int]:
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
    ticks_of = {token: num * (scale // den)
                for token, (num, den) in beats.items()}.__getitem__
    parts = []
    for v, notes in sorted(by_voice.items()):
        parts.append(Part._from_columns(v, scale, [
            list(map(ticks_of, notes[0::4])), list(map(ticks_of, notes[1::4])),
            notes[2::4], notes[3::4], [v] * (len(notes) // 4)]))
    return Piece(parts=tuple(parts), key=key, title=title or "")


def oracle_salience_curve(piece, weights, window):
    """Salience by the direct definition: every window sums every event.

    Costs O(grid points x events) exact operations; the library's sweep
    must return the identical tuple.
    """
    window = Fraction(window)
    events = piece.all_events()
    total = piece.beats_total
    step = window / 2
    n_steps = max(1, -(-total // step))  # ceil
    times = [total * k / n_steps for k in range(int(n_steps) + 1)]

    pmin = min(e.pitch for e in events)
    pmax = max(e.pitch for e in events)
    half = window / 2

    pitch_comp: list = []
    vel_comp: list = []
    counts: list = []
    for t in times:
        lo = max(Fraction(0), t - half)
        hi = min(total, t + half)
        pitch_mass = Fraction(0)
        vel_mass = Fraction(0)
        overlap_total = Fraction(0)
        count = 0
        for e in events:
            overlap = min(e.end, hi) - max(e.onset, lo)
            if overlap > 0:
                pitch_mass += e.pitch * overlap
                vel_mass += e.velocity * overlap
                overlap_total += overlap
            if lo <= e.onset < hi:
                count += 1
        if overlap_total > 0:
            mean_pitch = pitch_mass / overlap_total
            if pmax > pmin:
                pitch_comp.append(float((mean_pitch - pmin) / (pmax - pmin)))
            else:
                pitch_comp.append(0.5)
            vel_comp.append(float(vel_mass / overlap_total) / 127.0)
        else:
            pitch_comp.append(0.0)
            vel_comp.append(0.0)
        counts.append(count)

    max_count = max(counts) if max(counts) > 0 else 1
    w_pitch, w_density, w_velocity = weights
    return tuple(
        (t, w_pitch * pc + w_density * (c / max_count) + w_velocity * vc)
        for t, pc, vc, c in zip(times, pitch_comp, vel_comp, counts))


def oracle_locate_climax(curve):
    """Peak and asymmetry by comparing times: the earliest point that
    equals the maximum, and the salience of every point before its
    time. Returns (peak_time, normalized_position, asymmetry_index,
    pre_mass_fraction)."""
    if not curve:
        raise AnalysisError("empty curve")
    total_mass = sum(s for _, s in curve)
    if total_mass <= 0:
        raise AnalysisError("no salience content")
    peak_salience = max(s for _, s in curve)
    peak_time = next(t for t, s in curve if s == peak_salience)
    span = curve[-1][0]
    if span <= 0:
        raise AnalysisError("curve spans zero time")
    normalized = float(Fraction(peak_time) / span)
    pre_mass = sum(s for t, s in curve if t < peak_time)
    return (peak_time, normalized, 2.0 * normalized - 1.0,
            pre_mass / total_mass)


def oracle_skyline(piece: Piece) -> Part:
    """Top line by the direct definition: between every two neighbouring
    boundaries, scan every event for the highest one sounding.

    Costs O(boundaries x events); the library's heap sweep must return
    the equal Part. Ties go to the earlier onset, then the lower voice,
    then the first in `all_events()` order (`min` keeps the first).
    """
    events = piece.all_events()
    boundaries = sorted({e.onset for e in events} | {e.end for e in events})
    segments: list = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        sounding = [e for e in events if e.onset <= lo and e.end >= hi]
        if not sounding:
            continue
        winner = min(sounding, key=lambda e: (-e.pitch, e.onset, e.voice))
        if segments and segments[-1][2] is winner and segments[-1][1] == lo:
            prev_lo, _, _ = segments.pop()
            segments.append((prev_lo, hi, winner))
        else:
            segments.append((lo, hi, winner))
    return Part(voice=0, events=tuple(
        NoteEvent(lo, hi - lo, src.pitch, src.velocity, src.voice)
        for lo, hi, src in segments))


def _steps_and_ratios(notes: Sequence[NoteEvent]):
    return (tuple(b.pitch - a.pitch for a, b in zip(notes, notes[1:])),
            tuple(b.duration / a.duration for a, b in zip(notes, notes[1:])))


def oracle_find_recurrences(piece: Piece, query: Part, threshold: float,
                            weights: Tuple[float, float]) -> RecurrenceSeries:
    """Recurrences by the direct definition: every window of every part's
    skyline gets its own profile and a recursive edit distance.

    The query must be monophonic; input checks are left to the library.
    """
    q_steps, q_ratios = _steps_and_ratios(query.events)
    n = len(query.events)
    lo = max(2, n // 2)
    hi = -(-3 * n // 2)  # ceil(1.5 n)
    candidates = []
    for part in piece.parts:
        if not part.events:
            continue
        notes = oracle_skyline(Piece(parts=(part,))).events
        for length in range(lo, min(hi, len(notes)) + 1):
            for start in range(len(notes) - length + 1):
                window = notes[start:start + length]
                sim = oracle_similarity(q_steps, q_ratios,
                                        *_steps_and_ratios(window), *weights)
                if sim >= threshold:
                    candidates.append(
                        (sim, part.voice, window[0].onset, window[-1].end))
    # greedy by descending similarity; a candidate overlapping a chosen
    # one in the same part is dropped
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    chosen: list = []
    for cand in candidates:
        _, voice, start, end = cand
        if any(v == voice and start < e and s < end
               for _, v, s, e in chosen):
            continue
        chosen.append(cand)
    chosen.sort(key=lambda c: (c[2], c[1]))
    matches = tuple(RecurrenceMatch(i, voice, start, end, sim)
                    for i, (sim, voice, start, end) in enumerate(chosen))
    outlier = None
    if len(matches) > 1:
        deviations = [m.deviation for m in matches]
        at_max = [i for i, d in enumerate(deviations) if d == max(deviations)]
        if len(at_max) == 1:
            outlier = at_max[0]
    return RecurrenceSeries(IntervalProfile(q_steps, q_ratios), matches,
                            outlier)


def oracle_chromaticism_index(segment: Part,
                              key: Optional[Tuple[int, str]]) -> Fraction:
    """Fraction of the segment's `NoteEvent`s whose pitch class falls
    outside the key."""
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    if not segment.events:
        raise AnalysisError("empty segment")
    scale = diatonic_set(key)
    outside = sum(1 for e in segment.events if e.pitch % 12 not in scale)
    return Fraction(outside, len(segment.events))


def oracle_classify_cadence(piece: Piece,
                            key: Optional[Tuple[int, str]] = None) -> str:
    """The final cadence by the bass of the last two `Fraction` onsets
    over every `NoteEvent`: authentic/plagal/half/other."""
    key = key if key is not None else piece.key
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    events = piece.all_events()
    onsets: dict = {}
    for e in events:
        onsets.setdefault(e.onset, []).append(e)
    if len(onsets) < 2:
        raise AnalysisError("cadence undecidable")
    penult_onset, final_onset = sorted(onsets)[-2:]
    penult, final = onsets[penult_onset], onsets[final_onset]
    if len({e.pitch for e in penult}) < 2 or len({e.pitch for e in final}) < 2:
        raise AnalysisError("cadence undecidable")
    tonic, _ = key
    penult_degree = (min(e.pitch for e in penult) - tonic) % 12
    final_degree = (min(e.pitch for e in final) - tonic) % 12
    if penult_degree == 7 and final_degree == 0:
        return "authentic"
    if penult_degree == 5 and final_degree == 0:
        return "plagal"
    if final_degree == 7:
        return "half"
    return "other"


def _oracle_varlen(data: bytes, pos: int):
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def _oracle_track(chunk: bytes, division: int, voice: int) -> Part:
    """One MTrk chunk, each note built as a `NoteEvent` when it closes;
    `Part` then sorts them stably by (onset, pitch)."""
    events: list = []
    open_notes: dict = {}
    pos = tick = status = 0

    def close(channel, pitch, end_tick):
        stack = open_notes.get((channel, pitch))
        if not stack:
            return
        start_tick, vel = stack.pop(0)
        if end_tick > start_tick:
            events.append(NoteEvent(Fraction(start_tick, division),
                                    Fraction(end_tick - start_tick, division),
                                    pitch, max(1, vel), voice))

    while pos < len(chunk):
        delta, pos = _oracle_varlen(chunk, pos)
        tick += delta
        if chunk[pos] & 0x80:
            status = chunk[pos]
            pos += 1
        if status in (0xFF, 0xF0, 0xF7):
            pos += status == 0xFF  # meta type
            length, pos = _oracle_varlen(chunk, pos)
            pos += length
            continue
        kind, channel = status & 0xF0, status & 0x0F
        ndata = 1 if kind in (0xC0, 0xD0) else 2
        data = chunk[pos:pos + ndata]
        pos += ndata
        if kind == 0x90 and data[1] > 0:
            open_notes.setdefault((channel, data[0]), []).append(
                (tick, data[1]))
        elif kind == 0x80 or (kind == 0x90 and data[1] == 0):
            close(channel, data[0], tick)
    for (channel, pitch), stack in open_notes.items():
        while stack:
            warnings.warn(f"unmatched note-on (pitch {pitch}) closed at "
                          f"track end")
            close(channel, pitch, tick)
    return Part(voice=voice, events=tuple(events))


def oracle_import_midi(data: bytes) -> Piece:
    """A well-formed format 0 or 1 SMF as a Piece: one Part per MTrk
    chunk, voice = MTrk index; other chunks are skipped. Malformed input
    is the library's job."""
    ntrks, division = struct.unpack(">HH", data[10:14])
    pos = 8 + int.from_bytes(data[4:8], "big")
    parts = []
    while len(parts) < ntrks:
        magic, length = struct.unpack(">4sI", data[pos:pos + 8])
        if magic == b"MTrk":
            parts.append(_oracle_track(data[pos + 8:pos + 8 + length],
                                       division, len(parts)))
        pos += 8 + length
    return Piece(parts=tuple(parts))


def jsonable(value: object) -> object:
    """Recursively convert analysis values to JSON-safe primitives.

    Rationals become "p/q" strings (exact); floats are rounded to the
    declared output precision; a salience `Curve` is the list of its
    rows.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return round(value, PRECISION)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, Curve)):
        return [jsonable(v) for v in value]
    if isinstance(value, Value):
        return {name: jsonable(getattr(value, name))
                for name in value._fields}
    return value


def oracle_render_json(obj: object) -> str:
    """The report text by the standard library: `json.dumps` over
    `jsonable`."""
    return json.dumps(jsonable(obj), sort_keys=True, ensure_ascii=False,
                      indent=2) + "\n"


# --- minimal Standard MIDI File writer -------------------------------------

def varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def midi_file(tracks, division: int = 480, fmt: int = 1,
              alien_before: Sequence[int] = (),
              end_of_track: bool = True) -> bytes:
    """tracks: list of event lists [(delta_ticks, message_bytes), ...];
    a delta given as bytes is written as they are. An alien chunk
    precedes track i for each i in `alien_before`; i = len(tracks) puts
    one after the last track. Each track ends in an end-of-track meta
    event unless `end_of_track` is false."""
    alien = struct.pack(">4sI", b"XFIH", 5) + b"alien"
    data = struct.pack(">4sIHHH", b"MThd", 6, fmt, len(tracks), division)
    for index, events in enumerate(tracks):
        data += alien * (index in alien_before)
        body = b"".join((delta if isinstance(delta, bytes) else varlen(delta))
                        + bytes(msg) for delta, msg in events)
        body += (varlen(0) + bytes([0xFF, 0x2F, 0x00])) * end_of_track
        data += struct.pack(">4sI", b"MTrk", len(body)) + body
    return data + alien * (len(tracks) in alien_before)


# --- melodies, random pieces and the CLI ------------------------------------

def melody(pitches, durations=None, start=0, voice=0):
    durations = durations or [1] * len(pitches)
    events = []
    onset = Fraction(start)
    for pitch, dur in zip(pitches, durations):
        events.append(NoteEvent(onset, Fraction(dur), pitch, 64, voice))
        onset += Fraction(dur)
    return Part(voice=voice, events=tuple(events))


def random_piece(rng, max_events=30):
    n = rng.randint(1, max_events)
    events = []
    onset = Fraction(0)
    for _ in range(n):
        onset += Fraction(rng.randint(0, 4), rng.choice([1, 2, 4]))
        dur = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
        events.append(NoteEvent(onset, dur, rng.randint(30, 100),
                                rng.randint(1, 127), 0))
    return Piece(parts=(Part(0, tuple(events)),))


def short_note_piece(rng, max_events=40):
    """Random monophonic pieces with very short notes, so the onset
    pattern of the reversed piece is (nearly) the mirrored original."""
    n = rng.randint(8, max_events)
    events = []
    onset = Fraction(0)
    for _ in range(n):
        events.append(NoteEvent(onset, Fraction(1, 8), rng.randint(30, 100),
                                rng.randint(1, 127), 0))
        onset += rng.choice([Fraction(1), Fraction(1), Fraction(2)])
    return Piece(parts=(Part(0, tuple(events)),))


def reverse_piece(piece):
    total = piece.beats_total
    parts = []
    for part in piece.parts:
        events = tuple(NoteEvent(total - e.end, e.duration, e.pitch,
                                 e.velocity, e.voice) for e in part.events)
        parts.append(Part(part.voice, events))
    return Piece(parts=tuple(parts), key=piece.key, title=piece.title)


def peak_margin(curve):
    """Gap between the curve maximum and the best non-adjacent sample."""
    values = [s for _, s in curve]
    top = max(values)
    i = values.index(top)
    rest = [v for j, v in enumerate(values) if abs(j - i) > 1]
    return top - max(rest) if rest else top


def run_cli(*args, cwd=None, env=None):
    """`python -m arcform` with `env`'s variables set over this
    process's."""
    return subprocess.run(
        [sys.executable, "-m", "arcform", *map(str, args)],
        capture_output=True, text=True, cwd=cwd or PKG_ROOT,
        env=env and {**os.environ, **env})
