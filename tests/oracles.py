"""Independent oracles the tests check the library against.

Deliberately written with different algorithms than the implementations
they verify: plain recursion instead of the bit-vector edit distance,
string rewriting instead of tree rewriting, a per-window sum over every
event instead of prefix integrals, a scan of every event at every
boundary instead of a heap sweep, every recurrence window scored from
scratch instead of one pass per window start, a MIDI reader that builds
each note's `Fraction`s as it closes, a recursive-descent tree parser
instead of an explicit stack, and a from-scratch MIDI byte writer.
"""

from __future__ import annotations

import struct
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Set, Tuple

from arcform.errors import GrammarError
from arcform.grammar import FormTree, Leaf, Node
from arcform.recurrence import IntervalProfile, RecurrenceMatch, RecurrenceSeries
from arcform.score import NoteEvent, Part, Piece


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


def oracle_similarity(steps_a, ratios_a, steps_b, ratios_b,
                      w_pitch: float, w_rhythm: float) -> float:
    if not steps_a and not steps_b:
        return 1.0
    denom = max(len(steps_a), len(steps_b))
    d = (Fraction(w_pitch) * Fraction(recursive_edit_distance(steps_a, steps_b), denom)
         + Fraction(w_rhythm) * Fraction(recursive_edit_distance(ratios_a, ratios_b), denom))
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
    chunk, voice = chunk index. Malformed input is the library's job."""
    ntrks, division = struct.unpack(">HH", data[10:14])
    pos = 8 + int.from_bytes(data[4:8], "big")
    parts = []
    for index in range(ntrks):
        magic, length = struct.unpack(">4sI", data[pos:pos + 8])
        if magic == b"MTrk":
            parts.append(_oracle_track(data[pos + 8:pos + 8 + length],
                                       division, index))
        pos += 8 + length
    return Piece(parts=tuple(parts))


# --- minimal Standard MIDI File writer -------------------------------------

def varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def midi_file(tracks, division: int = 480, fmt: int = 1) -> bytes:
    """tracks: list of event lists [(delta_ticks, message_bytes), ...]."""
    data = struct.pack(">4sIHHH", b"MThd", 6, fmt, len(tracks), division)
    for events in tracks:
        body = b"".join(varlen(delta) + bytes(msg) for delta, msg in events)
        body += varlen(0) + bytes([0xFF, 0x2F, 0x00])  # end of track
        data += struct.pack(">4sI", b"MTrk", len(body)) + body
    return data
