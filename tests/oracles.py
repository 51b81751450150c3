"""Independent oracles the tests check the library against.

Deliberately written with different algorithms than the implementations
they verify: plain recursion instead of the rolling-array DP, string
rewriting instead of tree rewriting, a per-window sum over every event
instead of prefix integrals, and a from-scratch MIDI byte writer.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Set, Tuple


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
