"""Salience curve, climax location, and temporal asymmetry statistics.

The salience of a window is a convex combination of normalized pitch
height, onset density, and velocity; the climax is the earliest maximum
of the curve, so any measured delay is conservative.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .config import DEFAULTS, check_weights
from .errors import AnalysisError
from .score import NoteEvent, Piece

__all__ = [
    "ClimaxProfile",
    "salience_curve",
    "locate_climax",
    "climax_profile",
]

Curve = Tuple[Tuple[Fraction, float], ...]


@dataclass(frozen=True)
class ClimaxProfile:
    curve: Curve
    peak_time: Fraction
    normalized_position: float
    asymmetry_index: float
    pre_mass_fraction: float


def _prefix_integrals(events: Sequence[NoteEvent], onsets: Sequence[int],
                      ends: Sequence[int]):
    """Exact running integrals of the three step functions over time.

    `onsets` and `ends` are the events' boundaries in ticks. Returns the
    sorted boundaries and, per boundary, the integrals of sum-of-pitch,
    sum-of-velocity and sounding-note count from the first boundary up to
    it, plus the three step values just after it.
    """
    deltas: Dict[int, List[int]] = {}
    for e, on_tick, off_tick in zip(events, onsets, ends):
        on = deltas.setdefault(on_tick, [0, 0, 0])
        on[0] += e.pitch
        on[1] += e.velocity
        on[2] += 1
        off = deltas.setdefault(off_tick, [0, 0, 0])
        off[0] -= e.pitch
        off[1] -= e.velocity
        off[2] -= 1
    bounds = sorted(deltas)
    rows = []
    pitch = vel = sounding = 0
    pitch_int = vel_int = sounding_int = 0
    prev = bounds[0]
    for b in bounds:
        width = b - prev
        pitch_int += pitch * width
        vel_int += vel * width
        sounding_int += sounding * width
        d_pitch, d_vel, d_sounding = deltas[b]
        pitch += d_pitch
        vel += d_vel
        sounding += d_sounding
        rows.append((pitch_int, vel_int, sounding_int, pitch, vel, sounding))
        prev = b
    return bounds, rows


def _integrals_at(bounds: List[int], rows, x: int) -> Tuple[int, int, int]:
    """The three integrals up to tick x: a bisection, then linear
    interpolation inside the segment that holds x."""
    i = bisect_right(bounds, x) - 1
    if i < 0:
        return 0, 0, 0
    pitch_int, vel_int, sounding_int, pitch, vel, sounding = rows[i]
    dx = x - bounds[i]
    return (pitch_int + pitch * dx, vel_int + vel * dx,
            sounding_int + sounding * dx)


def salience_curve(piece: Piece,
                   weights: Tuple[float, float, float] = DEFAULTS.salience_weights,
                   window: Fraction = DEFAULTS.window) -> Curve:
    """Sample salience on a grid of half-window steps over [0, beats_total].

    Windows are centered on the grid points and clipped to the piece.
    A window's pitch, velocity and overlap masses are differences of
    exact prefix integrals, and its onset count is two bisections, so
    the curve costs O((events + grid points) log events).
    """
    check_weights(weights, 3)
    window = Fraction(window)
    if window <= 0:
        raise AnalysisError("window must be positive")
    events = piece.all_events()
    if not events:
        raise AnalysisError("empty piece")
    total = piece.beats_total
    if total <= 0:
        raise AnalysisError("zero-duration piece")

    # evenly spaced grid including both endpoints, spacing <= window/2;
    # mirror-symmetric so time reversal maps grid points to grid points
    half = window / 2
    n_steps = max(1, -(-total // half))  # ceil

    # The piece's ticks times `up` make every window edge and grid point
    # a whole tick too, so all integrals are exact integers. Masses in
    # ticks are the masses in beats times the scale; their ratios are
    # equal, and an int / int ratio is the correctly rounded float of
    # the same rational that the Fraction would give.
    scale, onsets, ends = piece.timeline
    up = lcm(half.denominator, n_steps)
    onsets = [t * up for t in onsets]
    bounds, rows = _prefix_integrals(events, onsets, [t * up for t in ends])
    onsets.sort()
    half_ticks = half.numerator * (scale * up // half.denominator)
    end_ticks = max(ends)
    total_ticks = end_ticks * up
    times = [Fraction(end_ticks * k, scale * n_steps)
             for k in range(n_steps + 1)]

    pmin = min(e.pitch for e in events)
    pmax = max(e.pitch for e in events)
    pitch_comp: list[float] = []
    vel_comp: list[float] = []
    counts: list[int] = []
    for k in range(n_steps + 1):
        mid = total_ticks * k // n_steps
        lo = max(0, mid - half_ticks)
        hi = min(total_ticks, mid + half_ticks)
        p_lo, v_lo, n_lo = _integrals_at(bounds, rows, lo)
        p_hi, v_hi, n_hi = _integrals_at(bounds, rows, hi)
        overlap_total = n_hi - n_lo
        if overlap_total > 0:
            if pmax > pmin:
                pitch_comp.append((p_hi - p_lo - pmin * overlap_total)
                                  / (overlap_total * (pmax - pmin)))
            else:
                pitch_comp.append(0.5)
            vel_comp.append((v_hi - v_lo) / overlap_total / 127.0)
        else:
            pitch_comp.append(0.0)
            vel_comp.append(0.0)
        counts.append(bisect_left(onsets, hi) - bisect_left(onsets, lo))

    max_count = max(counts) if max(counts) > 0 else 1
    w_pitch, w_density, w_velocity = weights
    curve = tuple(
        (t, w_pitch * pc + w_density * (c / max_count) + w_velocity * vc)
        for t, pc, vc, c in zip(times, pitch_comp, vel_comp, counts))
    return curve


def locate_climax(curve: Curve) -> ClimaxProfile:
    """Earliest-maximum peak plus derived asymmetry statistics."""
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
    return ClimaxProfile(
        curve=curve,
        peak_time=peak_time,
        normalized_position=normalized,
        asymmetry_index=2.0 * normalized - 1.0,
        pre_mass_fraction=pre_mass / total_mass,
    )


def climax_profile(piece: Piece,
                   weights: Tuple[float, float, float] = DEFAULTS.salience_weights,
                   window: Fraction = DEFAULTS.window) -> ClimaxProfile:
    return locate_climax(salience_curve(piece, weights, window))
