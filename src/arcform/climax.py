"""Salience curve, climax location, and temporal asymmetry statistics.

The salience of a window is a convex combination of normalized pitch
height, onset density, and velocity; the climax is the earliest maximum
of the curve, so any measured delay is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .config import DEFAULTS, check_weights
from .errors import AnalysisError
from .score import Piece

__all__ = [
    "ClimaxProfile",
    "MAX_GRID_POINTS",
    "salience_curve",
    "locate_climax",
    "climax_profile",
]

# a curve of more points is refused before any is computed
MAX_GRID_POINTS = 100_000

Curve = Tuple[Tuple[Fraction, float], ...]


@dataclass(frozen=True)
class ClimaxProfile:
    curve: Curve
    peak_time: Fraction
    normalized_position: float
    asymmetry_index: float
    pre_mass_fraction: float


def _edge_integrals(pitches: Sequence[int], velocities: Sequence[int],
                    onsets: Sequence[int], ends: Sequence[int],
                    windows: Sequence[Tuple[int, int]]
                    ) -> Dict[int, Tuple[int, int, int, int]]:
    """Exact running integrals at every window edge, in one sweep.

    Entry i of each column is one note, with `onsets` and `ends` in
    ticks. Maps each note boundary and window edge to the integrals of
    sum-of-pitch, sum-of-velocity and sounding-note count up to that
    tick, and to the count of onsets before it.
    """
    deltas: Dict[int, Sequence[int]] = {}
    get = deltas.get
    for pitch, vel, on_tick, off_tick in zip(pitches, velocities, onsets,
                                             ends):
        on = get(on_tick)
        if on is None:
            deltas[on_tick] = [pitch, vel, 1, 1]
        else:
            on[0] += pitch
            on[1] += vel
            on[2] += 1
            on[3] += 1
        off = get(off_tick)
        if off is None:
            deltas[off_tick] = [-pitch, -vel, -1, 0]
        else:
            off[0] -= pitch
            off[1] -= vel
            off[2] -= 1
    for lo, hi in windows:  # an edge changes nothing
        deltas.setdefault(lo, (0, 0, 0, 0))
        deltas.setdefault(hi, (0, 0, 0, 0))
    at = {}
    pitch = vel = sounding = started = 0
    pitch_int = vel_int = sounding_int = prev = 0
    for tick in sorted(deltas):
        width = tick - prev
        pitch_int += pitch * width
        vel_int += vel * width
        sounding_int += sounding * width
        at[tick] = (pitch_int, vel_int, sounding_int, started)
        d_pitch, d_vel, d_sounding, d_started = deltas[tick]
        pitch += d_pitch
        vel += d_vel
        sounding += d_sounding
        started += d_started
        prev = tick
    return at


def salience_curve(piece: Piece,
                   weights: Tuple[float, float, float] = DEFAULTS.salience_weights,
                   window: Fraction = DEFAULTS.window) -> Curve:
    """Sample salience on a grid of half-window steps over [0, beats_total].

    Windows are centered on the grid points and clipped to the piece.
    One sweep over the sorted note boundaries and window edges gives
    the exact running integrals at every edge, so a window's pitch,
    velocity and overlap masses and its onset count are differences of
    two of them, and the curve costs O((n + g) log(n + g)) for n events
    and g grid points. A grid of more than MAX_GRID_POINTS points is
    refused.
    """
    check_weights(weights, 3)
    window = Fraction(window)
    if window <= 0:
        raise AnalysisError("window must be positive")
    scale, onsets, ends = piece.timeline
    if not onsets:
        raise AnalysisError("empty piece")
    total = piece.beats_total
    if total <= 0:
        raise AnalysisError("zero-duration piece")

    # evenly spaced grid including both endpoints, spacing <= window/2;
    # mirror-symmetric so time reversal maps grid points to grid points
    half = window / 2
    n_steps = max(1, -(-total // half))  # ceil
    if n_steps + 1 > MAX_GRID_POINTS:
        raise AnalysisError(
            f"window {window} gives {n_steps + 1} grid points over "
            f"{total} beats, more than {MAX_GRID_POINTS}; use a wider "
            f"--window")

    # The piece's ticks times `up` make every window edge and grid point
    # a whole tick too, so all integrals are exact integers. Masses in
    # ticks are the masses in beats times the scale; their ratios are
    # equal, and an int / int ratio is the correctly rounded float of
    # the same rational that the Fraction would give.
    up = lcm(half.denominator, n_steps)
    half_ticks = half.numerator * (scale * up // half.denominator)
    total_ticks = max(ends) * up
    mids = [total_ticks * k // n_steps for k in range(n_steps + 1)]
    windows = [(max(0, mid - half_ticks), min(total_ticks, mid + half_ticks))
               for mid in mids]
    pitches = piece.column("pitches")
    at = _edge_integrals(pitches, piece.column("velocities"),
                         [t * up for t in onsets], [t * up for t in ends],
                         windows)

    pmin = min(pitches)
    pmax = max(pitches)
    pitch_comp: list[float] = []
    vel_comp: list[float] = []
    counts: list[int] = []
    for lo, hi in windows:
        p_lo, v_lo, n_lo, c_lo = at[lo]
        p_hi, v_hi, n_hi, c_hi = at[hi]
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
        counts.append(c_hi - c_lo)

    max_count = max(counts) if max(counts) > 0 else 1
    w_pitch, w_density, w_velocity = weights
    # a list first: `tuple()` of a generator resizes its result, which
    # shifts short curves between CPython's per-size tuple free lists
    return tuple([
        (Fraction(mid, scale * up),
         w_pitch * pc + w_density * (c / max_count) + w_velocity * vc)
        for mid, pc, vc, c in zip(mids, pitch_comp, vel_comp, counts)])


def locate_climax(curve: Curve) -> ClimaxProfile:
    """Earliest-maximum peak plus derived asymmetry statistics. The
    curve's times increase, as `salience_curve` gives them."""
    if not curve:
        raise AnalysisError("empty curve")
    saliences = [s for _, s in curve]
    total_mass = sum(saliences)
    if total_mass <= 0:
        raise AnalysisError("no salience content")
    peak = saliences.index(max(saliences))
    peak_time = curve[peak][0]
    span = curve[-1][0]
    if span <= 0:
        raise AnalysisError("curve spans zero time")
    normalized = float(Fraction(peak_time) / span)
    pre_mass = sum(saliences[:peak])
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
