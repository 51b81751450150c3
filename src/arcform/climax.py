"""Salience curve, climax location, and temporal asymmetry statistics.

The salience of a window is a convex combination of normalized pitch
height, onset density, and velocity; the climax is the earliest maximum
of the curve, so any measured delay is conservative.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

from .config import DEFAULTS, check_weights, check_window
from .errors import AnalysisError
from .score import Piece
from .value import Value

__all__ = [
    "ClimaxProfile",
    "Curve",
    "MAX_GRID_POINTS",
    "salience_curve",
    "locate_climax",
    "climax_profile",
]

# a curve of more points is refused before any is computed
MAX_GRID_POINTS = 100_000


class Curve(Value):
    """A salience curve as `salience_curve` gives it: a read-only
    sequence of `(time, salience)` rows, equal to the tuple of them, and
    with that tuple's hash, length, items, slices and repr.

    It holds each time as whole `ticks` of 1/`unit` beat beside the
    `saliences`, and builds the rows, one `Fraction` each, on first read,
    so a caller that reads only the peak statistics never builds them.
    """

    _fields = ("ticks", "unit", "saliences")

    def __init__(self, ticks: Sequence[int], unit: int,
                 saliences: Sequence[float]) -> None:
        vars(self).update(ticks=ticks, unit=unit, saliences=saliences)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, float], ...]:
        unit = self.unit
        # a list first: `tuple()` of a generator resizes its result,
        # which shifts short curves between CPython's per-size tuple
        # free lists
        return tuple([(Fraction(t, unit), s)
                      for t, s in zip(self.ticks, self.saliences)])

    def __len__(self) -> int:
        return len(self.saliences)

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Curve):
            other = other.rows
        elif not isinstance(other, tuple):
            return NotImplemented
        return self.rows == other

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return repr(self.rows)


class ClimaxProfile(Value):
    _fields = ("curve", "peak_time", "normalized_position", "asymmetry_index",
               "pre_mass_fraction")

    def __init__(self, curve: Curve, peak_time: Fraction,
                 normalized_position: float, asymmetry_index: float,
                 pre_mass_fraction: float) -> None:
        vars(self).update(curve=curve, peak_time=peak_time,
                          normalized_position=normalized_position,
                          asymmetry_index=asymmetry_index,
                          pre_mass_fraction=pre_mass_fraction)


def _edge_integrals(pitches: Sequence[int], velocities: Sequence[int],
                    onsets: Sequence[int], ends: Sequence[int],
                    edges: Iterable[int]
                    ) -> dict[int, tuple[int, int, int, int]]:
    """Exact running integrals at every window edge, in one sweep.

    Entry i of each column is one note, with `onsets` and `ends` in
    ticks. Maps each note boundary and window edge to the integrals of
    sum-of-pitch, sum-of-velocity and sounding-note count up to that
    tick, and to the count of onsets before it.
    """
    deltas: dict[int, Sequence[int]] = {}
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
    for edge in edges:  # an edge changes nothing
        deltas.setdefault(edge, (0, 0, 0, 0))
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
                   weights: tuple[float, float, float] = DEFAULTS.salience_weights,
                   window: Fraction = DEFAULTS.window) -> Curve:
    """Sample salience on a grid of half-window steps over [0, beats_total].

    Windows are centered on the grid points and not clipped to the
    piece: no note sounds or starts outside it, so they hold the clipped
    windows' masses and onset counts.
    One sweep over the sorted note boundaries and window edges gives
    the exact running integrals at every edge, so a window's pitch,
    velocity and overlap masses and its onset count are differences of
    two of them, and the curve costs O((n + g) log(n + g)) for n events
    and g grid points. A grid of more than MAX_GRID_POINTS points is
    refused.
    """
    check_weights(weights, 3)
    window = check_window(window)
    scale, onsets, ends = piece.timeline
    if not onsets:
        raise AnalysisError("empty piece")

    # evenly spaced grid including both endpoints, spacing <= window/2;
    # mirror-symmetric so time reversal maps grid points to grid points.
    # The half window is half_num/half_den beats in lowest terms; every
    # end is positive, so the ceiling is at least one step.
    num, den = window.numerator, window.denominator
    half_num, half_den = (num // 2, den) if num % 2 == 0 else (num, 2 * den)
    last = max(ends)
    n_steps = -(-last * half_den // (scale * half_num))  # ceil
    if n_steps + 1 > MAX_GRID_POINTS:
        raise AnalysisError(
            f"window {window} gives {n_steps + 1} grid points over "
            f"{piece.beats_total} beats, more than {MAX_GRID_POINTS}; use "
            f"a wider --window")

    # The piece's ticks times `up` make every window edge and grid point
    # a whole tick too, so all integrals are exact integers. Masses in
    # ticks are the masses in beats times the scale; their ratios are
    # equal, and an int / int ratio is the correctly rounded float of
    # the same rational that the Fraction would give.
    up = lcm(half_den, n_steps)
    half_ticks = half_num * (scale * up // half_den)
    total_ticks = last * up
    step = total_ticks // n_steps
    ticks = range(0, total_ticks + 1, step)
    # unclipped: no note sounds or starts outside [0, total_ticks]
    los = range(-half_ticks, total_ticks - half_ticks + 1, step)
    his = range(half_ticks, total_ticks + half_ticks + 1, step)
    pitches = piece.column("pitches")
    at = _edge_integrals(pitches, piece.column("velocities"),
                         [t * up for t in onsets], [t * up for t in ends],
                         chain(los, his))

    # Grid spacing is at most half a window, so every onset lies in some
    # window and the largest onset count is at least one.
    pmin = min(pitches)
    spread = max(pitches) - pmin
    pitch_comp: list[float] = []
    vel_comp: list[float] = []
    counts: list[int] = []
    for lo, hi in zip(los, his):
        p_lo, v_lo, n_lo, c_lo = at[lo]
        p_hi, v_hi, n_hi, c_hi = at[hi]
        overlap_total = n_hi - n_lo
        if overlap_total > 0:
            if spread:
                pitch_comp.append((p_hi - p_lo - pmin * overlap_total)
                                  / (overlap_total * spread))
            else:
                pitch_comp.append(0.5)
            vel_comp.append((v_hi - v_lo) / overlap_total / 127.0)
        else:
            pitch_comp.append(0.0)
            vel_comp.append(0.0)
        counts.append(c_hi - c_lo)
    max_count = max(counts)
    w_pitch, w_density, w_velocity = weights
    return Curve(ticks, scale * up, tuple([
        w_pitch * pc + w_density * (c / max_count) + w_velocity * vc
        for pc, vc, c in zip(pitch_comp, vel_comp, counts)]))


def locate_climax(curve: Curve | Sequence[tuple[Fraction, float]]
                  ) -> ClimaxProfile:
    """Earliest-maximum peak plus derived asymmetry statistics. The
    curve's times increase, as `salience_curve` gives them; a `Curve` is
    read through its ticks and saliences, with no row built."""
    if not curve:
        raise AnalysisError("empty curve")
    lazy = isinstance(curve, Curve)
    saliences = curve.saliences if lazy else [s for _, s in curve]
    total_mass = sum(saliences)
    if total_mass <= 0:
        raise AnalysisError("no salience content")
    peak = saliences.index(max(saliences))
    if lazy:
        # one Fraction; the int / int ratio below is the correctly
        # rounded float of the same rational as the times' ratio
        peak_at, span = curve.ticks[peak], curve.ticks[-1]
        peak_time = Fraction(peak_at, curve.unit)
    else:
        peak_time, span = curve[peak][0], curve[-1][0]
        peak_at = Fraction(peak_time)
    if span <= 0:
        raise AnalysisError("curve spans zero time")
    normalized = float(peak_at / span)
    pre_mass = sum(saliences[:peak])
    return ClimaxProfile(
        curve=curve,
        peak_time=peak_time,
        normalized_position=normalized,
        asymmetry_index=2.0 * normalized - 1.0,
        pre_mass_fraction=pre_mass / total_mass,
    )


def climax_profile(piece: Piece,
                   weights: tuple[float, float, float] = DEFAULTS.salience_weights,
                   window: Fraction = DEFAULTS.window) -> ClimaxProfile:
    return locate_climax(salience_curve(piece, weights, window))
