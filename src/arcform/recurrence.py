"""Melodic recurrence detection and deviation scoring.

Melodies are compared through transposition-invariant interval profiles
(semitone steps + duration ratios) under a weighted, normalized edit
distance, so the same tune is recognized in any key and at any uniform
tempo scaling.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Hashable, Iterator, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import floordiv, sub

from .config import DEFAULTS, check_threshold, check_weights
from .errors import AnalysisError
from .score import Part, Piece, skyline
from .value import Value

__all__ = [
    "IntervalProfile",
    "RecurrenceMatch",
    "RecurrenceSeries",
    "interval_profile",
    "similarity",
    "find_recurrences",
    "chromaticism_index",
    "estimate_key",
    "classify_cadence",
    "diatonic_set",
]

MAJOR_SET = frozenset({0, 2, 4, 5, 7, 9, 11})
# natural minor plus the raised 7th (leading tone) admitted as diatonic
MINOR_SET = frozenset({0, 2, 3, 5, 7, 8, 10, 11})
# the joint bound weighs in 2**-10 steps: a 16-bit lane's weighted distance
# is at most 2**10 * 23 < 2**15, so it stays below the lane's high bit
_BOUND_BITS = 10


class IntervalProfile(Value):
    """Transposition- and tempo-invariant melodic fingerprint."""

    _fields = ("steps", "ratios")

    def __init__(self, steps: tuple[int, ...],
                 ratios: tuple[Fraction, ...]) -> None:
        if len(steps) != len(ratios):
            raise ValueError("steps/ratios length mismatch")
        vars(self).update(steps=steps, ratios=ratios)

    def __len__(self) -> int:
        return len(self.steps)


class RecurrenceMatch(Value):
    _fields = ("occurrence_index", "part", "start", "end", "similarity")

    def __init__(self, occurrence_index: int, part: int, start: Fraction,
                 end: Fraction, similarity: float) -> None:
        vars(self).update(occurrence_index=occurrence_index, part=part,
                          start=start, end=end, similarity=similarity)

    @property
    def deviation(self) -> float:
        return 1.0 - self.similarity


class RecurrenceSeries(Value):
    _fields = ("query", "matches", "outlier_index")

    def __init__(self, query: IntervalProfile,
                 matches: tuple[RecurrenceMatch, ...],
                 outlier_index: int | None) -> None:
        vars(self).update(query=query, matches=matches,
                          outlier_index=outlier_index)


def interval_profile(melody: Part) -> IntervalProfile:
    """Semitone steps and duration ratios between consecutive notes."""
    if not len(melody):
        raise AnalysisError("empty melody")
    if not melody.is_monophonic():
        raise AnalysisError("polyphonic input")
    pitches, durations = melody.pitches, melody.durations
    # lists first, so each tuple is allocated at its size (see Part._fill)
    return IntervalProfile(tuple(list(map(sub, pitches[1:], pitches))),
                           tuple(list(map(Fraction, durations[1:],
                                          durations))))


def _pattern_masks(pattern: Sequence[Hashable]) -> dict[Hashable, int]:
    """Bit i of masks[c] is set where pattern[i] == c."""
    masks: dict[Hashable, int] = {}
    for i, sym in enumerate(pattern):
        masks[sym] = masks.get(sym, 0) | 1 << i
    return masks


def _lane_width(pattern_len: int) -> int:
    """Bits per lane: the pattern plus a guard bit for the carry, rounded
    up to a width `memoryview.cast` reads back (16, 32 or 64·m)."""
    if pattern_len < 16:
        return 16
    if pattern_len < 32:
        return 32
    return 64 * -(-(pattern_len + 1) // 64)


def _low_bits(lanes: int, width: int) -> int:
    """Bit 0 of each of `lanes` lanes of `width` bits."""
    return int.from_bytes(b"\1".ljust(width // 8, b"\0") * lanes, "little")


def _packed_distances(pattern: Sequence[Hashable], text: Sequence[Hashable],
                      lanes: int, steps: int) -> Iterator[int]:
    """Unit-cost Levenshtein distances of the pattern to text[s:s + t] for
    every start s < lanes, packed in one int per t = 1..steps.

    Lane s is bits [s·w, (s + 1)·w) for w = `_lane_width(len(pattern))`
    and runs Myers' (1999) bit-vector recurrence in Hyyrö's global-distance
    form over text[s:]: the vertical deltas of one DP column are two
    bit-vectors, and each step advances every lane's column in a dozen
    big-int operations (Hyyrö, Fredriksson & Navarro, JEA 2005). A sum
    carries into the lane's guard bit and every result is masked back to
    the low len(pattern) bits, so no lane reaches another. Each yielded
    int holds every lane's distance, at most max(len(pattern), t), as a
    counter in its low bits, so lanes stay apart while steps < 2**w; lanes
    past the end of the text read a symbol that matches nothing. Only the
    current step's words are kept.
    """
    qlen = len(pattern)
    width = _lane_width(qlen)
    low = _low_bits(lanes, width)
    if not qlen:
        yield from (t * low for t in range(1, steps + 1))
        return
    size = width // 8
    zero = bytes(size)
    codes = {sym: mask.to_bytes(size, "little")
             for sym, mask in _pattern_masks(pattern).items()}
    # lane i of `symbols` is the pattern mask of text[i]; shifted down t
    # lanes, lane s holds that of text[s + t]
    symbols = int.from_bytes(
        b"".join([codes.get(sym, zero) for sym in text]), "little")
    lows = low * ((1 << qlen) - 1)
    tops = low << (qlen - 1)
    vp, vn, dist = lows, 0, qlen * low
    for t in range(steps):
        x = (symbols >> t * width) & lows
        d0 = ((((x & vp) + vp) & lows) ^ vp) | x | vn
        hp = vn | (lows ^ (d0 | vp))
        hn = d0 & vp
        dist += (hp & tops) >> (qlen - 1)
        dist -= (hn & tops) >> (qlen - 1)
        hp = ((hp << 1) & lows) | low
        vp = ((hn << 1) & lows) | (lows ^ (d0 | hp))
        vn = hp & d0
        yield dist


def _read_lanes(packed: int, lanes: int, width: int) -> memoryview:
    """Item s is lane s of `packed` (its low 64 bits when it is wider)."""
    view = memoryview(packed.to_bytes(lanes * width // 8, sys.byteorder)
                      ).cast({16: "H", 32: "I"}.get(width, "Q"))
    if sys.byteorder == "big":
        view = view[::-1]
    return view[::width // 64] if width > 64 else view


def _distance(pattern: Sequence[Hashable], text: Sequence[Hashable]) -> int:
    """Unit-cost Levenshtein distance: one lane run over the whole text."""
    dist = len(pattern)
    for dist in _packed_distances(pattern, text, 1, len(text)):
        pass
    return dist


def _weight_ticks(weights: tuple[float, float]) -> tuple[int, int, int]:
    """`(n_pitch, n_rhythm, den)`: the weights are exactly n_pitch / den
    and n_rhythm / den, since a float is a dyadic rational."""
    w_pitch, w_rhythm = map(Fraction, weights)
    den = lcm(w_pitch.denominator, w_rhythm.denominator)
    return (w_pitch.numerator * (den // w_pitch.denominator),
            w_rhythm.numerator * (den // w_rhythm.denominator), den)


def _score(d_steps: int, d_ratios: int, denom: int,
           n_pitch: int, n_rhythm: int, den: int) -> float:
    """1 minus the weighted distance over denom, clamped at 0.

    The exact score is one ratio of integers, and int / int is correctly
    rounded, so the float is bit-for-bit that of the exact rational.
    """
    exact = den * denom - n_pitch * d_steps - n_rhythm * d_ratios
    return max(exact, 0) / (den * denom)


def _joint_cut(denom: int, threshold: float) -> int:
    """The least integer over 2**_BOUND_BITS * denom * (1 - t + 2**-50),
    t = float(threshold): a passing window's exact score is within 2**-54
    of its float, at least the threshold, itself within 2**-54 of t."""
    p, q = float(threshold).as_integer_ratio()
    return (denom * ((q - p << 50) + q) << _BOUND_BITS) // (q << 50) + 1


def similarity(a: IntervalProfile, b: IntervalProfile,
               weights: tuple[float, float] = DEFAULTS.similarity_weights) -> float:
    """1 minus the weighted normalized edit distance of the two profiles."""
    check_weights(weights, 2)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    return _score(_distance(a.steps, b.steps), _distance(a.ratios, b.ratios),
                  max(len(a), len(b)), *_weight_ticks(weights))


def find_recurrences(piece: Piece, query: Part,
                     threshold: float = DEFAULTS.threshold,
                     weights: tuple[float, float] = DEFAULTS.similarity_weights,
                     ) -> RecurrenceSeries:
    """Find every non-overlapping statement of the query melody.

    Slides windows of 0.5x to 1.5x the query note count over the skyline of
    each part; candidates at or above the similarity threshold are resolved
    greedily by descending similarity.

    The window of `length` notes from note `start` has the interval profile
    of the skyline sliced to [start, start + length - 1): semitone steps,
    and duration ratios as reduced pairs of ticks. The parts' skylines are
    laid end to end in one line of n notes, and one packed bit-vector pass
    per symbol stream runs the query from every note at once, one start
    per lane: its step t gives every window of t + 1 notes, and a mask of
    each part's last-note lane, shifted down one lane per step, clears the
    windows that would run past their part's last note. The piece takes
    ceil(1.5 q) - 1 packed steps, O(n * q * w / 64) word operations for a
    q-note query and w-bit lanes. Python works only on a lane whose joint
    weighted distance is under `_joint_cut`; a step reads its lanes once,
    steps above ratios in a lane's low 64 bits, an int that keys the step's
    window-length memo of scores. Spans come from the skylines' timeline.
    """
    if len(query) < 2:
        raise AnalysisError("query shorter than 2 notes")
    check_threshold(threshold)
    check_weights(weights, 2)
    qprof = interval_profile(query)
    n = len(query)
    lo = max(2, n // 2)
    hi = -(-3 * n // 2)  # ceil(1.5 n)

    qlen = len(qprof)
    width = _lane_width(qlen)
    half = min(width // 2, 32)  # a lane's two distances, in its low 64 bits
    weight_ticks = n_pitch, n_rhythm, den = _weight_ticks(weights)
    # A window passes only if a * d_steps + b * d_ratios (weights rounded
    # down to 2**-_BOUND_BITS steps) is under `_joint_cut`. By denominator
    # max(qlen, length - 1), lo <= length <= hi: that cut and a score memo.
    a, b = (n_pitch << _BOUND_BITS) // den, (n_rhythm << _BOUND_BITS) // den
    cuts = {denom: (_joint_cut(denom, threshold), {})
            for denom in range(qlen, hi)}

    # Every part's skyline goes into one piece-wide line, note s in lane
    # s. A duration ratio is its reduced (numerator, denominator) pair.
    # Each part's step and ratio streams end in a pad symbol (None, which
    # no query symbol equals), so a part's last note still has a lane.
    lines: list[Part] = []
    voices: list[int] = []
    steps: list[int | None] = []
    ratios: list[tuple[int, int] | None] = []
    part_ends = 0  # the high bit of each part's last-note lane
    for part in piece.parts:
        if not len(part):
            continue
        line = skyline(Piece(parts=(part,)))
        if len(line) < lo:
            continue
        lines.append(line)
        voices += [part.voice] * len(line)
        pitches, d = line.pitches, line.durations
        steps += map(sub, pitches[1:], pitches)
        steps.append(None)
        units = list(map(gcd, d, d[1:]))
        ratios += zip(map(floordiv, d[1:], units), map(floordiv, d, units))
        ratios.append(None)
        part_ends |= 1 << (len(voices) * width - 1)
    # spans in one scale for every line, so parts that share a voice
    # number compare correctly
    scale, onsets, ends = Piece(parts=tuple(lines)).timeline

    lanes = len(onsets)
    low = _low_bits(lanes, width)
    high = low << (width - 1)
    q_ratios = [(r.numerator, r.denominator) for r in qprof.ratios]
    passes = zip(_packed_distances(qprof.steps, steps, lanes, hi - 1),
                 _packed_distances(q_ratios, ratios, lanes, hi - 1))
    # at step t a window from note s would run past its part's last note
    # (into the next part, or past the end) when one of notes s .. s + t - 1
    # is that last note: `part_ends` shifted down 0 .. t - 1 lanes
    crossing = 0
    candidates = []
    # Per lane, the best similarity of a candidate so far that starts
    # there, and of one that ends there. A window is dropped when a
    # shorter one from its start scores at least as high, or one to its
    # end that starts later (so is shorter, seen at an earlier t) scores
    # strictly higher. That window sorts before it below and lies inside
    # it, so whatever takes or blocks that window blocks this one: the
    # matches do not change.
    best_from = [0.0] * lanes
    best_to = [0.0] * lanes
    for t, (d_steps, d_ratios) in enumerate(passes, 1):
        crossing = (crossing >> width) | part_ends
        if t + 1 < lo:
            continue
        denom = max(qlen, t)
        cut, memo = cuts[denom]
        # SWAR compare: a lane keeps its high bit in (s | high) - cut
        # exactly when its weighted distance s >= cut
        fails = ((a * d_steps + b * d_ratios) | high) - cut * low
        keep = high & ~(fails | crossing)
        if not keep:
            continue
        both = _read_lanes((d_steps << half) | d_ratios, lanes, width)
        for start in compress(range(lanes), _read_lanes(keep >> (width - 1),
                                                        lanes, width)):
            key = both[start]
            sim = memo.get(key)
            if sim is None:
                sim = memo[key] = _score(*divmod(key, 1 << half), denom,
                                         *weight_ticks)
            if sim >= threshold and sim > best_from[start]:
                best_from[start] = sim
                last = start + t
                if sim >= best_to[last]:
                    best_to[last] = sim
                    candidates.append((-sim, voices[start], onsets[start],
                                       ends[last]))

    # greedy by descending similarity, dropping a candidate that overlaps
    # a chosen one in its voice. A voice's chosen spans are disjoint: no
    # two share a start, by start they are sorted by end too, and only the
    # last one starting before a candidate ends can overlap it.
    candidates.sort()
    spans: dict[int, tuple[list[int], list[int]]] = {}
    chosen: list[tuple[int, int, int, float]] = []
    for neg_sim, voice, start, end in candidates:
        starts, stops = spans.setdefault(voice, ([], []))
        k = bisect_left(starts, end)
        if k and stops[k - 1] > start:
            continue
        starts.insert(k, start)
        stops.insert(k, end)
        chosen.append((start, voice, end, -neg_sim))
    chosen.sort()

    matches = tuple(RecurrenceMatch(i, voice, Fraction(start, scale),
                                    Fraction(end, scale), sim)
                    for i, (start, voice, end, sim) in enumerate(chosen))
    outlier: int | None = None
    if matches:
        max_dev = max(m.deviation for m in matches)
        at_max = [m.occurrence_index for m in matches
                  if m.deviation == max_dev]
        if len(at_max) == 1 and len(matches) > 1:
            outlier = at_max[0]
    return RecurrenceSeries(qprof, matches, outlier)


def diatonic_set(key: tuple[int, str]) -> frozenset:
    tonic, mode = key
    base = MAJOR_SET if mode == "major" else MINOR_SET
    return frozenset((pc + tonic) % 12 for pc in base)


def chromaticism_index(segment: Part, key: tuple[int, str] | None) -> Fraction:
    """Fraction of notes whose pitch class falls outside the key."""
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    if not len(segment):
        raise AnalysisError("empty segment")
    scale = diatonic_set(key)
    outside = sum(pitch % 12 not in scale for pitch in segment.pitches)
    return Fraction(outside, len(segment))


def estimate_key(piece: Piece) -> tuple[int, str]:
    """Best of the 12 major keys by duration-weighted pitch-class overlap,
    ties going to the lower tonic. A minor-mode piece reads as its
    relative major, whose pitch classes its natural minor shares."""
    _, onsets, ends = piece.timeline
    if not onsets:
        raise AnalysisError("empty piece")
    mass = [0] * 12  # in the piece's ticks, so equal masses tie exactly
    for pitch, onset, end in zip(piece.column("pitches"), onsets, ends):
        mass[pitch % 12] += end - onset
    _, tonic = min((-sum(mass[(pc + tonic) % 12] for pc in MAJOR_SET), tonic)
                   for tonic in range(12))
    return tonic, "major"


def classify_cadence(piece: Piece,
                     key: tuple[int, str] | None = None) -> str:
    """Label the final cadence by bass motion: authentic/plagal/half/other."""
    key = key if key is not None else piece.key
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    _, onsets, _ = piece.timeline
    chords: dict[int, set] = {}  # onset tick -> pitches of the notes there
    for onset, pitch in zip(onsets, piece.column("pitches")):
        chords.setdefault(onset, set()).add(pitch)
    if len(chords) < 2:
        raise AnalysisError("cadence undecidable")
    penult, final = (chords[t] for t in sorted(chords)[-2:])
    if len(penult) < 2 or len(final) < 2:
        raise AnalysisError("cadence undecidable")
    tonic, _ = key
    penult_degree = (min(penult) - tonic) % 12
    final_degree = (min(final) - tonic) % 12
    if penult_degree == 7 and final_degree == 0:
        return "authentic"
    if penult_degree == 5 and final_degree == 0:
        return "plagal"
    if final_degree == 7:
        return "half"
    return "other"
