"""Melodic recurrence detection and deviation scoring.

Melodies are compared through transposition-invariant interval profiles
(semitone steps + duration ratios) under a weighted, normalized edit
distance, so the same tune is recognized in any key and at any uniform
tempo scaling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .config import DEFAULTS, check_weights
from .errors import AnalysisError
from .score import Part, Piece, skyline

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


@dataclass(frozen=True)
class IntervalProfile:
    """Transposition- and tempo-invariant melodic fingerprint."""

    steps: Tuple[int, ...]
    ratios: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.steps) != len(self.ratios):
            raise ValueError("steps/ratios length mismatch")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RecurrenceMatch:
    occurrence_index: int
    part: int
    start: Fraction
    end: Fraction
    similarity: float

    @property
    def deviation(self) -> float:
        return 1.0 - self.similarity


@dataclass(frozen=True)
class RecurrenceSeries:
    query: IntervalProfile
    matches: Tuple[RecurrenceMatch, ...]
    outlier_index: Optional[int]


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


def _pattern_masks(pattern: Sequence[Hashable]) -> Dict[Hashable, int]:
    """Bit i of masks[c] is set where pattern[i] == c."""
    masks: Dict[Hashable, int] = {}
    for i, sym in enumerate(pattern):
        masks[sym] = masks.get(sym, 0) | 1 << i
    return masks


def _prefix_distances(pattern_len: int, masks: Dict[Hashable, int],
                      text: Sequence[Hashable]) -> List[int]:
    """Unit-cost Levenshtein distance of the pattern to every text prefix.

    Entry k is the distance to text[:k]. Myers' (1999) bit-vector
    recurrence in Hyyrö's global-distance form: the vertical deltas of one
    DP column are two bit-vectors, and each text symbol advances the column
    in a few word operations. Python ints are unbounded, so any pattern
    length works; bits above the pattern never reach the bits below it.
    """
    if not pattern_len:
        return list(range(len(text) + 1))
    dist = pattern_len
    out = [dist]
    top = 1 << (pattern_len - 1)
    vp, vn = -1, 0
    for sym in text:
        x = masks.get(sym, 0)
        d0 = (((x & vp) + vp) ^ vp) | x | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = hp << 1 | 1
        vp = hn << 1 | ~(d0 | hp)
        vn = hp & d0
        out.append(dist)
    return out


def _weight_ticks(weights: Tuple[float, float]) -> Tuple[int, int, int]:
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


def similarity(a: IntervalProfile, b: IntervalProfile,
               weights: Tuple[float, float] = DEFAULTS.similarity_weights) -> float:
    """1 minus the weighted normalized edit distance of the two profiles."""
    check_weights(weights, 2)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    d_steps = _prefix_distances(len(a), _pattern_masks(a.steps), b.steps)[-1]
    d_ratios = _prefix_distances(len(a), _pattern_masks(a.ratios),
                                 b.ratios)[-1]
    return _score(d_steps, d_ratios, max(len(a), len(b)),
                  *_weight_ticks(weights))


def find_recurrences(piece: Piece, query: Part,
                     threshold: float = DEFAULTS.threshold,
                     weights: Tuple[float, float] = DEFAULTS.similarity_weights,
                     ) -> RecurrenceSeries:
    """Find every non-overlapping statement of the query melody.

    Slides windows of 0.5x to 1.5x the query note count over the skyline of
    each part; candidates at or above the similarity threshold are resolved
    greedily by descending similarity.

    The window of `length` notes from note `start` has the interval profile
    of the skyline sliced to [start, start + length - 1). One bit-vector
    edit-distance pass from each start scores every window length at once,
    so a part of n skyline notes costs O(n * ceil(1.5 q)) word operations
    for a q-note query.
    """
    if len(query) < 2:
        raise AnalysisError("query shorter than 2 notes")
    if not 0 < threshold <= 1:
        raise AnalysisError("threshold must be in (0, 1]")
    check_weights(weights, 2)
    qprof = interval_profile(query)
    n = len(query)
    lo = max(2, n // 2)
    hi = -(-3 * n // 2)  # ceil(1.5 n)

    qlen = len(qprof)
    step_masks = _pattern_masks(qprof.steps)
    # each ratio is interned to a small int by its reduced (numerator,
    # denominator), so the passes build and hash no Fractions
    ratio_ids: Dict[Tuple[int, int], int] = {}
    ratio_masks = _pattern_masks(
        [ratio_ids.setdefault((r.numerator, r.denominator), len(ratio_ids))
         for r in qprof.ratios])
    weight_ticks = _weight_ticks(weights)
    scores: Dict[Tuple[int, int, int], float] = {}

    candidates = []
    for part in piece.parts:
        if not len(part):
            continue
        # a skyline is monophonic; its notes stay in ticks of its own
        # scale, so candidates compare times only within one voice
        line = skyline(Piece(parts=(part,)))
        pitches, onsets, durations = line.pitches, line.onsets, line.durations
        steps = list(map(sub, pitches[1:], pitches))
        ratios = []
        for a, b in zip(durations, durations[1:]):
            g = gcd(a, b)
            ratios.append(ratio_ids.setdefault((b // g, a // g),
                                               len(ratio_ids)))
        for start in range(len(line) - lo + 1):
            stop = start + min(hi, len(line) - start) - 1
            d_steps = _prefix_distances(qlen, step_masks, steps[start:stop])
            d_ratios = _prefix_distances(qlen, ratio_masks,
                                         ratios[start:stop])
            for length in range(lo, stop - start + 2):
                key = (d_steps[length - 1], d_ratios[length - 1],
                       max(qlen, length - 1))
                sim = scores.get(key)
                if sim is None:
                    sim = scores[key] = _score(*key, *weight_ticks)
                if sim >= threshold:
                    last = start + length - 1
                    candidates.append((sim, part.voice, onsets[start],
                                       onsets[last] + durations[last],
                                       line.scale))

    # greedy by descending similarity; a candidate overlapping a chosen
    # one in the same part is dropped. The chosen spans of one part are
    # disjoint, so sorted by start they are sorted by end too, and only
    # the last one starting before a candidate ends can overlap it.
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    spans: Dict[int, Tuple[List[int], List[int]]] = {}
    chosen: list[Tuple[float, int, Fraction, Fraction]] = []
    for sim, voice, start, end, scale in candidates:
        starts, stops = spans.setdefault(voice, ([], []))
        k = bisect_left(starts, end)
        if k and stops[k - 1] > start:
            continue
        starts.insert(k, start)
        stops.insert(k, end)
        chosen.append((sim, voice, Fraction(start, scale),
                       Fraction(end, scale)))
    chosen.sort(key=lambda c: (c[2], c[1]))

    matches = tuple(RecurrenceMatch(i, voice, start, end, sim)
                    for i, (sim, voice, start, end) in enumerate(chosen))
    outlier: Optional[int] = None
    if matches:
        max_dev = max(m.deviation for m in matches)
        at_max = [m.occurrence_index for m in matches
                  if m.deviation == max_dev]
        if len(at_max) == 1 and len(matches) > 1:
            outlier = at_max[0]
    return RecurrenceSeries(qprof, matches, outlier)


def diatonic_set(key: Tuple[int, str]) -> frozenset:
    tonic, mode = key
    base = MAJOR_SET if mode == "major" else MINOR_SET
    return frozenset((pc + tonic) % 12 for pc in base)


def chromaticism_index(segment: Part, key: Optional[Tuple[int, str]]) -> Fraction:
    """Fraction of notes whose pitch class falls outside the key."""
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    if not segment.events:
        raise AnalysisError("empty segment")
    scale = diatonic_set(key)
    outside = sum(1 for e in segment.events if e.pitch % 12 not in scale)
    return Fraction(outside, len(segment.events))


NATURAL_MINOR_SET = frozenset({0, 2, 3, 5, 7, 8, 10})


def estimate_key(piece: Piece) -> Tuple[int, str]:
    """Best of 24 keys by duration-weighted pitch-class overlap.

    Minor candidates are scored on the natural-minor set (7 pitch
    classes, same size as major) so relative keys tie instead of minor
    always winning; ties prefer major over minor, then the lower tonic
    pitch class. Mode outranks tonic so the result is transposition
    covariant.
    """
    events = piece.all_events()
    if not events:
        raise AnalysisError("empty piece")
    mass = [Fraction(0)] * 12
    for e in events:
        mass[e.pitch % 12] += e.duration
    best = None
    for tonic in range(12):
        for mode in ("major", "minor"):
            base = MAJOR_SET if mode == "major" else NATURAL_MINOR_SET
            scale = frozenset((pc + tonic) % 12 for pc in base)
            score = sum((mass[pc] for pc in scale), Fraction(0))
            rank = (-score, 0 if mode == "major" else 1, tonic)
            if best is None or rank < best[0]:
                best = (rank, (tonic, mode))
    return best[1]


def classify_cadence(piece: Piece,
                     key: Optional[Tuple[int, str]] = None) -> str:
    """Label the final cadence by bass motion: authentic/plagal/half/other."""
    key = key if key is not None else piece.key
    if key is None:
        raise AnalysisError(
            "no key available: supply one or run estimate_key")
    events = piece.all_events()
    onsets: dict[Fraction, list] = {}
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
