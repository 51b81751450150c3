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
    if not melody.events:
        raise AnalysisError("empty melody")
    if not melody.is_monophonic():
        raise AnalysisError("polyphonic input")
    ev = melody.events
    steps = tuple(b.pitch - a.pitch for a, b in zip(ev, ev[1:]))
    ratios = tuple(b.duration / a.duration for a, b in zip(ev, ev[1:]))
    return IntervalProfile(steps, ratios)


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


def _score(d_steps: int, d_ratios: int, denom: int,
           w_pitch: Fraction, w_rhythm: Fraction) -> float:
    """1 minus the weighted distance over denom, clamped to [0, 1].

    Exact rational arithmetic, so the score is reproducible bit-for-bit.
    """
    score = 1 - (w_pitch * Fraction(d_steps, denom)
                 + w_rhythm * Fraction(d_ratios, denom))
    return float(min(Fraction(1), max(Fraction(0), score)))


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
                  *map(Fraction, weights))


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
    if len(query.events) < 2:
        raise AnalysisError("query shorter than 2 notes")
    if not 0 < threshold <= 1:
        raise AnalysisError("threshold must be in (0, 1]")
    check_weights(weights, 2)
    qprof = interval_profile(query)
    n = len(query.events)
    lo = max(2, n // 2)
    hi = -(-3 * n // 2)  # ceil(1.5 n)

    qlen = len(qprof)
    step_masks = _pattern_masks(qprof.steps)
    # ratios are interned to small ints so the passes hash no Fractions
    ratio_ids: Dict[Fraction, int] = {}
    ratio_masks = _pattern_masks(
        [ratio_ids.setdefault(r, len(ratio_ids)) for r in qprof.ratios])
    exact_weights = tuple(map(Fraction, weights))
    scores: Dict[Tuple[int, int, int], float] = {}

    candidates = []
    for part in piece.parts:
        if not part.events:
            continue
        line = skyline(Piece(parts=(part,)))
        notes = line.events
        # each part's notes in ticks of its own scale: candidates compare
        # times only within one voice
        _, onsets, ends = Piece(parts=(line,)).timeline
        prof = interval_profile(line)
        ratios = [ratio_ids.setdefault(r, len(ratio_ids))
                  for r in prof.ratios]
        for start in range(len(notes) - lo + 1):
            stop = start + min(hi, len(notes) - start) - 1
            d_steps = _prefix_distances(qlen, step_masks,
                                        prof.steps[start:stop])
            d_ratios = _prefix_distances(qlen, ratio_masks,
                                         ratios[start:stop])
            for length in range(lo, stop - start + 2):
                key = (d_steps[length - 1], d_ratios[length - 1],
                       max(qlen, length - 1))
                sim = scores.get(key)
                if sim is None:
                    sim = scores[key] = _score(*key, *exact_weights)
                if sim >= threshold:
                    last = start + length - 1
                    candidates.append((sim, part.voice, onsets[start],
                                       ends[last], notes[start], notes[last]))

    # greedy by descending similarity; a candidate overlapping a chosen
    # one in the same part is dropped. The chosen spans of one part are
    # disjoint, so sorted by start they are sorted by end too, and only
    # the last one starting before a candidate ends can overlap it.
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    spans: Dict[int, Tuple[List[int], List[int]]] = {}
    chosen: list[Tuple[float, int, Fraction, Fraction]] = []
    for sim, voice, start, end, first, last in candidates:
        starts, stops = spans.setdefault(voice, ([], []))
        k = bisect_left(starts, end)
        if k and stops[k - 1] > start:
            continue
        starts.insert(k, start)
        stops.insert(k, end)
        chosen.append((sim, voice, first.onset, last.end))
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
