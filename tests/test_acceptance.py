"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure) so the gate can be read off the log. Criteria with a stated
runtime budget assert it with a wall-clock check.

Run with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from arcform import (Part, Piece, chromaticism_index, climax_profile,
                     estimate_key, classify_cadence, find_recurrences,
                     flatten, generate, interval_profile, parse_form,
                     parse_text, predicted_climax_position, recognize,
                     right_replicate, similarity, skyline)

from oracles import (left_language, melody, oracle_similarity, peak_margin,
                     random_piece, reverse_piece, run_cli, short_note_piece)


def passed(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


# --- 1. grammar oracle equivalence ------------------------------------------

def test_criterion_1_grammar_oracle_equivalence():
    t0 = time.monotonic()
    seed = parse_form("AB")
    library = {flatten(t) for t in generate(seed, 6)}
    oracle = left_language("AB", 6)
    closed_form = {"A" * n + "B" for n in range(1, 8)}
    assert library == oracle == closed_form
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    passed(1, f"depth-6 language == BFS oracle == {{A^nB: 1<=n<=7}} "
              f"({elapsed:.3f}s)")


# --- 2. mirror asymmetry ------------------------------------------------------

def test_criterion_2_mirror_asymmetry():
    seed = parse_form("AB")
    left = {flatten(t) for t in generate(seed, 6)}
    right = {flatten(t) for t in generate(seed, 6, rule=right_replicate)}
    assert left & right == {"AB"}
    passed(2, "left/right replication languages intersect only in the seed")


# --- 3. recognition anchors ---------------------------------------------------

def test_criterion_3_recognition_anchors():
    assert recognize("AAB", parse_form("AB")) == 1
    assert recognize("AABA", parse_form("ABA")) == 1
    assert recognize("ABB", parse_form("AB")) is None
    passed(3, "AAB<-AB in 1 step, AABA<-ABA in 1 step, ABB not derivable")


# --- 4. predicted delay arithmetic --------------------------------------------

def test_criterion_4_predicted_delay_arithmetic():
    values = [predicted_climax_position(n, (Fraction(1), Fraction(1)))
              for n in range(1, 11)]
    assert values == [Fraction(n, n + 1) for n in range(1, 11)]
    assert all(x < y for x, y in zip(values, values[1:]))
    passed(4, "position(n, equal spans) == n/(n+1) for n=1..10, increasing")


# --- 5. chorale case study -----------------------------------------------------

def test_criterion_5_chorale_case_study(fixtures_dir):
    t0 = time.monotonic()
    piece = parse_text((fixtures_dir / "passion_chorales.notes").read_text())
    query = skyline(parse_text(
        (fixtures_dir / "chorale_query.notes").read_text()))
    series = find_recurrences(piece, query, 0.6)
    assert len(series.matches) == 5
    assert series.outlier_index == 4

    chroma = []
    for m in series.matches:
        part = next(p for p in piece.parts if p.voice == m.part)
        events = tuple(e for e in part.events if m.start <= e.onset < m.end)
        segment = Part(part.voice, events)
        key = estimate_key(Piece(parts=(segment,)))
        chroma.append(chromaticism_index(segment, key))
    assert all(chroma[4] > c for c in chroma[:4])
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    passed(5, f"5 statements, final is the unique max-deviation outlier and "
              f"most chromatic ({elapsed:.3f}s)")


# --- 6. continuation of the closing cadence ------------------------------------

def test_criterion_6_cadence_continuation(fixtures_dir):
    first = parse_text((fixtures_dir / "passion_close_62.notes").read_text())
    second = parse_text((fixtures_dir / "oratorio_close_5.notes").read_text())
    a, b = classify_cadence(first), classify_cadence(second)
    assert a == b == "plagal"
    passed(6, "both encoded closes classify as plagal and agree")


# --- 7. similarity metric properties --------------------------------------------

_ALPHABET = (60, 62, 64, 65, 67)
_DURATIONS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _random_melody(rng, length):
    pitches = [rng.choice(_ALPHABET) for _ in range(length)]
    durs = [rng.choice(_DURATIONS) for _ in range(length)]
    return melody(pitches, durs)


def test_criterion_7_similarity_metric_properties():
    t0 = time.monotonic()
    # exhaustive over short melodies: every pitch sequence of 1-3 notes
    short = [melody(list(p))
             for n in (1, 2, 3)
             for p in itertools.product(_ALPHABET, repeat=n)]
    profiles = [interval_profile(m) for m in short]
    pairs = 0
    for i, a in enumerate(profiles):
        for b in profiles[i:]:
            s = similarity(a, b)
            assert s == similarity(b, a)
            assert s == oracle_similarity(a.steps, a.ratios,
                                          b.steps, b.ratios, 0.7, 0.3)
            pairs += 1
    # a fixed-seed sample of longer, rhythmically varied pairs
    rng = random.Random(20260823)
    for _ in range(2000):
        m1 = _random_melody(rng, rng.randint(4, 6))
        m2 = _random_melody(rng, rng.randint(4, 6))
        a, b = interval_profile(m1), interval_profile(m2)
        s = similarity(a, b)
        assert s == similarity(b, a)
        assert s == oracle_similarity(a.steps, a.ratios,
                                      b.steps, b.ratios, 0.7, 0.3)
        # transposition invariance: shift the first melody up a fourth
        shifted = melody([e.pitch + 5 for e in m1.events],
                         [e.duration for e in m1.events])
        assert similarity(a, interval_profile(shifted)) == 1.0
        pairs += 2
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    passed(7, f"symmetry + oracle equality on {pairs} pairs, transposition "
              f"invariance on 2000 shifted pairs ({elapsed:.3f}s)")


# --- 8. climax statistics --------------------------------------------------------

def test_criterion_8_climax_statistics(fixtures_dir):
    rng = random.Random(20260823)
    for _ in range(1000):
        profile = climax_profile(random_piece(rng, 25))
        assert 0.0 <= profile.normalized_position <= 1.0
        assert -1.0 <= profile.asymmetry_index <= 1.0

    # time reversal negates asymmetry to within one grid step of peak
    # position (= two grid steps of asymmetry); restricted to pieces with
    # a margin-unique peak, where the argmax claim is well posed
    window = Fraction(4)
    checked = 0
    for _ in range(300):
        piece = short_note_piece(rng)
        fwd = climax_profile(piece, window=window)
        if peak_margin(fwd.curve) < 0.05:
            continue
        rev = climax_profile(reverse_piece(piece), window=window)
        grid_step = float((window / 2) / piece.beats_total)
        assert abs(fwd.asymmetry_index + rev.asymmetry_index) \
            <= 2 * grid_step + 1e-9
        checked += 1
    assert checked >= 100

    fig1 = parse_text((fixtures_dir / "fixture_fig1.notes").read_text())
    assert climax_profile(fig1).asymmetry_index > 0.0
    passed(8, f"bounds on 1000 pieces, reversal antisymmetry on {checked} "
              f"margin-unique peaks, arch fixture right-skewed")


# --- 9. CLI determinism -----------------------------------------------------------

def test_criterion_9_cli_determinism(fixtures_dir, tmp_path):
    for name in ("fixture_fig1.notes", "passion_chorales.notes",
                 "corpus/peak_early.notes", "corpus/peak_mid.notes",
                 "corpus/peak_late.notes"):
        first = run_cli("analyze", fixtures_dir / name)
        second = run_cli("analyze", fixtures_dir / name)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # well-formed

    bad = tmp_path / "bad.notes"
    bad.write_text("0 0 60\n")
    assert run_cli("analyze", bad).returncode == 2
    assert run_cli("analyze", tmp_path / "missing.notes").returncode == 2
    empty = tmp_path / "empty.notes"
    empty.write_text("# nothing\n")
    assert run_cli("analyze", empty).returncode == 3
    passed(9, "byte-identical reruns on 5 fixtures; exit codes 2/2/3 on "
              "malformed, missing, empty inputs")
