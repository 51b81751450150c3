#!/usr/bin/env python3
"""Regenerate the test fixtures under tests/fixtures/.

Usage: make_fixtures.py [OUT_DIR]   (default: tests/fixtures/)

Everything here is constructed by hand, so the planted contents serve
as the oracle for the tests: statement locations, the varied statement,
the cadence basses, and the planted salience peaks are all known by
construction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# Desk-scale encoding of the repeated chorale tune, first phrase,
# written out in C: 12 notes, quarter-note beats, final note doubled.
CHORALE_TUNE = [
    (64, 1), (69, 1), (67, 1), (65, 1), (64, 1), (62, 1),
    (64, 1), (65, 1), (64, 1), (62, 1), (60, 1), (62, 2),
]

# Transpositions for the four plain statements (movements 15/17/44/54):
# E major, E-flat major, D major, F major.
PLAIN_SHIFTS = [4, 3, 2, 5]

# The fifth statement (movement 62): same line at pitch, but with two
# notes subdivided (added short notes) and one chromatic alteration.
VARIED_TUNE = [
    (64, 1),
    (69, Fraction(1, 2)), (71, Fraction(1, 2)),   # subdivision 1
    (67, 1), (65, 1), (64, 1), (62, 1), (64, 1),
    (65, Fraction(1, 2)), (64, Fraction(1, 2)),   # subdivision 2
    (64, 1),
    (61, 1),                                      # chromatic alteration
    (60, 1), (62, 2),
]

STATEMENT_GAP = 4  # beats of silence between statements


def notes_lines(events, velocity=64, voice=0):
    lines = []
    for onset, dur, pitch in events:
        lines.append(f"{onset} {dur} {pitch} {velocity} {voice}")
    return lines


def melody_events(tune, start, shift=0):
    onset = Fraction(start)
    out = []
    for pitch, dur in tune:
        out.append((onset, Fraction(dur), pitch + shift))
        onset += Fraction(dur)
    return out


def write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def chorale_fixtures(out: Path) -> None:
    lines = ["@title chorale recurrence case study"]
    onset = Fraction(0)
    statement_starts = []
    for shift in PLAIN_SHIFTS:
        statement_starts.append(onset)
        events = melody_events(CHORALE_TUNE, onset, shift)
        lines += notes_lines(events)
        onset = events[-1][0] + events[-1][1] + STATEMENT_GAP
    statement_starts.append(onset)
    events = melody_events(VARIED_TUNE, onset)
    lines += notes_lines(events)
    write(out / "passion_chorales.notes", lines)
    print("statement starts:", [str(s) for s in statement_starts])

    query = ["@title chorale query"] + notes_lines(
        melody_events(CHORALE_TUNE, 0))
    write(out / "chorale_query.notes", query)


def cadence_fixtures(out: Path) -> None:
    # Final two sonorities are the load-bearing content: bass motion
    # 4 -> 1 in both keys (plagal).
    passion = [
        "@title passion final chorale close",
        "@key C major",
        # lead-in
        "0 1 64 64 0", "0 1 60 64 1", "0 1 55 64 2", "0 1 48 64 3",
        # subdominant sonority, bass F
        "1 1 65 64 0", "1 1 60 64 1", "1 1 57 64 2", "1 1 53 64 3",
        # tonic sonority, bass C
        "2 2 64 64 0", "2 2 60 64 1", "2 2 55 64 2", "2 2 48 64 3",
    ]
    write(out / "passion_close_62.notes", passion)

    oratorio = [
        "@title oratorio opening chorale close",
        "@key A major",
        "0 1 73 64 0", "0 1 69 64 1", "0 1 64 64 2", "0 1 57 64 3",
        # subdominant sonority, bass D
        "1 1 74 64 0", "1 1 69 64 1", "1 1 66 64 2", "1 1 50 64 3",
        # tonic sonority, bass A
        "2 2 73 64 0", "2 2 69 64 1", "2 2 64 64 2", "2 2 45 64 3",
    ]
    write(out / "oratorio_close_5.notes", oratorio)


def fig1_fixture(out: Path) -> None:
    # Slow build over two thirds of the span, fast decay after: pitch
    # rises 2 semitones per 2-beat note for 40 beats, falls 4 per note
    # for 20 beats. Peak pitch at beat 40 of 60.
    lines = ["@title slow build, fast decay"]
    events = []
    onset = Fraction(0)
    pitch = 55
    for _ in range(20):
        events.append((onset, Fraction(2), pitch))
        onset += 2
        pitch += 2
    for _ in range(10):
        events.append((onset, Fraction(2), pitch))
        onset += 2
        pitch -= 4
    lines += notes_lines(events)
    write(out / "fixture_fig1.notes", lines)


def corpus_fixtures(out: Path) -> None:
    corpus = out / "corpus"
    corpus.mkdir(exist_ok=True)
    corpus_bad = out / "corpus_bad"
    corpus_bad.mkdir(exist_ok=True)
    for name, peak in (("peak_early", 10), ("peak_mid", 20),
                       ("peak_late", 30)):
        lines = [f"@title planted peak at beat {peak} of 40"]
        events = []
        for beat in range(40):
            pitch = 84 if beat == peak else 60
            events.append((Fraction(beat), Fraction(1), pitch))
        lines += notes_lines(events)
        write(corpus / f"{name}.notes", lines)
        write(corpus_bad / f"{name}.notes", lines)
    write(corpus_bad / "corrupt.notes", ["0 0 60"])


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else FIXTURES
    out.mkdir(parents=True, exist_ok=True)
    chorale_fixtures(out)
    cadence_fixtures(out)
    fig1_fixture(out)
    corpus_fixtures(out)


if __name__ == "__main__":
    main(sys.argv[1:])
