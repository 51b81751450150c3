"""Byte-exact golden outputs for every `arcform` subcommand.

Every well-formed `.notes` fixture and three seeded synthetic pieces are
run through the CLI entry point; each output must equal its file under
`tests/golden/` byte for byte. `recur` runs the two chorale fixtures
against `chorale_query.notes`, and each synthetic piece against a slice
of one of its own voices at three thresholds; at the lowest, many
overlapping windows pass and the overlap resolution picks among them.
`EXTRA_CASES` pins the remaining paths: `analyze` with `--query` and
`--form` (derivable and not), `climax` JSON, `corpus` over both corpus
directories and the `form` subcommands' `--json` output. Seeded Standard
MIDI Files, written at test time, pin `import_midi` through `analyze`
and `corpus`. After an intended change of output, re-record the files
with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from arcform import NoteEvent, Part, Piece, serialize_text
from arcform.cli import main

from oracles import midi_file

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

# a parse failure by design: it has no output to pin
MALFORMED = {"corpus_bad/corrupt.notes"}

# (seed, voices, notes per voice, first onset)
SYNTHETIC = ((11, 3, 24, Fraction(0)),
             (12, 5, 30, Fraction(7, 3)),
             (13, 8, 20, Fraction(1, 2)))
SYNTHETIC_WINDOW = "3/2"
# recurrence goldens: fixtures searched for the chorale query, and the
# thresholds each synthetic piece is searched at for a slice of itself
RECUR_FIXTURES = ("fixture_fig1.notes", "passion_chorales.notes")
RECUR_QUERY = "chorale_query.notes"
RECUR_THRESHOLDS = ("0.6", "0.3", "0.1")
# (seed, SMF format, tracks with notes, notes per track, ticks per beat)
MIDI = ((21, 0, 1, 80, 480),
        (22, 1, 3, 40, 96),
        (23, 1, 2, 30, 384))
MIDI_WINDOW = "2/3"
MIDI_CORPUS = "midi_corpus"
# inputs written into the work directory rather than read from fixtures
GENERATED = ("synthetic_", "midi_")
# (golden file name, input file, CLI args); run in the fixtures directory
EXTRA_CASES = (
    ("passion_chorales.analyze-query-form.json", "passion_chorales.notes",
     ["analyze", "passion_chorales.notes", "--query", RECUR_QUERY,
      "--form", "AAB", "--seed", "AB"]),
    ("fixture_fig1.analyze-form-ABB.json", "fixture_fig1.notes",
     ["analyze", "fixture_fig1.notes", "--form", "ABB"]),
    ("fixture_fig1.climax.json", "fixture_fig1.notes",
     ["climax", "fixture_fig1.notes"]),
    ("corpus.corpus.csv", "corpus", ["corpus", "corpus"]),
    ("corpus_bad.corpus.csv", "corpus_bad", ["corpus", "corpus_bad"]),
    ("form-generate.json", "", ["form", "generate", "--seed", "AB",
                                "--steps", "3", "--json"]),
    ("form-recognize.json", "", ["form", "recognize", "AABA", "--seed", "ABA",
                                 "--json"]),
)


def synthetic_piece(seed: int, voices: int, per_voice: int,
                    first: Fraction) -> Piece:
    """Overlapping voices with rational onsets and durations."""
    rng = random.Random(seed)
    parts = []
    for voice in range(voices):
        onset = first + Fraction(rng.randint(0, 6), rng.choice([2, 3, 4]))
        events = []
        for _ in range(per_voice):
            duration = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3, 4]))
            events.append(NoteEvent(onset, duration,
                                    rng.randint(36 + 4 * voice, 60 + 5 * voice),
                                    rng.randint(20, 127), voice))
            onset += duration + Fraction(rng.randint(-2, 3),
                                         rng.choice([2, 4, 6]))
            onset = max(first, onset)
        parts.append(Part(voice, tuple(events)))
    return Piece(parts=tuple(parts), title=f"synthetic {seed}")


def synthetic_query(piece: Piece) -> Piece:
    """Ten consecutive notes of the piece's second voice, as a query."""
    return Piece(parts=(Part(1, piece.parts[1].events[4:14]),))


def synthetic_midi(seed: int, fmt: int, tracks: int, per_track: int,
                   division: int) -> bytes:
    """An SMF with what `import_midi` must get right: running status,
    note-offs as 0x80 and as velocity-0 note-ons, overlapping notes of
    one (channel, pitch), text meta events between notes, one unmatched
    note-on per track, and notes that two channels start at the same
    tick on the same pitch with different velocities. Format 1 files
    lead with a conductor track that holds only a tempo event."""
    rng = random.Random(seed)
    out = [[(0, [0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20])]] if fmt == 1 else []
    for _ in range(tracks):
        timed = []  # (tick, order, message)
        tick = 0

        def note(start, channel, pitch, velocity, duration):
            timed.append((start, len(timed), [0x90 | channel, pitch, velocity]))
            off = ([0x80 | channel, pitch, rng.randint(0, 127)]
                   if rng.random() < 0.5 else [0x90 | channel, pitch, 0])
            timed.append((start + duration, len(timed), off))

        for _ in range(per_track):
            tick += rng.choice((0, rng.randint(1, 2 * division)))
            channel = rng.choice((0, 1, 9))
            pitch = rng.randint(55, 67)
            duration = rng.randint(1, 2 * division)
            note(tick, channel, pitch, rng.randint(1, 127), duration)
            if rng.random() < 0.15:
                note(tick, (channel + 1) % 16, pitch, rng.randint(1, 127),
                     rng.choice((duration, rng.randint(1, 2 * division))))
            if rng.random() < 0.1:
                timed.append((tick, len(timed), [0xFF, 0x01, 0x02, 0x68, 0x69]))
        timed.append((tick + division, len(timed),
                      [0x90 | rng.randint(0, 15), rng.randint(40, 80), 90]))
        track = []
        now = 0
        status = None
        for at, _, message in sorted(timed):
            if message[0] == status and rng.random() < 0.7:
                message = message[1:]  # running status
            else:
                status = message[0] if message[0] < 0xF0 else None
            track.append((at - now, message))
            now = at
        out.append(track)
    return midi_file(out, division=division, fmt=fmt)


def _cases() -> List[Tuple[str, str, List[str]]]:
    """(golden file name, input file, CLI args before --out)."""
    cases = []
    for path in sorted(FIXTURES.rglob("*.notes")):
        rel = path.relative_to(FIXTURES).as_posix()
        if rel in MALFORMED:
            continue
        stem = rel[:-len(".notes")].replace("/", "__")
        cases.append((f"{stem}.analyze.json", rel, ["analyze", rel]))
        cases.append((f"{stem}.climax.csv", rel, ["climax", rel, "--csv"]))
        if rel in RECUR_FIXTURES:
            cases.append((f"{stem}.recur.json", rel,
                          ["recur", rel, "--query", RECUR_QUERY]))
    for seed, *_ in SYNTHETIC:
        name = f"synthetic_{seed}.notes"
        window = ["--window", SYNTHETIC_WINDOW]
        cases.append((f"synthetic_{seed}.analyze.json", name,
                      ["analyze", name, *window]))
        cases.append((f"synthetic_{seed}.climax.csv", name,
                      ["climax", name, "--csv", *window]))
        for threshold in RECUR_THRESHOLDS:
            cases.append((f"synthetic_{seed}.recur-{threshold}.json", name,
                          ["recur", name, "--query",
                           f"synthetic_{seed}.query.notes",
                           "--threshold", threshold]))
    for seed, *_ in MIDI:
        name = f"midi_{seed}.mid"
        cases.append((f"midi_{seed}.analyze.json", name,
                      ["analyze", name, "--window", MIDI_WINDOW]))
    cases.append((f"{MIDI_CORPUS}.corpus.csv", MIDI_CORPUS,
                   ["corpus", MIDI_CORPUS]))
    cases.extend(EXTRA_CASES)
    return cases


def render_all(workdir: Path) -> Dict[str, bytes]:
    """Run every golden case in-process; map golden file name to bytes.

    Inputs are named relative to the working directory, so the `source`
    field of a report does not depend on where the checkout lives.
    """
    for seed, voices, per_voice, first in SYNTHETIC:
        piece = synthetic_piece(seed, voices, per_voice, first)
        (workdir / f"synthetic_{seed}.notes").write_text(
            serialize_text(piece), encoding="utf-8")
        (workdir / f"synthetic_{seed}.query.notes").write_text(
            serialize_text(synthetic_query(piece)), encoding="utf-8")
    (workdir / MIDI_CORPUS).mkdir(exist_ok=True)
    for seed, *shape in MIDI:
        data = synthetic_midi(seed, *shape)
        (workdir / f"midi_{seed}.mid").write_bytes(data)
        (workdir / MIDI_CORPUS / f"midi_{seed}.mid").write_bytes(data)
    (workdir / MIDI_CORPUS / "synthetic_11.notes").write_text(
        serialize_text(synthetic_piece(*SYNTHETIC[0])), encoding="utf-8")
    outputs = {}
    cwd = os.getcwd()
    try:
        for stem, source, args in _cases():
            out = workdir / f"out-{stem}"
            os.chdir(workdir if source.startswith(GENERATED) else FIXTURES)
            with warnings.catch_warnings():
                # each MIDI track ends on an unmatched note-on by design
                warnings.filterwarnings("ignore", "unmatched note-on")
                code = main([*args, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{stem}: exit {code}")
            outputs[stem] = out.read_bytes()
    finally:
        os.chdir(cwd)
    return outputs


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> Dict[str, bytes]:
    return render_all(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete(rendered):
    assert sorted(rendered) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("stem", [stem for stem, _, _ in _cases()])
def test_output_matches_golden_bytes(rendered, stem):
    assert rendered[stem] == (GOLDEN / stem).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, data in render_all(Path(tmp)).items():
            (GOLDEN / stem).write_bytes(data)
            print(f"recorded {stem} ({len(data)} bytes)")
