"""Fuzz tests for the error contract: malformed input of any kind ends in
an ArcformError subclass at library level, and in exit code 0, 2 or 3 at
the CLI, with no other exception escaping.

Each input is a valid seed file with a few random edits. MIDI edits go
either anywhere in the file or into one track's body, which is then
framed with its new length, so they reach the event parser too. Text
edits work on the file's words and separators, so one edit can swap a
whole field for a hostile value.
"""

import contextlib
import io
import re
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcform.cli import main
from arcform.config import read_settings
from arcform.errors import ArcformError, NotesParseError, ScoreFormatError
from arcform.score import MAX_SCALE_BITS, import_midi, parse_text

from oracles import midi_file

FIXTURES = Path(__file__).resolve().parent / "fixtures"
QUERY = str(FIXTURES / "chorale_query.notes")
FIG1 = str(FIXTURES / "fixture_fig1.notes")
NOTES = (FIXTURES / "passion_chorales.notes").read_text(encoding="utf-8")
NOTES_PIECES = re.split(r"(\s+)", NOTES)
TRACK_EVENTS = [
    [(0, [0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]),  # tempo
     (0, [0xFF, 0x59, 0x02, 0x00, 0x00]),  # key signature
     (0, [0xFF, 0x03, 0x04, *b"test"])],  # track name
    [(0, [0xC0, 5]),  # program change: one data byte
     (0, [0x90, 60, 80]), (240, [64, 90]),  # running status
     (240, [60, 0]), (0, [0x80, 64, 0]),
     (0, [0xF0, 0x02, 0x43, 0xF7]),  # sysex
     (120, [0x91, 67, 70]), (480, [0x81, 67, 0])],
]
SMF = midi_file(TRACK_EVENTS)
# each MTrk body: a one-track file past its header and chunk header
TRACKS = [midi_file([events])[22:] for events in TRACK_EVENTS]
CONFIG = ("# analysis settings\nwindow = 4\nw_pitch = 0.4\nw_density = 0.3\n"
          "w_velocity = 0.3\nsim_pitch = 0.7\nsim_rhythm = 0.3\n"
          "threshold = 0.6\n")
CONFIG_PIECES = re.split(r"(\s+|=)", CONFIG)

EXIT_CODES = {0, 2, 3}
FUZZ = settings(max_examples=300, deadline=None)

# Text edits insert or replace a single character or one token of the
# format; a lone surrogate is written out as invalid UTF-8.
byte_units = st.integers(0, 255)
notes_units = st.one_of(st.characters(), st.sampled_from([
    " ", "\t", "\n", "#", "0", "-1", "1/0", "0/0", "/0", "1/", "128",
    "9" * 40, "@key", "@title", "C major", "\ud800"]))
config_units = st.one_of(st.characters(), st.sampled_from([
    " ", "\n", "#", "=", ".", "-", "0", "1", "e", "/0", "1e400", "nan",
    "inf", "window", "threshold", "w_pitch", "\ud800"]))


def edits(units):
    """One to six edits: (kind, position, unit), kind in replace, insert,
    delete and truncate; the position wraps around the input's length."""
    return st.lists(st.tuples(st.sampled_from("ridt"), st.integers(0, 1 << 16),
                              units), min_size=1, max_size=6)


def mutate(seq, edit_list):
    out = list(seq)
    for kind, pos, unit in edit_list:
        pos %= len(out) + 1
        if kind == "r":
            out[pos:pos + 1] = [unit]
        elif kind == "i":
            out.insert(pos, unit)
        elif kind == "d":
            del out[pos:pos + 1]
        else:
            del out[pos:]
    return out


def mutated_midi(track, edit_list) -> bytes:
    """SMF with edits anywhere (track None) or in one track's body."""
    if track is None:
        return bytes(mutate(SMF, edit_list))
    bodies = list(TRACKS)
    bodies[track] = bytes(mutate(bodies[track], edit_list))
    return SMF[:14] + b"".join(b"MTrk" + len(body).to_bytes(4, "big") + body
                               for body in bodies)


midi_targets = st.sampled_from([None, 0, 1])


def mutated_text(pieces, edit_list) -> bytes:
    return "".join(mutate(pieces, edit_list)).encode("utf-8", "surrogatepass")


def run_main(argv) -> int:
    """main() in-process with its output captured; an argparse usage
    error (exit 2) or --help (exit 0) ends in SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_seed_inputs_are_valid(work_dir):
    assert len(import_midi(SMF).all_events()) == 3
    assert mutated_midi(1, []) == SMF and len(TRACKS) == 2
    assert "".join(NOTES_PIECES) == NOTES and "".join(CONFIG_PIECES) == CONFIG
    assert parse_text(NOTES).all_events()
    cfg = work_dir / "seed.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    assert read_settings(str(cfg))["threshold"] == 0.6


@pytest.mark.filterwarnings("ignore:unmatched note-on")
@FUZZ
@given(midi_targets, edits(byte_units))
def test_mutated_midi_raises_only_score_format_errors(track, edit_list):
    with contextlib.suppress(ScoreFormatError):
        import_midi(mutated_midi(track, edit_list))


@FUZZ
@given(edits(notes_units))
def test_mutated_notes_raise_only_notes_parse_errors(edit_list):
    with contextlib.suppress(NotesParseError):
        parse_text("".join(mutate(NOTES_PIECES, edit_list)))


@FUZZ
@given(edits(config_units))
def test_mutated_config_raises_only_arcform_errors(work_dir, edit_list):
    path = work_dir / "mutated.cfg"
    path.write_bytes(mutated_text(CONFIG_PIECES, edit_list))
    with contextlib.suppress(ArcformError):
        read_settings(str(path))


@pytest.mark.filterwarnings("ignore:unmatched note-on")
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["score.mid", "score.notes", "settings.cfg"]),
       st.data())
def test_cli_exit_codes_over_mutated_inputs(work_dir, target, data):
    # `recur` reads all three formats; `analyze` and `climax` also run the
    # salience grid, whose bound refuses a span that one mutated MIDI
    # delta stretches to millions of beats
    files = {"score.mid": SMF, "score.notes": NOTES.encode("utf-8"),
             "settings.cfg": CONFIG.encode("utf-8")}
    if target == "score.mid":
        files[target] = mutated_midi(data.draw(midi_targets),
                                     data.draw(edits(byte_units)))
    elif target == "score.notes":
        files[target] = mutated_text(NOTES_PIECES,
                                     data.draw(edits(notes_units)))
    else:
        files[target] = mutated_text(CONFIG_PIECES,
                                     data.draw(edits(config_units)))
    for name, blob in files.items():
        (work_dir / name).write_bytes(blob)
    score = str(work_dir / ("score.notes" if target == "settings.cfg"
                            else target))
    config = ["--config", str(work_dir / "settings.cfg")]
    for command in (["recur", score, "--query", QUERY], ["analyze", score],
                    ["climax", score, "--csv"]):
        assert run_main([*command, *config]) in EXIT_CODES


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 1 << 64) | st.integers(1 << 200, 1 << 700), st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 7), st.booleans()),
    min_size=1, max_size=8))
def test_cli_exit_codes_over_large_coprime_denominators(work_dir, base,
                                                         notes):
    # denominators base + k for small k share at most a factor of their
    # difference, so a few large ones take the tick scale past
    # MAX_SCALE_BITS, and then every command must exit 2
    dens = [base + k for k, _, _ in notes]
    score = work_dir / "big.notes"
    score.write_text("".join(
        f"{whole * d + 1}/{d} {f'1/{d}' if short else 1} 60 64 {i % 2}\n"
        for i, (d, (_, whole, short)) in enumerate(zip(dens, notes))))
    over = lcm(*dens).bit_length() > MAX_SCALE_BITS
    for command in (["recur", str(score), "--query", QUERY],
                    ["analyze", str(score)], ["climax", str(score), "--csv"]):
        code = run_main(command)
        assert code == 2 if over else code in EXIT_CODES


form_strings = st.text(st.one_of(st.sampled_from("ABC"), st.characters()),
                       max_size=10)


@FUZZ
@given(form_strings, form_strings, st.integers(-3, 40))
def test_cli_exit_codes_over_form_strings(form, seed, steps):
    assert run_main(["form", "recognize", form, "--seed", seed]) in EXIT_CODES
    assert run_main(["form", "generate", "--seed", seed,
                     "--steps", str(steps)]) in EXIT_CODES
    assert run_main(["analyze", FIG1, f"--form={form}",
                     f"--seed={seed}"]) in EXIT_CODES
