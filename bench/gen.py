"""Seeded inputs for the arcform benchmark.

Every workload is built from one integer seed: the same seed gives the
same bytes.  Sizes follow a fixed design that spans the stated range:
each op slot has a target size in notes, and the seed draws the notes'
durations, pitches and placement.  Two seeds so give different pieces
from the same size distribution, and every run sees the same mix of
small and large ops, which keeps run-to-run spread low.  Sizes are not
jittered by the seed: ops cost up to the square of their notes, so a 5%
size jitter moves a run by about 10%.

``build(workload, seed)`` returns ``(files, ops)``: ``files`` maps a
relative path to its bytes, and each op names its CLI arguments, the
notes it analyses and what was planted in its input, so the output
checks in ``checks.py`` need no second analysis.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from typing import Dict, List, Tuple

WORKLOADS = ("corpus", "recur", "analyze_long")
DIVISION = 96  # ticks per beat; every generated duration is a multiple of 1/8

# (onset, duration, pitch, velocity, voice)
Note = Tuple[F, F, int, int, int]

CORPUS_FOLDERS = 8
MUTATIONS = ("notes_truncate", "notes_range",
             "mid_truncate", "mid_range", "mid_chunk", "mid_highbit")

REGION_BEATS = F(8)

# corpus: one piece of each size per folder, 30-300 notes
CORPUS_SIZES = (40, 75, 110, 145, 180, 215, 250, 285)
# recur slots: (voices, notes per voice, query notes) over 100-400 notes
# per voice and 6-16-note queries.  Long queries go with fewer notes so
# that no single op dominates a pass.  Here and below, an odd count of
# slots puts the median op inside one slot, not between two, and the
# middle slot costs at least a quarter more or less than its neighbours, so
# that the seed does not decide which slot is the median.
RECUR_DESIGN = ((1, 400, 6), (2, 175, 16), (4, 100, 10), (3, 125, 12), (2, 175, 8))
# analyze_long slots: (notes, voices, written as .mid) over 800-3000 notes
LONG_DESIGN = ((880, 4, True), (1250, 6, False), (1950, 8, True),
               (2450, 5, False), (2850, 8, True))

DERIVABLE_FORMS = ("AB", "AAB", "AAAB", "AAAAB", "AAAAAB")
NOT_DERIVABLE_FORMS = ("ABA", "AABB", "ABAB", "AABA", "BAB")


# --- file formats ------------------------------------------------------------

def notes_text(notes: List[Note], title: str = "") -> str:
    lines = [f"@title {title}"] if title else []
    lines += [f"{on} {dur} {p} {vel} {v}" for on, dur, p, vel, v in notes]
    return "\n".join(lines) + "\n"


def _varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf(notes: List[Note], n_voices: int) -> Tuple[bytes, List[int]]:
    """Format-1 Standard MIDI File, one track per voice.

    Also returns the byte offsets of every note-on's pitch byte (its
    velocity byte follows), for the high-bit mutation.
    """
    data = bytearray(b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")
                     + n_voices.to_bytes(2, "big") + DIVISION.to_bytes(2, "big"))
    note_on_offsets: List[int] = []
    for voice in range(n_voices):
        events = []
        for on, dur, pitch, vel, v in notes:
            if v == voice:
                # note-off sorts before a note-on at the same tick
                events.append((int((on + dur) * DIVISION), 0, pitch, 0))
                events.append((int(on * DIVISION), 1, pitch, vel))
        events.sort()
        body = bytearray()
        on_offsets = []
        last = 0
        for tick, is_on, pitch, vel in events:
            body += _varlen(tick - last)
            last = tick
            if is_on:
                on_offsets.append(len(body) + 1)
            body += bytes((0x90 if is_on else 0x80, pitch, vel))
        body += b"\x00\xff\x2f\x00"
        base = len(data) + 8
        note_on_offsets += [base + off for off in on_offsets]
        data += b"MTrk" + len(body).to_bytes(4, "big") + body
    return bytes(data), note_on_offsets


# --- malformed files by seeded mutation -----------------------------------------

def mutate(rng: random.Random, kind: str, text: str = "",
           midi: bytes = b"", note_ons: List[int] = ()) -> bytes:
    """Break a well-formed file in a way that is malformed by construction.

    Which kind of damage is drawn before the file exists, so nothing is
    ever kept or dropped by how the program reacts to it.
    """
    if kind == "notes_truncate":
        # cut a note line before its third field: it keeps 1 or 2 fields
        lines = text.splitlines(keepends=True)
        idx = rng.choice([i for i, l in enumerate(lines) if not l.startswith("@")])
        line = lines[idx]
        third = line.index(" ", line.index(" ") + 1)
        return ("".join(lines[:idx]) + line[:rng.randrange(1, third)]).encode()
    if kind == "notes_range":
        lines = text.splitlines(keepends=True)
        idx = rng.choice([i for i, l in enumerate(lines) if not l.startswith("@")])
        fields = lines[idx].split()
        field, value = rng.choice([(2, str(rng.randrange(128, 256))),
                                   (3, rng.choice(["0", str(rng.randrange(128, 200))])),
                                   (1, "0"), (0, "-1")])
        fields[field] = value
        lines[idx] = " ".join(fields) + "\n"
        return "".join(lines).encode()
    data = bytearray(midi)
    if kind == "mid_truncate":
        return bytes(data[:rng.randrange(8, len(data))])
    if kind == "mid_range":
        which = rng.choice(["format", "division", "smpte"])
        if which == "format":
            data[8:10] = rng.randrange(2, 100).to_bytes(2, "big")
        elif which == "division":
            data[12:14] = b"\x00\x00"
        else:
            data[12] |= 0x80
        return bytes(data)
    if kind == "mid_chunk":
        # one track claims more bytes than the file has left
        starts = [i for i in range(14, len(data) - 3) if data[i:i + 4] == b"MTrk"]
        start = rng.choice(starts)
        data[start + 4:start + 8] = (len(data) + rng.randrange(1, 100)).to_bytes(4, "big")
        return bytes(data)
    if kind == "mid_highbit":
        # a note-on pitch or velocity byte with the high bit set
        off = rng.choice(note_ons) + rng.randrange(2)
        data[off] |= 0x80
        return bytes(data)
    raise ValueError(f"unknown mutation {kind}")


# --- pieces -------------------------------------------------------------------

def _fill(rng: random.Random, start: F, end: F, durs, lo: int, hi: int,
          vel: Tuple[int, int], voice: int, pitch: int) -> Tuple[List[Note], int]:
    """Contiguous random-walk notes covering [start, end) in one voice."""
    notes: List[Note] = []
    t = start
    while t < end:
        dur = min(rng.choice(durs), end - t)
        pitch = min(hi, max(lo, pitch + rng.randint(-3, 3)))
        notes.append((t, dur, pitch, rng.randint(*vel), voice))
        t += dur
    return notes, pitch


def climax_piece(rng: random.Random, n_notes: int, n_voices: int,
                 bg_durs, region_durs) -> Tuple[List[Note], F, F]:
    """Voices over one timeline with one loud, high, dense planted region.

    Returns the notes, the region's start and the piece's total beats;
    the region is REGION_BEATS long in every voice.
    """
    region_notes = REGION_BEATS / (sum(region_durs) / len(region_durs))
    bg_notes = max(4.0, n_notes / n_voices - float(region_notes))
    bg_beats = F(round(bg_notes * float(sum(bg_durs) / len(bg_durs)) * 2), 2)
    start = F(round(bg_beats * F(rng.randint(10, 80), 100) * 2), 2)
    total = bg_beats + REGION_BEATS
    notes: List[Note] = []
    span = 12 if n_voices <= 4 else 6
    for v in range(n_voices):
        base = 36 + v * span
        pitch = base + 6
        for lo, hi, durs, vel, plo, phi in (
                (F(0), start, bg_durs, (40, 80), base, base + 12),
                (start, start + REGION_BEATS, region_durs, (105, 127),
                 base + 16, base + 26),
                (start + REGION_BEATS, total, bg_durs, (40, 80), base, base + 12)):
            part, pitch = _fill(rng, lo, hi, durs, plo, phi, vel, v, pitch)
            notes += part
    notes.sort()
    return notes, start, total


def _tune(rng: random.Random, n: int) -> List[Tuple[F, int]]:
    """Query melody as (duration, pitch); no repeated pitch, so a step of 0
    in a window always marks it as something else."""
    pitch = rng.randint(60, 72)
    out = []
    for _ in range(n):
        out.append((rng.choice((F(1, 2), F(1), F(1), F(3, 2), F(2))), pitch))
        step = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        pitch += step if 50 <= pitch + step <= 82 else -step
    return out


def recur_piece(rng: random.Random, per_voice: int, n_voices: int,
                tune: List[Tuple[F, int]], exact_per_voice: int):
    """Voices of unrelated material with the tune planted in them.

    Each voice gets ``exact_per_voice`` exact statements (seeded
    transposition and tempo scaling) and one varied one (a note
    subdivided, or one pitch altered).  Returns the notes and the
    planted statements as (voice, onset, end, exact).
    """
    notes: List[Note] = []
    planted = []
    base_pitch = tune[0][1]
    for v in range(n_voices):
        kinds = [True] * exact_per_voice + [False]
        rng.shuffle(kinds)
        stmt_notes = len(tune) * len(kinds) + len(kinds)
        filler = max(2 * (len(kinds) + 1), per_voice - stmt_notes)
        cuts = sorted(rng.sample(range(1, filler), len(kinds)))
        gaps = [b - a for a, b in zip([0] + cuts, cuts + [filler])]
        t = F(0)
        pitch = base_pitch
        for i, gap in enumerate(gaps):
            for _ in range(gap):
                dur = rng.choice((F(1, 4), F(1, 2), F(1, 2), F(1), F(3, 2)))
                pitch = min(84, max(40, pitch + rng.randint(-4, 4)))
                notes.append((t, dur, pitch, rng.randint(50, 90), v))
                t += dur
            if i == len(kinds):
                break
            shift = rng.randint(-6, 6)
            scale = rng.choice((F(1, 2), F(1), F(3, 2), F(2)))
            body = [(d * scale, p + shift) for d, p in tune]
            if not kinds[i]:
                idx = rng.randrange(len(body))
                d, p = body[idx]
                if rng.random() < 0.5:
                    body[idx:idx + 1] = [(d / 2, p), (d / 2, p)]
                else:
                    body[idx] = (d, p + rng.choice((-3, -2, -1, 1, 2, 3)))
            onset = t
            for d, p in body:
                notes.append((t, d, p, rng.randint(70, 100), v))
                t += d
            planted.append((v, onset, t, kinds[i]))
    notes.sort()
    return notes, planted


# --- workloads ----------------------------------------------------------------

def _corpus(rng: random.Random):
    n_pieces = CORPUS_FOLDERS * len(CORPUS_SIZES)
    is_mid = [i < n_pieces * 3 // 10 for i in range(n_pieces)]
    rng.shuffle(is_mid)
    # one malformed file of each kind, each in its own folder beside that
    # folder's well-formed pieces (about one file in ten), so that every
    # folder analyses the same design sizes
    bad_in = dict(zip(rng.sample(range(CORPUS_FOLDERS), len(MUTATIONS)), MUTATIONS))
    files: Dict[str, bytes] = {}
    ops = []
    for f in range(CORPUS_FOLDERS):
        folder = f"corpus{f:02d}"
        entries = [(s, None) for s in range(len(CORPUS_SIZES))]
        if f in bad_in:
            entries.append((rng.randrange(len(CORPUS_SIZES)), bad_in[f]))
        rng.shuffle(entries)
        pieces, malformed = [], []
        for j, (s, kind) in enumerate(entries):
            mid = kind.startswith("mid") if kind else is_mid.pop()
            size = CORPUS_SIZES[s]
            cap = max(1, min(4, size // 40))
            voices = 1 + (f + s) % cap
            notes, start, total = climax_piece(
                rng, size, voices, (F(1, 2), F(1), F(1), F(3, 2), F(2)),
                (F(1, 4), F(1, 2)))
            name = f"p{j:02d}.{'mid' if mid else 'notes'}"
            text = notes_text(notes, title=f"{folder} {name}")
            midi, note_ons = smf(notes, voices) if mid else (b"", [])
            if kind:
                files[f"{folder}/{name}"] = mutate(rng, kind, text, midi, note_ons)
                malformed.append(name)
                continue
            files[f"{folder}/{name}"] = midi if mid else text.encode()
            pieces.append({"name": name, "notes": len(notes), "total": str(total),
                           "region": [str(start), str(start + REGION_BEATS)]})
        ops.append({"key": folder, "args": ["corpus", folder],
                    "notes": sum(p["notes"] for p in pieces),
                    "expect": {"pieces": pieces, "malformed": malformed,
                               "highbit": bad_in.get(f) == "mid_highbit"}})
    return files, ops


def _recur(rng: random.Random):
    files: Dict[str, bytes] = {}
    ops = []
    for k, (voices, per_voice, query_notes) in enumerate(RECUR_DESIGN):
        tune = _tune(rng, query_notes)
        exact = rng.randint(1, 3)  # planted-statement density per voice
        notes, planted = recur_piece(rng, per_voice, voices, tune, exact)
        piece, query = f"recur{k:02d}.notes", f"tune{k:02d}.notes"
        files[piece] = notes_text(notes, title=f"recur {k}").encode()
        t = F(0)
        tune_notes = []
        for d, p in tune:
            tune_notes.append((t, d, p, 80, 0))
            t += d
        files[query] = notes_text(tune_notes).encode()
        steps = [b[1] - a[1] for a, b in zip(tune, tune[1:])]
        ratios = [str(b[0] / a[0]) for a, b in zip(tune, tune[1:])]
        ops.append({"key": piece, "args": ["recur", piece, "--query", query],
                    "notes": len(notes),
                    "expect": {"notes": len(notes), "parts": voices,
                               "steps": steps, "ratios": ratios,
                               "planted": [[v, str(a), str(b), ex]
                                           for v, a, b, ex in planted]}})
    return files, ops


def _analyze_long(rng: random.Random):
    files: Dict[str, bytes] = {}
    ops = []
    for k, (size, voices, is_mid) in enumerate(LONG_DESIGN):
        notes, start, total = climax_piece(
            rng, size, voices, (F(1, 4), F(1, 2), F(1, 2), F(3, 4), F(1)),
            (F(1, 8), F(1, 4)))
        if rng.random() < 0.75:
            form = rng.choice(DERIVABLE_FORMS)
            steps = form.count("A") - 1
        else:
            form, steps = rng.choice(NOT_DERIVABLE_FORMS), None
        name = f"long{k:02d}.{'mid' if is_mid else 'notes'}"
        if is_mid:
            files[name] = smf(notes, voices)[0]
        else:
            files[name] = notes_text(notes, title=f"long {k}").encode()
        ops.append({"key": name,
                    "args": ["analyze", name, "--form", form, "--seed", "AB"],
                    "notes": len(notes),
                    "expect": {"notes": len(notes), "parts": voices,
                               "total": str(total), "form": form, "steps": steps,
                               "title": "" if is_mid else f"long {k}",
                               "region": [str(start), str(start + REGION_BEATS)]}})
    return files, ops


def build(workload: str, seed: int):
    """Generate one workload's files and ops from a seed."""
    by_name = {"corpus": _corpus, "recur": _recur, "analyze_long": _analyze_long}
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}")
    return by_name[workload](random.Random(f"{workload}:{seed}"))
