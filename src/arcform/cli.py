"""Command-line front end: analyze / climax / recur / form / corpus."""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import __version__
from .climax import climax_profile
from .config import AnalysisConfig, parse_setting, read_settings
from .errors import AnalysisError, ArcformError, ScoreFormatError
from .grammar import (flatten, generate, parse_form, predicted_climax_position,
                      recognize)
from .recurrence import find_recurrences
from .report import build_report, curve_csv, render_json
from .score import Piece, import_midi, parse_text, skyline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def load_piece(path: str) -> Piece:
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".notes":
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ScoreFormatError(f"{path}: not UTF-8 text") from exc
        return parse_text(text)
    if suffix in (".mid", ".midi"):
        return import_midi(p.read_bytes())
    raise ScoreFormatError(f"unknown input extension {suffix!r} for {path}")


def _effective_config(args: argparse.Namespace) -> AnalysisConfig:
    """Defaults, then the --config file, then the flags. The config is
    built once, so it is validated whole, never a partial override."""
    settings = read_settings(args.config) if args.config else {}
    if args.weights:
        values = args.weights.split(",")
        if len(values) != 3:
            raise ArcformError("--weights needs three comma-separated values")
        for key, value in zip(("w_pitch", "w_density", "w_velocity"), values):
            settings[key] = parse_setting(key, value, "--weights")
    if args.window:
        settings["window"] = parse_setting("window", args.window, "--window")
    if getattr(args, "threshold", None) is not None:
        settings["threshold"] = parse_setting("threshold", args.threshold,
                                              "--threshold")
    return AnalysisConfig(**settings)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _form_section(form: str, seed: str) -> Dict[str, Any]:
    steps = recognize(form, parse_form(seed))
    return {"form": form, "seed": seed,
            "minimal_steps": "not derivable" if steps is None else steps}


def cmd_report(args: argparse.Namespace) -> int:
    """analyze, climax and recur: one JSON report, whose sections the
    subcommand and its flags select (`climax --csv` emits the curve)."""
    config = _effective_config(args)
    piece = load_piece(args.input)
    sections: Dict[str, Any] = {}
    if args.command != "recur":
        climax = sections["climax"] = climax_profile(
            piece, config.salience_weights, config.window)
        if getattr(args, "csv", False):
            _emit(curve_csv(climax), args.out)
            return EXIT_OK
    if getattr(args, "query", None):
        query = skyline(load_piece(args.query))
        sections["recurrence"] = find_recurrences(
            piece, query, config.threshold, config.similarity_weights)
    if getattr(args, "form", None):
        form = sections["form"] = _form_section(args.form, args.seed)
        steps = form["minimal_steps"]
        if steps != "not derivable":
            # A and B at unit length: the grammar's prediction, not a
            # measurement of the piece's sections
            form["predicted_climax_position"] = float(
                predicted_climax_position(steps + 1, (Fraction(1), Fraction(1))))
            form["measured_climax_position"] = climax.normalized_position
    report = build_report(piece, args.input, config, __version__, **sections)
    _emit(render_json(report), args.out)
    return EXIT_OK


def cmd_form_generate(args: argparse.Namespace) -> int:
    seed = parse_form(args.seed)
    trees = generate(seed, args.steps)
    strings = sorted({flatten(t) for t in trees}, key=lambda s: (len(s), s))
    if args.json:
        _emit(render_json(strings), args.out)
    else:
        _emit(" ".join(strings) + "\n", args.out)
    return EXIT_OK


def cmd_form_recognize(args: argparse.Namespace) -> int:
    section = _form_section(args.form, args.seed)
    if args.json:
        _emit(render_json(section), args.out)
    else:
        _emit(f"{section['minimal_steps']}\n", args.out)
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ScoreFormatError(f"not a directory: {args.directory}")
    files = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in (".notes", ".mid", ".midi"))
    rows = []
    skipped = 0
    for path in files:
        try:
            piece = load_piece(str(path))
            profile = climax_profile(piece, config.salience_weights,
                                     config.window)
        except ArcformError as exc:
            skipped += 1
            print(f"warning: skipped {path.name}: {exc}", file=sys.stderr)
            continue
        rows.append((path.name, piece.beats_total,
                     profile.normalized_position,
                     profile.asymmetry_index,
                     profile.pre_mass_fraction))
    if not rows:
        raise ScoreFormatError(f"no parseable scores in {args.directory}")
    lines = ["file,beats_total,normalized_position,asymmetry_index,"
             "pre_mass_fraction"]
    for name, total, pos, asym, pre in rows:
        lines.append(f"{name},{total},{pos:.6f},{asym:.6f},{pre:.6f}")
    positions = [pos for _, _, pos, _, _ in rows]
    mean = statistics.fmean(positions)
    median = statistics.median(positions)
    # summary row: column 2 = piece count, 3 = mean position, 4 = median
    lines.append(f"summary,{len(rows)},{mean:.6f},{median:.6f},")
    _emit("\n".join(lines) + "\n", args.out)
    if skipped:
        print(f"warning: {skipped} file(s) skipped", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="arcform",
        description="Temporal-structure analysis of symbolic music: "
                    "recurrence, climax asymmetry, and form grammar.")
    parser.add_argument("--version", action="version",
                        version=f"arcform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH",
                     help="write output here instead of stdout")
    salience = argparse.ArgumentParser(add_help=False, parents=[out])
    salience.add_argument("--config", metavar="PATH",
                          help="key=value config file (flags win)")
    salience.add_argument("--weights", metavar="P,D,V",
                          help="salience weights pitch,density,velocity")
    salience.add_argument("--window", metavar="BEATS",
                          help="salience window width in beats")
    analysis = argparse.ArgumentParser(add_help=False, parents=[salience])
    analysis.add_argument("--threshold", metavar="X",
                          help="recurrence similarity threshold")
    as_json = argparse.ArgumentParser(add_help=False, parents=[out])
    as_json.add_argument("--json", action="store_true",
                         help="emit JSON instead of text")

    p_analyze = sub.add_parser("analyze", parents=[analysis],
                               help="full analysis to JSON")
    p_analyze.add_argument("input", help=".notes or .mid score")
    p_analyze.add_argument("--query", metavar="PATH",
                           help="melody file: also run recurrence detection")
    p_analyze.add_argument("--form", metavar="STR",
                           help="form string: also run form recognition")
    p_analyze.add_argument("--seed", metavar="FORM", default="AB",
                           help="seed form for recognition (default AB)")
    p_analyze.set_defaults(func=cmd_report)

    p_climax = sub.add_parser("climax", parents=[analysis],
                              help="climax profile only")
    p_climax.add_argument("input")
    p_climax.add_argument("--csv", action="store_true",
                          help="emit the salience curve as CSV")
    p_climax.set_defaults(func=cmd_report)

    p_recur = sub.add_parser("recur", parents=[analysis],
                             help="recurrence detection only")
    p_recur.add_argument("input")
    p_recur.add_argument("--query", metavar="PATH", required=True)
    p_recur.set_defaults(func=cmd_report)

    p_form = sub.add_parser("form", help="form grammar tools")
    form_sub = p_form.add_subparsers(dest="form_command", required=True)
    p_gen = form_sub.add_parser("generate", parents=[as_json])
    p_gen.add_argument("--seed", metavar="FORM", default="AB")
    p_gen.add_argument("--steps", type=int, default=1)
    p_gen.set_defaults(func=cmd_form_generate)
    p_rec = form_sub.add_parser("recognize", parents=[as_json])
    p_rec.add_argument("form")
    p_rec.add_argument("--seed", metavar="FORM", default="AB")
    p_rec.set_defaults(func=cmd_form_recognize)

    p_corpus = sub.add_parser("corpus", parents=[salience],
                              help="batch climax stats to CSV")
    p_corpus.add_argument("directory")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ArcformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
