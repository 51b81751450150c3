"""Command-line front end: analyze / climax / recur / form / corpus."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from . import __version__
from .climax import climax_profile
from .config import AnalysisConfig, parse_setting, read_settings, read_text
from .errors import AnalysisError, ArcformError, ScoreFormatError
from .grammar import (flatten, generate, parse_form, predicted_climax_position,
                      recognize)
from .recurrence import find_recurrences
from .report import build_report, curve_csv, render_json
from .score import Piece, import_midi, parse_text, skyline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _suffix(path: str) -> str:
    """The extension of the path's last name, in lower case, read as
    pathlib reads it: from its last dot, unless that starts or ends it."""
    name = os.path.basename(path.rstrip(os.sep))
    dot = name.rfind(".")
    return name[dot:].lower() if 0 < dot < len(name) - 1 else ""


def load_piece(path: str) -> Piece:
    suffix = _suffix(path)
    if suffix == ".notes":
        return parse_text(read_text(path, ScoreFormatError))
    if suffix in (".mid", ".midi"):
        with open(path, "rb") as handle:
            data = handle.read()
        # the importer's repair warnings, each named by its file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            piece = import_midi(data)
        for warning in caught:
            print(f"warning: {path}: {warning.message}", file=sys.stderr)
        return piece
    raise ScoreFormatError(f"unknown input extension {suffix!r} for {path}")


def _effective_config(args: argparse.Namespace) -> AnalysisConfig:
    """Defaults, then the --config file, then the flags. The config is
    built once, so it is validated whole, never a partial override."""
    if args.config == "":
        raise ArcformError("--config: empty path")
    settings = read_settings(args.config) if args.config is not None else {}
    if args.weights is not None:
        values = args.weights.split(",")
        if len(values) != 3:
            raise ArcformError("--weights needs three comma-separated values")
        for key, value in zip(("w_pitch", "w_density", "w_velocity"), values):
            settings[key] = parse_setting(key, value, "--weights")
    if args.window is not None:
        settings["window"] = parse_setting("window", args.window, "--window")
    if getattr(args, "threshold", None) is not None:
        settings["threshold"] = parse_setting("threshold", args.threshold,
                                              "--threshold")
    return AnalysisConfig(**settings)


def _emit(text: str, out: str | None) -> None:
    """UTF-8 bytes to `out`, or the same bytes to stdout in any locale. A
    lone surrogate, which a file name that is not UTF-8 brings in, is
    written as its backslash escape (in JSON, the escape of the same
    code point)."""
    data = text.encode("utf-8", "backslashreplace")
    if out is not None:
        with open(out, "wb") as handle:
            handle.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a text stream with no bytes below it, such as io.StringIO
        sys.stdout.write(text)


def _form_section(form: str | None, seed: str) -> dict[str, object] | None:
    """The form section; the seed is checked even with no form."""
    tree = parse_form(seed)
    if form is None:
        return None
    steps = recognize(form, tree)
    return {"form": form, "seed": seed,
            "minimal_steps": "not derivable" if steps is None else steps}


def cmd_report(args: argparse.Namespace) -> int:
    """analyze, climax and recur: one JSON report, whose sections the
    subcommand and its flags select (`climax --csv` emits the curve)."""
    config = _effective_config(args)
    # analyze checks --seed and --form before any input is read
    form = (_form_section(args.form, args.seed) if hasattr(args, "seed")
            else None)
    piece = load_piece(args.input)
    sections: dict[str, object] = {}
    if args.command != "recur":
        climax = sections["climax"] = climax_profile(
            piece, config.salience_weights, config.window)
        if getattr(args, "csv", False):
            _emit(curve_csv(climax), args.out)
            return EXIT_OK
    if getattr(args, "query", None) is not None:
        query = skyline(load_piece(args.query))
        sections["recurrence"] = find_recurrences(
            piece, query, config.threshold, config.similarity_weights)
    if form is not None:
        sections["form"] = form
        steps = form["minimal_steps"]
        if steps != "not derivable":
            # A and B at unit length: the grammar's prediction, not a
            # measurement of the piece's sections
            form["predicted_climax_position"] = float(
                predicted_climax_position(steps + 1, (1, 1)))
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
    from statistics import fmean, median  # only corpus summarises

    config = _effective_config(args)
    directory = args.directory
    if not os.path.isdir(directory):
        raise ScoreFormatError(f"not a directory: {directory}")
    names = sorted(name for name in os.listdir(directory)
                   if _suffix(name) in (".notes", ".mid", ".midi"))
    rows = []
    skipped = 0
    for name in names:
        try:
            piece = load_piece(os.path.join(directory, name))
            profile = climax_profile(piece, config.salience_weights,
                                     config.window)
        except (ArcformError, OSError) as exc:
            skipped += 1
            print(f"warning: skipped {name}: {exc}", file=sys.stderr)
            continue
        rows.append((name, piece.beats_total,
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
    # summary row: column 2 = piece count, 3 = mean position, 4 = median
    lines.append(f"summary,{len(rows)},{fmean(positions):.6f},"
                 f"{median(positions):.6f},")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out == "":  # refused before any work
            raise ArcformError("--out: empty path")
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ArcformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
