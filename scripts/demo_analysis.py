#!/usr/bin/env python3
"""Run the full analysis pipeline over the test fixtures and print a summary.

Usage: python3 scripts/demo_analysis.py [fixtures_dir]
"""

import sys
from fractions import Fraction
from pathlib import Path

from arcform import (Part, Piece, chromaticism_index, classify_cadence,
                     climax_profile, estimate_key, find_recurrences, flatten,
                     generate, key_name, parse_form, parse_text,
                     predicted_climax_position, recognize, skyline)


def main() -> int:
    fixtures = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent / "tests" / "fixtures"

    print("== recurrence: chorale statement series ==")
    piece = parse_text((fixtures / "passion_chorales.notes").read_text())
    query = skyline(parse_text((fixtures / "chorale_query.notes").read_text()))
    series = find_recurrences(piece, query)
    for m in series.matches:
        part = next(p for p in piece.parts if p.voice == m.part)
        seg = Part(part.voice, tuple(
            e for e in part.events if m.start <= e.onset < m.end))
        key = estimate_key(Piece(parts=(seg,)))
        flag = "  <- outlier" if m.occurrence_index == series.outlier_index \
            else ""
        print(f"  statement {m.occurrence_index}: beats {m.start}-{m.end}, "
              f"key {key_name(key)}, similarity {m.similarity:.3f}, "
              f"chromaticism {chromaticism_index(seg, key)}{flag}")

    print("== cadence continuity ==")
    for name in ("passion_close_62.notes", "oratorio_close_5.notes"):
        close = parse_text((fixtures / name).read_text())
        print(f"  {name}: {classify_cadence(close)}")

    print("== climax: arch-contour fixture ==")
    fig = parse_text((fixtures / "fixture_fig1.notes").read_text())
    profile = climax_profile(fig)
    print(f"  peak at beat {profile.peak_time} of {fig.beats_total} "
          f"(position {profile.normalized_position:.3f}, "
          f"asymmetry {profile.asymmetry_index:+.3f})")

    print("== form grammar ==")
    seed = parse_form("AB")
    forms = sorted({flatten(t) for t in generate(seed, 3)},
                   key=lambda s: (len(s), s))
    print(f"  AB derives in <=3 steps: {' '.join(forms)}")
    for target in ("AAB", "AABA", "ABB"):
        steps = recognize(target, parse_form("AB" if target != "AABA"
                                             else "ABA"))
        print(f"  recognize {target}: "
              f"{steps if steps is not None else 'not derivable'}")
    for n in (1, 2, 3):
        pos = predicted_climax_position(n, (Fraction(1), Fraction(1)))
        print(f"  predicted climax, {n} A-copies of equal span: {pos}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
