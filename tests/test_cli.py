import json
import os
import subprocess
import sys
import time

import pytest

from arcform.cli import _suffix, main
from arcform.config import AnalysisConfig, read_settings
from oracles import PKG_ROOT, midi_file, run_cli


# --- analyze --------------------------------------------------------------------

def test_analyze_fig1_fixture(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["climax"]["normalized_position"] > 0.5
    assert report["climax"]["asymmetry_index"] > 0


def test_analyze_with_query(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "passion_chorales.notes",
                  "--query", fixtures_dir / "chorale_query.notes")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert len(report["recurrence"]["matches"]) == 5
    assert report["recurrence"]["outlier_index"] == 4


def test_analyze_with_form(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--form", "AAB", "--seed", "AB")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["form"]["minimal_steps"] == 1


def test_analyze_form_predicts_climax_at_unit_lengths(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--form", "AAAB", "--seed", "AB")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    form = report["form"]
    assert form["minimal_steps"] == 2
    # three A copies and one B, each of unit length: B starts at 3/4
    assert form["predicted_climax_position"] == 0.75
    assert (form["measured_climax_position"]
            == report["climax"]["normalized_position"])


def test_analyze_form_over_step_bound_exit_2(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--form", "A" * 3000 + "B", "--seed", "AB")
    assert res.returncode == 2
    assert "over the 32-step bound" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", [
    ["analyze", "fixture_fig1.notes", "--form", "AAB"],
    ["form", "recognize", "AAB"],
    ["analyze", "fixture_fig1.notes"],
])
def test_empty_seed_is_refused_exit_2(fixtures_dir, command):
    command = [fixtures_dir / arg if arg.endswith(".notes") else arg
               for arg in command]
    res = run_cli(*command, "--seed", "")
    assert res.returncode == 2
    assert res.stderr == "error: empty form\n"
    assert res.stdout == ""


@pytest.mark.parametrize("command, message", [
    (["recur", "fixture_fig1.notes", "--query", ""],
     "error: unknown input extension '' for \n"),
    (["analyze", "fixture_fig1.notes", "--query", ""],
     "error: unknown input extension '' for \n"),
    (["analyze", "fixture_fig1.notes", "--form", ""], "error: empty form\n"),
], ids=["recur-query", "analyze-query", "analyze-form"])
def test_empty_query_or_form_is_refused_exit_2(fixtures_dir, command,
                                               message):
    command = [fixtures_dir / arg if arg.endswith(".notes") else arg
               for arg in command]
    res = run_cli(*command)
    assert res.returncode == 2
    assert res.stderr == message
    assert res.stdout == ""


@pytest.mark.parametrize("flags", [["--seed", "ab"], ["--form", "ab"]])
def test_bad_seed_or_form_is_refused_before_the_input_is_read(tmp_path,
                                                              flags):
    res = run_cli("analyze", tmp_path / "missing.notes", *flags)
    assert res.returncode == 2
    assert res.stderr == "error: form must be uppercase letters, got 'ab'\n"
    assert res.stdout == ""


def test_main_twice_in_one_process(fixtures_dir, tmp_path, monkeypatch):
    """The parser is built once per process; one call's flags must not
    leak into the next call's defaults."""
    monkeypatch.chdir(fixtures_dir)
    calls = [
        ["analyze", "fixture_fig1.notes", "--form", "AABA", "--seed", "ABA",
         "--window", "2"],
        ["form", "recognize", "AAB", "--json"],
        ["analyze", "fixture_fig1.notes", "--form", "AAB"],
        ["form", "recognize", "AABA", "--seed", "ABA", "--json"],
    ]
    outputs = []
    for i, args in enumerate(calls + calls):
        out = tmp_path / f"{i}.out"
        assert main([*args, "--out", str(out)]) == 0
        outputs.append(json.loads(out.read_text(encoding="utf-8")))
    assert outputs[:4] == outputs[4:]
    first, recognized, analyzed, _ = outputs[:4]
    assert first["form"]["seed"] == "ABA" and first["config"]["window"] == "2"
    assert recognized == {"form": "AAB", "seed": "AB", "minimal_steps": 1}
    assert analyzed["form"]["seed"] == "AB"
    assert analyzed["config"]["window"] == str(AnalysisConfig().window)


def test_analyze_deterministic_bytes(fixtures_dir):
    first = run_cli("analyze", fixtures_dir / "fixture_fig1.notes")
    second = run_cli("analyze", fixtures_dir / "fixture_fig1.notes")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_analyze_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.notes"
    bad.write_text("0 0 60\n")
    res = run_cli("analyze", bad)
    assert res.returncode == 2
    assert "non-positive duration" in res.stderr
    assert res.stdout == ""


def test_analyze_missing_file_exit_2(tmp_path):
    res = run_cli("analyze", tmp_path / "nope.notes")
    assert res.returncode == 2


def test_analyze_unknown_extension_exit_2(tmp_path):
    f = tmp_path / "x.xml"
    f.write_text("<score/>")
    res = run_cli("analyze", f)
    assert res.returncode == 2


def test_analyze_precondition_failure_exit_3(tmp_path):
    empty = tmp_path / "empty.notes"
    empty.write_text("# no events\n")
    res = run_cli("analyze", empty)
    assert res.returncode == 3


def test_config_echo_round_trips(fixtures_dir):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--weights", "0.5,0.25,0.25", "--window", "8",
                  "--threshold", "0.7")
    report = json.loads(res.stdout)
    config = AnalysisConfig(**report["config"])
    assert config.salience_weights == (0.5, 0.25, 0.25)
    assert str(config.window) == "8"
    assert config.threshold == 0.7


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "1/0", "--window: bad value for window"),
    ("--window", "abc", "--window: bad value for window"),
    ("--weights", "a,b,c", "--weights: bad value for w_pitch"),
    ("--weights", "0.5,0.5", "--weights needs three comma-separated values"),
    ("--threshold", "abc", "--threshold: bad value for threshold"),
    ("--window", "", "--window: bad value for window"),
    ("--weights", "", "--weights needs three comma-separated values"),
    ("--config", "", "error: --config: empty path"),
    ("--out", "", "error: --out: empty path"),
])
def test_bad_flag_value_exit_2(fixtures_dir, flag, value, message):
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes", flag, value)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_empty_out_is_refused_before_any_file_is_read(fixtures_dir):
    # corpus_bad holds a malformed file, whose warning would come first
    res = run_cli("corpus", fixtures_dir / "corpus_bad", "--out", "")
    assert res.returncode == 2
    assert res.stderr == "error: --out: empty path\n"
    assert res.stdout == ""


def test_bad_config_value_names_file_and_line(fixtures_dir, tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("threshold=0.9\nwindow=1/0\n")
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--config", cfg)
    assert res.returncode == 2
    assert f"{cfg}:2: bad value for window" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("value", ["1e100000000", "4e0", "1E3"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_window_with_exponent_exit_2_at_once(fixtures_dir, tmp_path, capsys,
                                             where, value):
    # Fraction would expand the exponent in full, for minutes or hours
    if where == "flag":
        flags, message = ["--window", value], "--window: bad value for window"
    else:
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"threshold=0.9\nwindow={value}\n")
        flags, message = ["--config", str(cfg)], f"{cfg}:2: bad value for window"
    start = time.perf_counter()
    code = main(["analyze", str(fixtures_dir / "fixture_fig1.notes"), *flags])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert message in capsys.readouterr().err


def prime_probe(count):
    """Note i at onset i + 1/p_i, p_i the i-th prime, in two voices."""
    sieve = bytearray([1]) * 40_000
    for n in range(2, 200):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, 40_000, n)))
    primes = [n for n in range(2, 40_000) if sieve[n]][:count]
    return "".join(f"{i * p + 1}/{p} 1 {60 + i % 12} 64 {i % 2}\n"
                   for i, p in enumerate(primes))


def digits_probe(count):
    """Notes over distinct odd 300-digit denominators, the first two
    coprime."""
    dens = [10 ** 299 + 2 * i + 1 for i in range(count)]
    return "".join(f"{i * d + 1}/{d} 1 60\n" for i, d in enumerate(dens))


@pytest.mark.parametrize("source, line", [(prime_probe(4000), 132),
                                          (digits_probe(300), 2)])
def test_tick_scale_over_the_bound_exit_2(tmp_path, capsys, source, line):
    score = tmp_path / "probe.notes"
    score.write_text(source)
    start = time.perf_counter()
    code = main(["climax", str(score), "--window", "8"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "-bit tick scale, over 1024" in err and f"line {line}\n" in err


@pytest.mark.parametrize("name", ["score.notes", "a.cfg"])
def test_non_utf8_input_exit_2(fixtures_dir, tmp_path, name):
    bad = tmp_path / name
    bad.write_bytes(b"0 1 60\n\xff\xfe\n")
    args = (["analyze", bad] if name.endswith(".notes") else
            ["analyze", fixtures_dir / "fixture_fig1.notes", "--config", bad])
    res = run_cli(*args)
    assert res.returncode == 2
    assert "not UTF-8 text" in res.stderr
    assert "Traceback" not in res.stderr


def test_byte_order_mark_at_the_start_is_dropped(fixtures_dir, tmp_path,
                                                 monkeypatch):
    plain = fixtures_dir / "fixture_fig1.notes"
    (tmp_path / plain.name).write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    out = tmp_path / "out.json"
    reports = []
    for folder in (fixtures_dir, tmp_path):
        monkeypatch.chdir(folder)
        assert main(["analyze", plain.name, "--out", str(out)]) == 0
        reports.append(out.read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    cfg = tmp_path / "a.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfthreshold=0.9\n")
    assert read_settings(str(cfg)) == {"threshold": 0.9}


@pytest.mark.parametrize("name, text, message", [
    ("two.notes", "\ufeff\ufeff0 1 60\n", "non-numeric field, line 1"),
    ("later.notes", "0 1 60\n\ufeff1 1 62\n", "non-numeric field, line 2"),
    ("two.cfg", "\ufeff\ufeffthreshold=0.9\n", "unknown"),
])
def test_byte_order_mark_anywhere_else_is_an_error(fixtures_dir, tmp_path,
                                                   name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    args = (["analyze", path] if name.endswith(".notes") else
            ["analyze", fixtures_dir / "fixture_fig1.notes", "--config", path])
    res = run_cli(*args)
    assert res.returncode == 2
    assert message in res.stderr and "Traceback" not in res.stderr


def test_config_file_flags_win(fixtures_dir, tmp_path):
    cfg = tmp_path / "a.cfg"
    # each weight line alone leaves the weights invalid; only the whole
    # file is checked
    cfg.write_text("threshold=0.9\nwindow=16\n"
                   "w_pitch=0.5\nw_density=0.2\nw_velocity=0.3\n")
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--config", cfg, "--window", "4")
    report = json.loads(res.stdout)
    assert report["config"]["threshold"] == 0.9  # from file
    assert report["config"]["w_pitch"] == 0.5    # from file
    assert report["config"]["window"] == "4"     # flag wins


@pytest.mark.parametrize("command, flags, config", [
    ("climax", ["--weights", "nan,0.5,0.5"], None),
    ("recur", [], "sim_pitch=nan\n"),
    ("recur", ["--weights", "0.9,0.9,0.9"], None),
    ("climax", [], "sim_pitch=0.9\n"),
    ("recur", ["--window", "0"], None),
    ("climax", ["--threshold", "0"], None),
    ("corpus", [], "w_velocity=-0.1\n"),
])
def test_invalid_config_exit_3_before_analysis(fixtures_dir, tmp_path,
                                               command, flags, config):
    if config is not None:
        cfg = tmp_path / "a.cfg"
        cfg.write_text(config)
        flags = [*flags, "--config", cfg]
    if command == "corpus":
        args = [fixtures_dir / "corpus"]
    else:
        args = [fixtures_dir / "passion_chorales.notes"]
        if command == "recur":
            args += ["--query", fixtures_dir / "chorale_query.notes"]
    res = run_cli(command, *args, *flags)
    assert res.returncode == 3
    assert "error: " in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ["form", "generate", "--window", "abc"],
    ["form", "recognize", "AAB", "--config", "a.cfg"],
    ["form", "generate", "--threshold", "0.5"],
    ["analyze", "x.notes", "--json"],
    ["climax", "x.notes", "--csv", "--json"],
    ["recur", "x.notes", "--query", "q.notes", "--json"],
    ["corpus", "scores", "--threshold", "0.5"],
    ["corpus", "scores", "--json"],
])
def test_flag_a_subcommand_does_not_use_is_refused(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr


def test_out_flag_writes_file(fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("analyze", fixtures_dir / "fixture_fig1.notes",
                  "--out", out)
    assert res.returncode == 0 and res.stdout == ""
    assert json.loads(out.read_text())["climax"]["asymmetry_index"] > 0


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_stdout_carries_utf8_bytes_whatever_the_locale(tmp_path, command):
    (tmp_path / "café.notes").write_text("@title café\n0 1 60\n1 1 62\n",
                                         encoding="utf-8")
    target = tmp_path if command == "corpus" else tmp_path / "café.notes"
    argv = [sys.executable, "-m", "arcform", command, str(target)]
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    out = tmp_path / "report.out"
    to_file = subprocess.run([*argv, "--out", str(out)], capture_output=True,
                             env=env, cwd=PKG_ROOT)
    to_stdout = subprocess.run(argv, capture_output=True, env=env,
                               cwd=PKG_ROOT)
    assert to_file.returncode == to_stdout.returncode == 0
    assert b"Traceback" not in to_stdout.stderr
    assert "café".encode("utf-8") in out.read_bytes()
    assert to_stdout.stdout == out.read_bytes()


@pytest.mark.parametrize("command", ["analyze", "recur", "corpus"])
def test_a_file_name_that_is_not_utf8_is_escaped_not_a_traceback(
        tmp_path, command):
    # a bytes name: the report carries it as a lone surrogate
    name = os.path.join(os.fsencode(tmp_path), b"a\xff.notes")
    try:
        with open(name, "wb") as handle:
            handle.write(b"0 1 60\n1 1 62\n2 1 64\n")
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    target = os.fsencode(tmp_path) if command == "corpus" else name
    argv = [sys.executable, "-m", "arcform", command, target]
    if command == "recur":
        argv += ["--query", name]
    out = tmp_path / "report.out"
    to_file = subprocess.run([*argv, "--out", str(out)], capture_output=True,
                             cwd=PKG_ROOT)
    to_stdout = subprocess.run(argv, capture_output=True, cwd=PKG_ROOT)
    assert to_file.returncode == to_stdout.returncode == 0
    assert b"Traceback" not in to_file.stderr + to_stdout.stderr
    assert b"a\\udcff.notes" in out.read_bytes()
    assert to_stdout.stdout == out.read_bytes()


# --- climax / recur --------------------------------------------------------------

def test_climax_csv_curve(fixtures_dir):
    res = run_cli("climax", fixtures_dir / "fixture_fig1.notes", "--csv")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "time,salience"
    assert len(lines) > 10
    assert all("," in line for line in lines[1:])


@pytest.mark.parametrize("source", ["window", "midi"])
def test_climax_grid_over_the_bound_exit_3(fixtures_dir, tmp_path, source):
    if source == "window":  # 60 beats in steps of 1/2000 beat
        args = [fixtures_dir / "fixture_fig1.notes", "--window", "0.001"]
    else:  # one note 0x0FFFFFFF beats long
        score = tmp_path / "long.mid"
        score.write_bytes(midi_file([[(0, [0x90, 60, 80]),
                                      (0x0FFFFFFF, [0x80, 60, 0])]],
                                    division=1))
        args = [score]
    res = run_cli("climax", *args)
    assert res.returncode == 3
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and "grid points" in line
    assert "--window" in line


def test_recur_report(fixtures_dir):
    res = run_cli("recur", fixtures_dir / "passion_chorales.notes",
                  "--query", fixtures_dir / "chorale_query.notes")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    matches = report["recurrence"]["matches"]
    assert [m["deviation"] for m in matches[:4]] == [0.0] * 4
    assert matches[4]["deviation"] > 0


# --- form ------------------------------------------------------------------------

def test_form_generate():
    res = run_cli("form", "generate", "--seed", "AB", "--steps", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "AB AAB AAAB"


def test_form_generate_takes_one_step_by_default(capsys):
    assert main(["form", "generate"]) == 0
    assert capsys.readouterr().out == "AB AAB\n"


def test_form_generate_step_bound(capsys):
    assert main(["form", "generate", "--steps", "32"]) == 0
    strings = capsys.readouterr().out.split()
    assert len(strings) == 33 and strings[-1] == "A" * 33 + "B"
    res = run_cli("form", "generate", "--steps", "33")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: max_steps must be in 0..32, got 33\n"


def test_form_recognize_derivable():
    res = run_cli("form", "recognize", "AABA", "--seed", "ABA")
    assert res.returncode == 0
    assert res.stdout.strip() == "1"


def test_form_recognize_not_derivable_exit_0():
    res = run_cli("form", "recognize", "ABB", "--seed", "AB")
    assert res.returncode == 0
    assert res.stdout.strip() == "not derivable"


def test_form_recognize_malformed_exit_2():
    res = run_cli("form", "recognize", "a?b", "--seed", "AB")
    assert res.returncode == 2


# --- corpus ----------------------------------------------------------------------

def test_corpus_summary_mean(fixtures_dir):
    res = run_cli("corpus", fixtures_dir / "corpus")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("file,beats_total,normalized_position")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4  # 3 pieces + summary
    positions = sorted(float(r[2]) for r in rows[:3])
    assert positions == [0.25, 0.5, 0.75]
    summary = rows[3]
    assert summary[0] == "summary"
    assert float(summary[2]) == 0.5   # mean
    assert float(summary[3]) == 0.5   # median


def test_corpus_skips_corrupt_with_warning(fixtures_dir):
    res = run_cli("corpus", fixtures_dir / "corpus_bad")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 1 + 3 + 1  # header + valid rows + summary
    assert res.stderr.count("warning: skipped") == 1


def test_corpus_skips_high_bit_midi(fixtures_dir, tmp_path):
    for path in (fixtures_dir / "corpus").iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "high_bit.mid").write_bytes(
        midi_file([[(0, [0x90, 60, 200]), (480, [0x80, 60, 0])]]))
    res = run_cli("corpus", tmp_path)
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 1 + 3 + 1
    assert "warning: skipped high_bit.mid: channel event data byte" \
        in res.stderr


def test_corpus_skips_an_entry_it_cannot_read(fixtures_dir, tmp_path):
    for path in (fixtures_dir / "corpus").iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "sub.mid").mkdir()
    res = run_cli("corpus", tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 1 + 3 + 1
    assert "warning: skipped sub.mid: " in res.stderr
    assert "warning: 1 file(s) skipped" in res.stderr


def test_corpus_names_each_file_of_a_midi_repair_warning(tmp_path):
    # the same unmatched note-on in two files: one line per file, both
    # shown, none of them a raw Python warning or read as a skip
    data = midi_file([[(0, [0x90, 60, 70]), (480, [0x90, 62, 70]),
                       (480, [0x80, 62, 0])]])
    for name in ("a.mid", "b.mid"):
        (tmp_path / name).write_bytes(data)
    res = run_cli("corpus", tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 1 + 2 + 1
    assert res.stderr.splitlines() == [
        f"warning: {tmp_path / name}: unmatched note-on (pitch 60) closed "
        f"at track end" for name in ("a.mid", "b.mid")]


@pytest.mark.parametrize("path,suffix", [
    (".notes", ""), ("a.", ""), ("..notes", ".notes"), ("x.N", ".n"),
    ("x.MID", ".mid"), ("d.notes/x", ""), ("x.notes/", ".notes"),
])
def test_suffix_is_read_from_the_last_dot_of_the_last_name(path, suffix):
    assert _suffix(path) == suffix


def test_corpus_does_not_read_a_file_named_only_by_its_suffix(
        fixtures_dir, tmp_path, capsys):
    for path in (fixtures_dir / "corpus").iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / ".notes").write_text("0 1 60\n", encoding="utf-8")
    assert main(["corpus", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out == run_cli("corpus", fixtures_dir / "corpus").stdout
    assert err == ""


def test_corpus_empty_directory_exit_2(tmp_path):
    res = run_cli("corpus", tmp_path)
    assert res.returncode == 2


def test_corpus_deterministic(fixtures_dir):
    a = run_cli("corpus", fixtures_dir / "corpus")
    b = run_cli("corpus", fixtures_dir / "corpus")
    assert a.stdout == b.stdout


# --- scripts ---------------------------------------------------------------------

def test_fixture_script_reproduces_the_fixtures(fixtures_dir, tmp_path):
    res = subprocess.run(
        [sys.executable, PKG_ROOT / "scripts" / "make_fixtures.py", tmp_path],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    made = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert made == sorted(p.relative_to(fixtures_dir)
                          for p in fixtures_dir.rglob("*"))
    for name in made:
        if (tmp_path / name).is_file():
            assert (tmp_path / name).read_bytes() == \
                (fixtures_dir / name).read_bytes(), name


def test_demo_analysis_script_runs():
    res = subprocess.run(
        [sys.executable, PKG_ROOT / "scripts" / "demo_analysis.py"],
        capture_output=True, text=True, cwd=PKG_ROOT,
        env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")})
    assert res.returncode == 0, res.stderr
    assert "<- outlier" in res.stdout


# --- start-up --------------------------------------------------------------------

def test_import_loads_no_dataclasses_typing_pathlib_or_statistics(
        fixtures_dir):
    # -S: a site-packages .pth file may load typing or pathlib in advance
    heavy = ("dataclasses", "inspect", "typing", "pathlib", "statistics")
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")}
    res = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, arcform.cli; print([m for m in {heavy!r} "
         f"if m in sys.modules])"],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
    # corpus, which imports statistics itself, still summarises
    res = subprocess.run(
        [sys.executable, "-S", "-m", "arcform", "corpus",
         fixtures_dir / "corpus"],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "summary,3,0.500000,0.500000,"
