import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from densestream.cli import main
from densestream.engine import DensityEvent
from densestream.ingest import AssociationMeasure, DocumentIngestor
from densestream.streams import (StreamFormatError, format_event, parse_update_line,
                                 read_updates, write_updates)
from tests.conftest import WALKTHROUGH_EDGES


def walkthrough_stream_lines():
    lines = [f"{i} {a} {b} {w}" for i, (a, b, w) in enumerate(WALKTHROUGH_EDGES, 1)]
    lines.append(f"{len(lines) + 1} 1 2 0.15")
    return lines


@pytest.fixture
def walkthrough_stream(tmp_path):
    path = tmp_path / "updates.txt"
    path.write_text("\n".join(walkthrough_stream_lines()) + "\n", encoding="utf-8")
    return str(path)


WALKTHROUGH_FLAGS = ["--density", "avgweight", "--threshold", "1.0", "--nmax", "4",
                     "--thresholds", "0.9,0.975,1.0"]


WALKTHROUGH_FINAL = ["FINAL 1.023333333 1,2,3", "FINAL 1.002333333 1,2,3,4",
                     "FINAL 1.060000000 1,3", "FINAL 1.022500000 1,4",
                     "FINAL 1.060000000 2,3", "FINAL 1.022500000 2,4"]


def test_run_emits_the_walkthrough_events_exactly(walkthrough_stream, tmp_path, capsys):
    # with --events FILE the expanded view's FINAL lines go to stdout
    events_path = tmp_path / "events.txt"
    rc = main(["run", "--updates", walkthrough_stream, "--events", str(events_path),
               "--expand", *WALKTHROUGH_FLAGS])
    assert rc == 0
    lines = events_path.read_text().splitlines()
    assert lines[-2:] == ["11 GAIN 1.023333333 1,2,3", "11 GAIN 1.002333333 1,2,3,4"]
    captured = capsys.readouterr()
    assert "updates=11" in captured.err and "peak_index=" in captured.err
    assert "round_unit=0.150000000 " in captured.err  # implied by --thresholds
    assert "FINAL" not in captured.err and "FINAL" not in "".join(lines)
    assert captured.out.splitlines() == WALKTHROUGH_FINAL


def test_run_is_byte_deterministic(walkthrough_stream, tmp_path):
    out1, out2 = tmp_path / "e1.txt", tmp_path / "e2.txt"
    main(["run", "--updates", walkthrough_stream, "--events", str(out1), *WALKTHROUGH_FLAGS])
    main(["run", "--updates", walkthrough_stream, "--events", str(out2), *WALKTHROUGH_FLAGS])
    assert out1.read_bytes() == out2.read_bytes()


def test_run_expand_prints_final_lines_to_stderr_when_events_use_stdout(
        walkthrough_stream, capsys):
    rc = main(["run", "--updates", walkthrough_stream, "--expand", *WALKTHROUGH_FLAGS])
    assert rc == 0
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert len(out) == 6 and out[-1] == "11 GAIN 1.002333333 1,2,3,4"
    assert [line for line in captured.err.splitlines()
            if line.startswith("FINAL")] == WALKTHROUGH_FINAL


def test_run_on_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    rc = main(["run", "--updates", str(path), "--events", str(tmp_path / "ev.txt")])
    assert rc == 0
    assert "updates=0 events=0" in capsys.readouterr().err
    assert (tmp_path / "ev.txt").read_text() == ""


def test_malformed_self_loop_cites_its_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 2 0.5\n2 2 3 0.5\n3 7 7 0.5\n", encoding="utf-8")
    rc = main(["run", "--updates", str(path)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_verify_passes_on_a_small_fuzz_stream(tmp_path, capsys):
    gen_rc = main(["gen", "--out", str(tmp_path / "s.txt"), "--vertices", "10",
                   "--count", "300", "--planted-sets", "2", "--planted-size", "4",
                   "--magnitude", "0.4", "--seed", "5"])
    assert gen_rc == 0
    rc = main(["verify", "--updates", str(tmp_path / "s.txt"), "--universe", "10",
               "--density", "avgweight", "--threshold", "0.8", "--nmax", "4",
               "--delta-it", "40%"])
    assert rc == 0
    assert "PASS 300 updates" in capsys.readouterr().err


def test_verify_counts_its_checkpoints(walkthrough_stream, capsys):
    rc = main(["verify", "--updates", walkthrough_stream, "--checkpoint-every", "2",
               *WALKTHROUGH_FLAGS])
    assert rc == 0
    assert "PASS 11 updates, 5 checkpoints" in capsys.readouterr().err


def test_verify_passes_when_the_graph_clamps_sub_eps_increases(tmp_path, capsys):
    # each increase of the absent pair (1, 2) is below EPS, so the graph
    # stores nothing and the scores of (1, 2, 3) must not move either
    lines = ["1 1 3 1.8", "2 2 3 1.8"]
    lines += [f"{seq} 1 2 0.0000000009" for seq in range(3, 3003)]
    path = tmp_path / "s.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["verify", "--updates", str(path), "--universe", "4", "--nmax", "4",
               "--threshold", "1.0", "--delta-it", "40%", "--checkpoint-every", "500"])
    err = capsys.readouterr().err
    assert rc == 0, err
    assert "PASS 3002 updates, 6 checkpoints" in err


def test_verify_catches_a_broken_round_budget(tmp_path, capsys, monkeypatch):
    main(["gen", "--out", str(tmp_path / "s.txt"), "--vertices", "10",
          "--count", "250", "--planted-sets", "2", "--planted-size", "4",
          "--magnitude", "0.4", "--seed", "5"])
    from densestream.density import DensityConfig
    real = DensityConfig.iteration_budget
    monkeypatch.setattr(DensityConfig, "iteration_budget",
                        lambda self, delta: max(0, real(self, delta) - 1))
    rc = main(["verify", "--updates", str(tmp_path / "s.txt"), "--universe", "10",
               "--density", "avgweight", "--threshold", "0.8", "--nmax", "4",
               "--delta-it", "40%"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "missing" in err


def test_verify_respects_the_oracle_cap(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("1 1 40 1.0\n", encoding="utf-8")
    rc = main(["verify", "--updates", str(path), "--oracle-cap", "20"])
    assert rc == 2
    assert "oracle cap" in capsys.readouterr().err


def test_gen_reports_and_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        rc = main(["gen", "--out", str(out), "--vertices", "200", "--count", "500",
                   "--planted-sets", "5", "--planted-size", "6", "--seed", "11"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert "updates=500" in capsys.readouterr().err


def test_top_ranks_disjoint_stories_by_density(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("1 1 2 3.0\n2 5 6 2.0\n", encoding="utf-8")
    rc = main(["top", "--updates", str(path), "--density", "avgweight",
               "--threshold", "1.0", "--nmax", "4", "--delta-it", "0.15", "--k", "5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("1,2")
    assert out[1].endswith("5,6")


def test_ingest_writes_updates_and_dictionary(tmp_path, capsys):
    docs = tmp_path / "docs.txt"
    rows = []
    for i in range(12):
        rows.append(f"{i * 40}\tobama,bin laden")
        for j in range(3):
            rows.append(f"{i * 40 + 10 * (j + 1)}\tnoise{i}_{j}")
    docs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["ingest", "--documents", str(docs), "--out", str(tmp_path / "u.txt"),
               "--measure", "llr", "--mean-life-secs", "1e9",
               "--dictionary", str(tmp_path / "d.json")])
    assert rc == 0
    body = (tmp_path / "u.txt").read_text().splitlines()
    assert body, "strongly associated pair should have produced an edge"
    assert body[0].split()[1:3] == ["1", "2"]
    assert (tmp_path / "d.json").exists()


def test_ingest_reports_its_work_counters(tmp_path, capsys):
    # c and d appear only early on; with a 30 s mean life they fall below 5
    docs = [(float(i), ["a", "b"] if i % 2 else ["a", "c", "d"]) for i in range(14)]
    docs += [(14.0 + 5 * i, ["a", "b"]) for i in range(30)]
    path = tmp_path / "docs.txt"
    path.write_text("".join(f"{t}\t{','.join(ents)}\n" for t, ents in docs), encoding="utf-8")
    rc = main(["ingest", "--documents", str(path), "--out", str(tmp_path / "u.txt"),
               "--measure", "llr", "--mean-life-secs", "30"])
    assert rc == 0
    report = dict(field.split("=") for field in capsys.readouterr().err.split())
    ing = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, 30.0)
    updates = sum(len(ing.process_document(t, ents)) for t, ents in docs)
    assert report == {"updates": str(updates), "entities": "4",
                      "pairs_visited": str(ing.pairs_reweighed),
                      "pairs_tabled": str(ing.pairs_tabled),
                      "live_cells": "4", "hot": str(ing.hot_entities)}
    assert 0 < ing.pairs_tabled <= ing.pairs_reweighed
    assert ing.hot_entities == 2  # a and b


# -- rejected input ends with one error line -----------------------------------------

def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("stream, where", [
    ("1 1 2 0.5\n2 1 2 -0.9\n", "seq=2"),   # drives the 1-2 weight below zero
    ("1 1 2 1e308\n", "seq=1"),             # its round budget overflows
])
def test_run_names_the_update_the_engine_rejects(tmp_path, capsys, stream, where):
    path = tmp_path / "s.txt"
    path.write_text(stream, encoding="utf-8")
    rc = main(["run", "--updates", str(path), "--events", str(tmp_path / "ev.txt")])
    assert rc == 2
    assert where in _one_error_line(capsys)


@pytest.mark.parametrize("docs, where", [
    ("x\ta,b\n", "line 1"),                  # unparsable timestamp
    ("10\ta,b\n# note\n5\ta,c\n", "line 3"),   # goes back in time
])
def test_ingest_names_the_line_it_rejects(tmp_path, capsys, docs, where):
    path = tmp_path / "docs.txt"
    path.write_text(docs, encoding="utf-8")
    rc = main(["ingest", "--documents", str(path), "--out", str(tmp_path / "u.txt")])
    assert rc == 2
    assert where in _one_error_line(capsys)


@pytest.mark.parametrize("mean_life", ["nan", "inf"])
def test_ingest_rejects_a_non_finite_mean_life(tmp_path, capsys, mean_life):
    path = tmp_path / "docs.txt"
    path.write_text("10\ta,b\n", encoding="utf-8")
    rc = main(["ingest", "--documents", str(path), "--out", str(tmp_path / "u.txt"),
               "--mean-life-secs", mean_life])
    assert rc == 2
    assert "mean life" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["run", "verify", "top", "ingest"])
def test_missing_input_file_is_an_error_line(tmp_path, capsys, command):
    flag = "--documents" if command == "ingest" else "--updates"
    missing = str(tmp_path / "absent.txt")
    assert main([command, flag, missing]) == 2
    assert "absent.txt" in _one_error_line(capsys)


@pytest.mark.parametrize("argv, named", [
    (["run", "--delta-it", "abc"], "--delta-it"),
    (["verify", "--checkpoint-every", "0"], "--checkpoint-every"),
    (["top", "--penalty", "1.5"], "--penalty"),
    (["top", "--k", "0"], "--k"),
    (["top", "--k", "-1"], "--k"),
    # the default --delta-it 1% needs a range these two leave undefined
    (["run", "--nmax", "2"], "n_max must be at least 3"),
    (["run", "--threshold", "0"], "threshold must be positive"),
    (["run", "--universe", "-5"], "--universe"),
    (["verify", "--universe", "0"], "--universe"),
    # a NaN T_2 made nothing dense, and verify passed on the empty answer
    (["run", "--nmax", "3", "--thresholds", "nan,1.0"], "explicit thresholds must be finite"),
    (["verify", "--nmax", "4", "--thresholds", "0.5,nan,1.0"],
     "explicit thresholds must be finite"),
    (["run", "--threshold", "inf", "--nmax", "3", "--thresholds", "0.5,inf"],
     "threshold must be finite"),
    # the table sets the round unit; a NaN unit beside it ended in a traceback
    (["run", "--nmax", "3", "--thresholds", "0.5,1.0", "--delta-it", "nan"], "--delta-it"),
    (["run", "--delta-it", "nan"], "outside the valid range"),
    (["top", "--delta-it", "inf"], "outside the valid range"),
])
def test_bad_option_value_is_an_error_line(tmp_path, capsys, argv, named):
    path = tmp_path / "s.txt"
    path.write_text("1 1 2 0.5\n", encoding="utf-8")
    assert main([*argv, "--updates", str(path)]) == 2
    assert named in _one_error_line(capsys)


# Each pair reaches 1.4, the 3-4 pair 0.1, then the 1-2 pair 0.1 and 0.35.  The
# last update, of 0.25, makes {1,2,3} and {1,2,4} dense and then {1,2,3,4}
# from them: a chain two rounds long.  Under the table's unit of 0.15 its
# budget is 2 rounds; a unit of 0.25 gave 1 and left {1,2,3,4} out.
CHAIN_STREAM = "1 1 3 1.4\n2 1 4 1.4\n3 2 3 1.4\n4 2 4 1.4\n5 3 4 0.1\n6 1 2 0.1\n7 1 2 0.25\n"


def test_verify_passes_a_two_round_chain_under_the_table_unit(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(CHAIN_STREAM, encoding="utf-8")
    flags = ["verify", "--updates", str(path), "--nmax", "4", "--threshold", "1.0",
             "--thresholds", "0.9,0.975,1.0"]
    assert main(flags) == 0
    assert capsys.readouterr().err == "PASS 7 updates, 7 checkpoints\n"
    assert main([*flags, "--delta-it", "0.25"]) == 2
    assert "--delta-it" in _one_error_line(capsys)


def test_run_reports_the_round_unit_it_was_given(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(CHAIN_STREAM, encoding="utf-8")
    assert main(["run", "--updates", str(path), "--nmax", "4", "--delta-it", "0.1"]) == 0
    assert " round_unit=0.100000000 " in capsys.readouterr().err


def test_module_entry_point_runs_and_rejects_bad_input(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1 1 2 2.0\n2 2 3 2.0\n", encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "densestream", "run",
                               "--updates", str(path), *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = module()
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines() == ["1 GAIN 2.000000000 1,2", "2 GAIN 2.000000000 2,3",
                                      "2 GAIN 1.333333333 1,2,3"]
    bad = module("--universe", "-5")
    assert bad.returncode == 2
    assert bad.stdout == ""
    err = bad.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--universe" in err[0], err


def test_gen_spec_it_cannot_build_is_an_error_line(capsys):
    assert main(["gen", "--vertices", "1", "--count", "5"]) == 2
    assert "planted sets exceed the vertex universe" in _one_error_line(capsys)


@pytest.mark.parametrize("argv, named", [
    # a non-finite magnitude wrote deltas such as "nan" that run refuses
    (["--magnitude", "nan"], "magnitude bound must be finite"),
    (["--magnitude", "inf"], "magnitude bound must be finite"),
    (["--count", "-3"], "update count must not be negative"),
])
def test_gen_refuses_a_spec_whose_stream_run_would_refuse(tmp_path, capsys, argv, named):
    out = tmp_path / "u.txt"
    assert main(["gen", "--out", str(out), "--vertices", "50", *argv]) == 2
    assert named in _one_error_line(capsys)
    assert not out.exists()


def test_gen_without_planted_sets_needs_no_planted_updates(tmp_path, capsys):
    out = tmp_path / "u.txt"
    assert main(["gen", "--out", str(out), "--count", "5", "--planted-sets", "0"]) == 2
    assert "at least one planted set" in _one_error_line(capsys)
    assert main(["gen", "--out", str(out), "--count", "5", "--planted-sets", "0",
                 "--planted-prob", "0"]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_both_input_formats_skip_an_indented_comment(tmp_path, capsys):
    docs = tmp_path / "docs.txt"
    docs.write_text("10\ta,b\n  # indented comment\n20\ta,b\n", encoding="utf-8")
    rc = main(["ingest", "--documents", str(docs), "--out", str(tmp_path / "u.txt"),
               "--measure", "llr", "--mean-life-secs", "1e9"])
    assert rc == 0
    stream = io.StringIO("1 1 2 0.5\n  # indented comment\n2 1 2 0.25\n")
    assert [u.seq for u in read_updates(stream)] == [1, 2]


# -- stream formats ------------------------------------------------------------------

def test_update_roundtrip(tmp_path):
    from densestream.graph import EdgeUpdate
    path = tmp_path / "u.txt"
    updates = [EdgeUpdate(1, 1, 2, 0.125), EdgeUpdate(2, 3, 4, -0.5)]
    write_updates(str(path), updates)
    back = list(read_updates(str(path)))
    assert [(u.seq, u.a, u.b) for u in back] == [(1, 1, 2), (2, 3, 4)]
    assert back[0].delta == pytest.approx(0.125)


def test_update_parse_errors_carry_line_numbers():
    bad = io.StringIO("1 1 2 0.5\nnot a line\n")
    with pytest.raises(StreamFormatError, match="line 2"):
        list(read_updates(bad))
    with pytest.raises(StreamFormatError, match="line 1"):
        list(read_updates(io.StringIO("1 0 2 0.5\n")))


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_rejected_with_its_line(delta):
    with pytest.raises(StreamFormatError, match="line 4: non-finite delta"):
        parse_update_line(f"4 1 2 {delta}", 4)


def test_event_format_roundtrip():
    ev = DensityEvent(7, "GAIN", (1, 2, 3), 1.0233333333)
    line = format_event(ev)
    assert line == "7 GAIN 1.023333333 1,2,3"
