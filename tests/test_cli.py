import io

import pytest

from densestream.cli import main
from densestream.engine import DensityEvent
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
                     "--delta-it", "0.15", "--thresholds", "0.9,0.975,1.0"]


def test_run_emits_the_walkthrough_events_exactly(walkthrough_stream, tmp_path, capsys):
    events_path = tmp_path / "events.txt"
    rc = main(["run", "--updates", walkthrough_stream, "--events", str(events_path),
               *WALKTHROUGH_FLAGS])
    assert rc == 0
    lines = events_path.read_text().splitlines()
    assert lines[-2:] == ["11 GAIN 1.023333333 1,2,3", "11 GAIN 1.002333333 1,2,3,4"]
    err = capsys.readouterr().err
    assert "updates=11" in err and "peak_index=" in err


def test_run_is_byte_deterministic(walkthrough_stream, tmp_path):
    out1, out2 = tmp_path / "e1.txt", tmp_path / "e2.txt"
    main(["run", "--updates", walkthrough_stream, "--events", str(out1), *WALKTHROUGH_FLAGS])
    main(["run", "--updates", walkthrough_stream, "--events", str(out2), *WALKTHROUGH_FLAGS])
    assert out1.read_bytes() == out2.read_bytes()


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
