"""Tests for the command-line interface."""

import pytest

from repro.cli import main


QUERY_TEXT = """
PATTERN (A B+ C)
DEFINE
    A AS (A.closePrice < lowerLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit),
    C AS (C.closePrice > upperLimit)
WITHIN 200 events FROM every 50 events
CONSUME (A B+ C)
"""


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "band.sql"
    path.write_text(QUERY_TEXT)
    return str(path)


@pytest.fixture
def walk_csv(tmp_path):
    path = tmp_path / "walk.csv"
    code = main(["generate", "--kind", "walk", "--events", "2000",
                 "--seed", "17", "--reversion", "0.1", "--out", str(path)])
    assert code == 0
    return str(path)


class TestGenerate:
    def test_nyse(self, tmp_path, capsys):
        out = tmp_path / "nyse.csv"
        code = main(["generate", "--kind", "nyse", "--events", "500",
                     "--symbols", "20", "--leading", "2", "--out",
                     str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 500 events" in capsys.readouterr().out

    def test_rand(self, tmp_path):
        out = tmp_path / "rand.csv"
        assert main(["generate", "--kind", "rand", "--events", "100",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestRun:
    def test_spectre_engine(self, query_file, walk_csv, capsys):
        code = main(["run", "--query", query_file, "--data", walk_csv,
                     "--engine", "spectre", "--k", "4",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complex events" in out

    def test_sequential_engine(self, query_file, walk_csv, capsys):
        code = main(["run", "--query", query_file, "--data", walk_csv,
                     "--engine", "sequential",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "completion probability" in capsys.readouterr().out

    def test_bad_param(self, query_file, walk_csv):
        with pytest.raises(SystemExit):
            main(["run", "--query", query_file, "--data", walk_csv,
                  "--param", "oops"])


class TestRunFollow:
    ARGS = ["--param", "lowerLimit=40", "--param", "upperLimit=60"]

    def test_follow_streams_matches_from_file(self, query_file, walk_csv,
                                              capsys):
        code = main(["run", "--query", query_file, "--data", walk_csv,
                     "--follow", "--engine", "spectre", "--k", "2",
                     *self.ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed events" in out
        # match lines carry the triggering event position
        assert "match #1 @event" in out

    def test_follow_matches_batch_run_count(self, query_file, walk_csv,
                                            capsys):
        assert main(["run", "--query", query_file, "--data", walk_csv,
                     *self.ARGS]) == 0
        batch_out = capsys.readouterr().out
        batch_count = int(batch_out.split(":")[1].split()[0])
        assert main(["run", "--query", query_file, "--data", walk_csv,
                     "--follow", *self.ARGS]) == 0
        follow_out = capsys.readouterr().out
        assert f"{batch_count} complex events" in follow_out

    def test_follow_reads_stdin(self, query_file, walk_csv, capsys,
                                monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(open(walk_csv).read()))
        code = main(["run", "--query", query_file, "--data", "-",
                     "--follow", "--engine", "sequential",
                     "--slack", "5", *self.ARGS])
        assert code == 0
        assert "late_dropped=0" in capsys.readouterr().out


class TestTRexEngineFlag:
    def test_run_trex(self, query_file, walk_csv, capsys):
        code = main(["run", "--query", query_file, "--data", walk_csv,
                     "--engine", "trex",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "automaton baseline" in capsys.readouterr().out


class TestVerify:
    def test_equivalence_check_passes(self, query_file, walk_csv, capsys):
        code = main(["verify", "--query", query_file, "--data", walk_csv,
                     "--k", "4", "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "OK" in capsys.readouterr().out


@pytest.fixture
def pairs_query_file(tmp_path):
    """Second pipeline stage: two band oscillations in a row."""
    path = tmp_path / "pairs.sql"
    path.write_text("""
PATTERN (A B)
DEFINE
    A AS (A.source_operator = 'band'),
    B AS (B.source_operator = 'band')
WITHIN 4 events FROM every 4 events
CONSUME (A B)
""")
    return str(path)


class TestEngineAndSchedulerFlags:
    @pytest.mark.parametrize("engine", ["elastic", "approximate",
                                        "sharded"])
    def test_removed_engine_names_are_refused(self, query_file, walk_csv,
                                              engine):
        """Elasticity and early emission are ``SpectreConfig`` fields of
        the one speculative engine, not engines; the sharded runtime is
        gone."""
        with pytest.raises(SystemExit):
            main(["run", "--query", query_file, "--data", walk_csv,
                  "--engine", engine])

    @pytest.mark.parametrize("scheduler", ["topk", "fifo", "roundrobin"])
    def test_verify_under_every_scheduler(self, query_file, walk_csv,
                                          capsys, scheduler):
        code = main(["verify", "--query", query_file, "--data", walk_csv,
                     "--k", "4", "--scheduler", scheduler,
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_engine_variant(self, query_file, walk_csv, capsys):
        code = main(["verify", "--query", query_file, "--data", walk_csv,
                     "--engine", "threaded", "--k", "2",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "THREADED" in capsys.readouterr().out

    def test_unknown_scheduler_rejected(self, query_file, walk_csv):
        with pytest.raises(SystemExit):
            main(["run", "--query", query_file, "--data", walk_csv,
                  "--scheduler", "quantum"])


@pytest.fixture
def tumbling_query_file(tmp_path):
    """Tumbling-window variant of the band query: windows never
    overlap."""
    path = tmp_path / "tumble.sql"
    path.write_text(QUERY_TEXT.replace("WITHIN 200 events FROM every 50",
                                       "WITHIN 50 events FROM every 50"))
    return str(path)


class TestServeCommand:
    ARGS = ["--param", "lowerLimit=40", "--param", "upperLimit=60"]

    def test_serve_two_queries_one_pass(self, query_file,
                                        tumbling_query_file, walk_csv,
                                        capsys):
        code = main(["serve", "--query", f"band={query_file}",
                     "--query", f"tumble={tumbling_query_file}",
                     "--data", walk_csv, "--engine", "spectre", "--k", "2",
                     *self.ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "band:" in out
        assert "tumble:" in out
        assert "served 2 queries" in out
        assert "one ingestion pass" in out

    def test_serve_matches_are_tagged_and_equal_run_counts(
            self, query_file, walk_csv, capsys):
        assert main(["run", "--query", query_file, "--data", walk_csv,
                     "--engine", "sequential", *self.ARGS]) == 0
        batch_out = capsys.readouterr().out
        batch_count = int(batch_out.split(":")[1].split()[0])
        code = main(["serve", "--query", query_file, "--data", walk_csv,
                     "--engine", "sequential", *self.ARGS])
        assert code == 0
        serve_out = capsys.readouterr().out
        assert f"[band] match #{batch_count}:" in serve_out
        assert f"band: {batch_count} complex events" in serve_out

    def test_serve_reads_stdin(self, query_file, walk_csv, capsys,
                               monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(open(walk_csv).read()))
        code = main(["serve", "--query", query_file, "--data", "-",
                     "--engine", "sequential", "--slack", "5",
                     *self.ARGS])
        assert code == 0
        assert "late_dropped=0" in capsys.readouterr().out

    def test_serve_default_name_is_the_file_stem(self, query_file,
                                                 walk_csv, capsys):
        code = main(["serve", "--query", query_file, "--data", walk_csv,
                     "--engine", "sequential", *self.ARGS])
        assert code == 0
        assert "band:" in capsys.readouterr().out  # band.sql → "band"

    def test_serve_requires_a_query(self, walk_csv):
        with pytest.raises(SystemExit):
            main(["serve", "--data", walk_csv])

    def test_serve_rejects_duplicate_names(self, query_file, walk_csv):
        with pytest.raises(SystemExit, match="bad --query"):
            main(["serve", "--query", f"dup={query_file}",
                  "--query", f"dup={query_file}", "--data", walk_csv,
                  *self.ARGS])


class TestGraphCommand:
    def test_two_stage_pipeline(self, query_file, pairs_query_file,
                                walk_csv, capsys):
        code = main(["graph", "--data", walk_csv,
                     "--stage", f"band={query_file}",
                     "--stage", f"bandpairs={pairs_query_file}",
                     "--engine", "spectre", "--k", "2",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "band:" in out
        assert "bandpairs:" in out

    def test_verify_flag_compares_to_sequential(self, query_file,
                                                pairs_query_file,
                                                walk_csv, capsys):
        code = main(["graph", "--data", walk_csv,
                     "--stage", f"band={query_file}",
                     "--stage", f"bandpairs={pairs_query_file}",
                     "--engine", "spectre", "--k", "4",
                     "--scheduler", "roundrobin", "--verify",
                     "--param", "lowerLimit=40",
                     "--param", "upperLimit=60"])
        assert code == 0
        assert "OK: pipeline output identical" in capsys.readouterr().out

    def test_stage_required(self, walk_csv):
        with pytest.raises(SystemExit):
            main(["graph", "--data", walk_csv])

    def test_bad_stage_spec(self, walk_csv):
        with pytest.raises(SystemExit):
            main(["graph", "--data", walk_csv, "--stage", "oops"])
