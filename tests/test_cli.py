"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "enron"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["datasets", "--scale", "huge"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "nemo"
        assert args.dataset == "amazon"
        assert args.iterations == 50
        assert args.threshold == 0.5

    def test_replay_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "t.json"])


class TestSubcommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in ("amazon", "yelp", "imdb", "youtube", "sms", "vg"):
            assert name in out

    def test_run_prints_curve(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "amazon",
                "--scale", "tiny",
                "--method", "snorkel",
                "--iterations", "6",
                "--eval-every", "3",
                "--seeds", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "curve average" in out
        assert "method=snorkel" in out

    def test_compare_prints_table(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "amazon",
                "--scale", "tiny",
                "--methods", "snorkel", "random",
                "--iterations", "5",
                "--seeds", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snorkel" in out and "random" in out

    def test_record_and_replay_round_trip(self, tmp_path, capsys):
        transcript_path = tmp_path / "session.json"
        code = main(
            [
                "run",
                "--dataset", "amazon",
                "--scale", "tiny",
                "--method", "snorkel",
                "--iterations", "8",
                "--seeds", "1",
                "--save-transcript", str(transcript_path),
            ]
        )
        assert code == 0
        data = json.loads(transcript_path.read_text())
        assert data["dataset_name"] == "amazon"
        assert data["metadata"]["method"] == "snorkel"

        code = main(
            [
                "replay",
                str(transcript_path),
                "--dataset", "amazon",
                "--scale", "tiny",
                "--contextualize",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline=contextualized" in out
        assert "test score" in out

    def test_replay_with_gamma_uses_context_sequence(self, tmp_path, capsys):
        transcript_path = tmp_path / "session.json"
        main(
            [
                "run",
                "--dataset", "amazon",
                "--scale", "tiny",
                "--method", "snorkel",
                "--iterations", "6",
                "--seeds", "1",
                "--save-transcript", str(transcript_path),
            ]
        )
        code = main(
            [
                "replay",
                str(transcript_path),
                "--dataset", "amazon",
                "--scale", "tiny",
                "--gamma", "0.5",
            ]
        )
        assert code == 0
        assert "context-sequence(gamma=0.5)" in capsys.readouterr().out

    def test_replay_with_majority_label_model(self, tmp_path, capsys):
        transcript_path = tmp_path / "session.json"
        main(
            [
                "run",
                "--dataset", "amazon",
                "--scale", "tiny",
                "--method", "snorkel",
                "--iterations", "6",
                "--seeds", "1",
                "--save-transcript", str(transcript_path),
            ]
        )
        code = main(
            [
                "replay",
                str(transcript_path),
                "--dataset", "amazon",
                "--scale", "tiny",
                "--label-model", "majority",
            ]
        )
        assert code == 0
        assert "label_model=majority" in capsys.readouterr().out


class TestSweepSubcommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.methods == ["nemo", "snorkel"]
        assert args.datasets == ["amazon"]
        assert args.jobs == 1
        assert args.out == "sweep_out"

    def test_sweep_runs_and_resumes(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--datasets", "youtube",
            "--methods", "random", "abstain",
            "--scale", "tiny",
            "--iterations", "6",
            "--eval-every", "3",
            "--seeds", "2",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert "ran 4 jobs, skipped 0" in out
        assert "youtube" in out

        # Re-running the identical sweep skips everything.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ran 0 jobs, skipped 4" in out

    def test_sweep_partial_run_exits_nonzero(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--datasets", "youtube",
            "--methods", "random",
            "--scale", "tiny",
            "--iterations", "4",
            "--eval-every", "2",
            "--seeds", "2",
            "--max-jobs", "1",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert "still pending" in capsys.readouterr().out

    def test_run_accepts_jobs_flag(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "youtube",
                "--scale", "tiny",
                "--method", "random",
                "--iterations", "4",
                "--eval-every", "2",
                "--seeds", "2",
                "--jobs", "2",
            ]
        )
        assert code == 0
        assert "curve average" in capsys.readouterr().out


def _assert_phase_breakdown(line: str) -> None:
    """The printed phase shares of a contextualized (Nemo) session add up.

    The four top-level phases partition compute, so their shares make
    100% (up to four roundings); ``contextualize`` runs inside
    ``label_model`` and is printed as a share of that phase instead.
    """
    import re

    parts = {
        m.group(1): (float(m.group(2)), int(m.group(3)), m.group(4))
        for m in re.finditer(r"(\w+)=([\d.]+)s \((\d+)%( of label_model)?\)", line)
    }
    top = ("select", "develop", "label_model", "end_model")
    assert set(parts) == set(top) | {"contextualize"}, line
    assert abs(sum(parts[p][1] for p in top) - 100) <= 2, line
    assert all(parts[p][2] is None for p in top), line
    seconds, share, of = parts["contextualize"]
    assert of == " of label_model", line
    assert 0 < share <= 100 and seconds <= parts["label_model"][0], line


class TestEnginePhaseBreakdown:
    def test_metrics_counts_contextualize_once(self, tmp_path, monkeypatch, capsys):
        from repro.serve import client as client_module
        from repro.serve.manager import SessionManager

        manager = SessionManager(tmp_path)
        manager.create("s", method="nemo", dataset="amazon", scale="tiny", seed=0)
        for _ in range(6):
            manager.step("s")

        class InProcessClient:
            def __init__(self, url, timeout=None):
                pass

            def statusz(self):
                return manager.statusz()

            def close(self):
                pass

        monkeypatch.setattr(client_module, "SessionClient", InProcessClient)
        assert main(["metrics", "http://127.0.0.1:1"]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if l.startswith("engine phases:")]
        _assert_phase_breakdown(line)

    def test_sweep_counts_contextualize_once(self, tmp_path, capsys):
        import re

        argv = [
            "sweep",
            "--datasets", "youtube",
            "--methods", "nemo",
            "--scale", "tiny",
            "--iterations", "6",
            "--eval-every", "3",
            "--seeds", "1",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if l.startswith("engine obs")]
        _assert_phase_breakdown(line)
        compute = float(re.search(r"([\d.]+)s compute", line).group(1))
        printed = re.findall(r"(select|develop|label_model|end_model)=([\d.]+)s", line)
        assert compute == pytest.approx(sum(float(s) for _, s in printed), abs=0.03)
