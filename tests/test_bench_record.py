"""Guards on the committed session-throughput benchmark record.

`BENCH_session_throughput.json` is the repo's performance ledger: the
50k-scale acceptance row and the per-phase attribution must not silently
disappear when the benchmark is regenerated.  The same check runs in the
CI bench smoke (`bench_perf_session.py --quick`).
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_perf_session import (
        LARGE_N_SPEEDUP,
        LARGE_N_TRAIN,
        check_record,
    )
    from repro.obs import ENGINE_PHASES

    return check_record, ENGINE_PHASES, LARGE_N_TRAIN, LARGE_N_SPEEDUP


def load_record():
    return json.loads((REPO_ROOT / "BENCH_session_throughput.json").read_text())


class TestCommittedBenchRecord:
    def test_record_passes_shape_check(self):
        check_record, *_ = load_checker()
        assert check_record(load_record()) == []

    def test_phase_timing_keys_present_everywhere(self):
        _, phase_keys, *_ = load_checker()
        for entry in load_record()["results"]:
            for mode in ("scratch", "incremental"):
                phases = entry[mode]["phase_seconds"]
                for key in phase_keys:
                    assert key in phases, (entry["task"], entry["n_train"], mode, key)

    def test_large_n_row_present_and_fast_enough(self):
        _, _, large_n, min_speedup = load_checker()
        rows = [
            r
            for r in load_record()["results"]
            if r["task"] == "binary" and r["n_train"] == large_n
        ]
        assert rows, f"binary n_train={large_n} row missing from committed record"
        assert rows[0]["speedup"] >= min_speedup

    def test_target_row_not_regressed(self):
        record = load_record()
        target = record["target"]
        rows = [
            r
            for r in record["results"]
            if r["task"] == "binary" and r["n_train"] == target["n_train"]
        ]
        assert rows and rows[0]["speedup"] >= target["min_speedup"]

    def test_xl_ceiling_row_present(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import XL_N_TRAIN

        rows = [
            r
            for r in load_record()["results"]
            if r["task"] == "binary" and r["n_train"] == XL_N_TRAIN
        ]
        assert rows, f"binary n_train={XL_N_TRAIN} ceiling row missing"

    def test_every_row_reports_peak_rss(self):
        for entry in load_record()["results"]:
            assert isinstance(entry.get("peak_rss_mb"), (int, float)), (
                entry["task"],
                entry["n_train"],
            )
            assert entry["peak_rss_mb"] > 0

    def test_label_model_attribution_present_everywhere(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import LABEL_MODEL_KEYS

        for entry in load_record()["results"]:
            for mode in ("scratch", "incremental"):
                lm = entry[mode]["label_model"]
                for key in LABEL_MODEL_KEYS:
                    assert key in lm, (entry["task"], entry["n_train"], mode, key)
                assert set(lm["refits"]) <= {"warm", "cold"}
                assert sum(lm["em_iterations"].values()) > 0
                # scratch = every refit cold, by construction
                if mode == "scratch":
                    assert lm["refits"].get("warm", 0) == 0

    def test_xl_row_meets_sparse_cold_floor(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import XL_N_SPEEDUP, XL_N_TRAIN

        rows = [
            r
            for r in load_record()["results"]
            if r["task"] == "binary" and r["n_train"] == XL_N_TRAIN
        ]
        assert rows and rows[0]["speedup"] >= XL_N_SPEEDUP

    def test_incremental_scores_at_least_scratch_everywhere(self):
        for entry in load_record()["results"]:
            assert entry["score_gap"] >= 0, (entry["task"], entry["n_train"])

    def test_end_model_warm_refits_beat_scratch_at_50k(self):
        """The PR-7 lever: warm minibatch refits must keep the incremental
        end-model phase well under the scratch (full-refit) end-model
        phase at the 50k row.  (Formerly a <30%-of-incremental-wall-clock
        share guard; the sparse label-model cold path shrank the
        denominator, so the lever is now pinned against scratch's own
        end-model seconds — a ratio the label-model phase can't move.)"""
        rows = [
            r
            for r in load_record()["results"]
            if r["task"] == "binary" and r["n_train"] == 50_000
        ]
        assert rows
        inc_end = rows[0]["incremental"]["phase_seconds"]["end_model"]
        scratch_end = rows[0]["scratch"]["phase_seconds"]["end_model"]
        ratio = inc_end / scratch_end
        assert ratio < 0.60, f"incremental end_model {ratio:.1%} of scratch's"


class TestQuickModeCannotClobber:
    """`--quick` must never write over the committed full-sweep record."""

    def _args(self, output):
        import argparse

        return argparse.Namespace(
            sizes=[1_000, 10_000],
            mc_sizes=[1_000],
            iterations=30,
            output=output,
        )

    def test_default_output_redirected(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import apply_quick_mode

        committed = REPO_ROOT / "BENCH_session_throughput.json"
        args = self._args(str(committed))
        apply_quick_mode(args)
        assert Path(args.output).resolve() != committed.resolve()
        assert args.output.endswith(".quick.json")
        assert args.sizes == [1_000] and args.mc_sizes == [1_000]
        assert args.iterations == 10

    def test_explicit_committed_path_also_redirected(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import apply_quick_mode

        # A sneaky relative spelling of the committed path still redirects.
        committed = REPO_ROOT / "benchmarks" / ".." / "BENCH_session_throughput.json"
        args = self._args(str(committed))
        apply_quick_mode(args)
        assert args.output.endswith(".quick.json")

    def test_other_outputs_left_alone(self):
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.bench_perf_session import apply_quick_mode

        args = self._args("/tmp/somewhere_else.json")
        apply_quick_mode(args)
        assert args.output == "/tmp/somewhere_else.json"
