"""The loadtest harness: record schema gate + an end-to-end multi-client run."""

import copy
import json

import pytest

from repro.serve.loadtest import (
    LoadTestConfig,
    check_record,
    decide,
    run_loadtest,
    scrape_server_metrics,
)

VALID = {
    "benchmark": "serve_latency",
    "schema_version": 2,
    "quick": False,
    "machine": {"platform": "x", "python": "3", "cpu_count": 4},
    "config": {
        "clients": 4,
        "sessions_per_client": 2,
        "iterations": 6,
        "method": "snorkel",
        "dataset": "amazon",
        "scale": "tiny",
        "seed": 0,
    },
    "server": {"spawned": True, "snapshot_every": 4, "max_live": None, "idle_evict_seconds": None},
    "wall_seconds": 3.2,
    "sessions_total": 8,
    "sessions_per_second": 2.5,
    "commands_total": 64,
    "commands_per_second": 20.0,
    "errors": {"total": 0, "by_kind": {}},
    "latency_ms": {
        command: {"n": 8, "mean": 5.0, "p50": 4.0, "p99": 9.0, "max": 9.5}
        for command in ("create", "propose", "submit", "score")
    },
    "server_metrics": {
        "commands": {
            command: {
                "client_count": 8,
                "server_count": 8,
                "lost": 0,
                "p50_ms": 3.5,
                "p99_ms": 8.0,
                "transport_p50_ms": 0.5,
            }
            for command in ("create", "propose", "submit", "score")
        },
        "lost_commands_total": 0,
        "sessions": {"live": 8},
        "engine": {"phase_seconds": {"select": 0.4}},
    },
    "cold_start": {
        "sessions": 4,
        "wall_seconds": 0.5,
        "sum_touch_seconds": 1.6,
        "parallel_speedup": 3.2,
        "errors": 0,
    },
}


class TestCheckRecord:
    def test_valid_record_passes(self):
        assert check_record(copy.deepcopy(VALID)) == []

    def test_missing_keys_reported(self):
        record = copy.deepcopy(VALID)
        del record["latency_ms"]
        del record["errors"]
        problems = check_record(record)
        assert any("latency_ms" in p for p in problems)
        assert any("errors" in p for p in problems)

    def test_single_client_rejected(self):
        record = copy.deepcopy(VALID)
        record["config"]["clients"] = 1
        assert any("clients" in p for p in check_record(record))

    def test_command_errors_fail_the_gate(self):
        record = copy.deepcopy(VALID)
        record["errors"] = {"total": 3, "by_kind": {"submit:http_500": 3}}
        assert any("error" in p for p in check_record(record))

    def test_percentile_ordering_enforced(self):
        record = copy.deepcopy(VALID)
        record["latency_ms"]["propose"]["p99"] = 1.0  # below p50
        assert any("propose" in p for p in check_record(record))

    def test_missing_required_command_reported(self):
        record = copy.deepcopy(VALID)
        del record["latency_ms"]["submit"]
        assert any("submit" in p for p in check_record(record))

    def test_spawned_record_requires_cold_start(self):
        record = copy.deepcopy(VALID)
        record["cold_start"] = None
        assert any("cold_start" in p for p in check_record(record))
        record["server"]["spawned"] = False  # external target: no cold phase
        assert check_record(record) == []

    def test_spawned_record_requires_server_metrics(self):
        record = copy.deepcopy(VALID)
        record["server_metrics"] = None
        assert any("server_metrics" in p for p in check_record(record))
        record["server"]["spawned"] = False  # external target: scrape optional
        assert check_record(record) == []

    def test_lost_commands_fail_the_gate(self):
        record = copy.deepcopy(VALID)
        record["server_metrics"]["lost_commands_total"] = 2
        record["server_metrics"]["commands"]["propose"]["lost"] = 2
        problems = check_record(record)
        assert any("lost" in p for p in problems)

    def test_server_percentile_ordering_enforced(self):
        record = copy.deepcopy(VALID)
        record["server_metrics"]["commands"]["submit"]["p99_ms"] = 0.5  # < p50
        assert any("submit" in p for p in check_record(record))

    def test_stalled_propose_transport_fails_the_gate(self):
        record = copy.deepcopy(VALID)
        record["server_metrics"]["commands"]["propose"]["transport_p50_ms"] = 45.0
        assert any("transport" in p for p in check_record(record))

    def test_loopback_propose_transport_passes(self):
        record = copy.deepcopy(VALID)
        record["server_metrics"]["commands"]["propose"]["transport_p50_ms"] = 3.0
        assert check_record(record) == []

    def test_missing_transport_residual_reported(self):
        record = copy.deepcopy(VALID)
        del record["server_metrics"]["commands"]["propose"]["transport_p50_ms"]
        assert any("transport_p50_ms" in p for p in check_record(record))

    def test_record_is_json_serializable_shape(self):
        json.dumps(VALID)


class TestScrapeServerMetrics:
    def test_transport_is_client_p50_minus_server_p50(self):
        # Server: 4 propose requests, all in the (1 ms, 2.5 ms] bucket, so
        # the interpolated p50 is 1.75 ms; client p50 is 6.0 ms.
        exposition = "\n".join(
            [
                'repro_http_requests_total{command="propose",outcome="200"} 4',
                'repro_http_request_seconds_bucket{command="propose",le="0.001"} 0',
                'repro_http_request_seconds_bucket{command="propose",le="0.0025"} 4',
                'repro_http_request_seconds_bucket{command="propose",le="+Inf"} 4',
                'repro_http_request_seconds_count{command="propose"} 4',
                'repro_http_request_seconds_sum{command="propose"} 0.007',
                "",
            ]
        )
        scraped = scrape_server_metrics(
            exposition, {}, {"propose": [0.005, 0.006, 0.006, 0.009]}
        )
        entry = scraped["commands"]["propose"]
        assert entry["lost"] == 0
        assert entry["p50_ms"] == 1.75
        assert entry["transport_p50_ms"] == 4.25


class TestDecide:
    def test_deterministic_and_duplicate_free(self):
        proposal = {"dev_index": 3, "primitives": ["bb", "aaa", "cc"]}
        used = set()
        first = decide(proposal, used)
        assert first == ("aaa", 1 if len("aaa") % 2 == 0 else -1)
        used.add(first)
        second = decide(proposal, used)
        assert second[0] == "bb"
        assert decide({"dev_index": None, "primitives": []}, set()) is None

    def test_exhausted_primitives_decline(self):
        proposal = {"dev_index": 0, "primitives": ["ab"]}
        assert decide(proposal, {("ab", 1)}) is None


class TestConfigValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            LoadTestConfig(clients=0)
        with pytest.raises(ValueError):
            LoadTestConfig(sessions_per_client=0)
        with pytest.raises(ValueError):
            LoadTestConfig(iterations=0)


class TestEndToEnd:
    def test_multi_client_run_produces_valid_record(self, tmp_path):
        """Two real client threads against a spawned server over real HTTP;
        the record must pass its own schema gate with zero errors."""
        config = LoadTestConfig(
            clients=2, sessions_per_client=1, iterations=3, quick=True
        )
        record = run_loadtest(config, log=lambda *_: None)
        assert check_record(record) == []
        assert record["sessions_total"] == 2
        assert record["errors"]["total"] == 0
        assert record["cold_start"]["sessions"] == 2
        # propose count = clients * sessions * iterations
        assert record["latency_ms"]["propose"]["n"] == 6
