"""ServeConfig: validation and environment parsing.

The serving knobs must fail fast and name the offending field (or the
``REPRO_SERVE_*`` variable a bad value arrived through) — an operator
tuning a service should never discover a typo as a deep runtime error.
"""

import pytest

from repro.serve import DEFAULT_SERVE_CONFIG, ServeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ServeConfig()
        assert cfg == DEFAULT_SERVE_CONFIG
        assert cfg.max_batch_size >= 1
        assert cfg.default_deadline_ms is None

    def test_replace(self):
        cfg = ServeConfig().replace(max_batch_size=16, max_wait_ms=0.0)
        assert (cfg.max_batch_size, cfg.max_wait_ms) == (16, 0.0)
        assert ServeConfig().max_batch_size == 8  # original untouched

    @pytest.mark.parametrize("field_name,bad", [
        ("max_batch_size", 0),
        ("max_queue_depth", 0),
        ("num_workers", 0),
        ("breaker_threshold", 0),
        ("max_wait_ms", -1.0),
        ("max_retries", -1),
        ("retry_backoff_ms", -0.5),
        ("breaker_cooldown_ms", -1.0),
        ("default_deadline_ms", 0),
    ])
    def test_rejects_out_of_range(self, field_name, bad):
        with pytest.raises(ValueError, match=f"ServeConfig.{field_name}"):
            ServeConfig(**{field_name: bad})

    def test_zero_is_fine_where_meaningful(self):
        cfg = ServeConfig(max_wait_ms=0.0, max_retries=0,
                          retry_backoff_ms=0.0, breaker_cooldown_ms=0.0)
        assert cfg.max_retries == 0


class TestFromEnv:
    def test_empty_env_gives_defaults(self):
        assert ServeConfig.from_env({}) == ServeConfig()

    def test_reads_every_variable(self):
        cfg = ServeConfig.from_env({
            "REPRO_SERVE_BATCH_SIZE": "16",
            "REPRO_SERVE_WAIT_MS": "5.5",
            "REPRO_SERVE_QUEUE_DEPTH": "64",
            "REPRO_SERVE_WORKERS": "3",
            "REPRO_SERVE_DEADLINE_MS": "250",
            "REPRO_SERVE_RETRIES": "1",
            "REPRO_SERVE_BACKOFF_MS": "2.5",
            "REPRO_SERVE_BREAKER_THRESHOLD": "5",
            "REPRO_SERVE_BREAKER_COOLDOWN_MS": "100",
            "REPRO_SERVE_SEED": "7",
        })
        assert cfg == ServeConfig(
            max_batch_size=16, max_wait_ms=5.5, max_queue_depth=64,
            num_workers=3, default_deadline_ms=250.0, max_retries=1,
            retry_backoff_ms=2.5, breaker_threshold=5,
            breaker_cooldown_ms=100.0, seed=7)

    def test_blank_values_are_ignored(self):
        cfg = ServeConfig.from_env({"REPRO_SERVE_BATCH_SIZE": "  "})
        assert cfg.max_batch_size == ServeConfig().max_batch_size

    @pytest.mark.parametrize("var,raw", [
        ("REPRO_SERVE_BATCH_SIZE", "eight"),
        ("REPRO_SERVE_BATCH_SIZE", "3.5"),
        ("REPRO_SERVE_WAIT_MS", "soon"),
        ("REPRO_SERVE_WORKERS", "two"),
        ("REPRO_SERVE_BREAKER_COOLDOWN_MS", "x"),
    ])
    def test_malformed_value_names_the_variable(self, var, raw):
        with pytest.raises(ValueError, match=var):
            ServeConfig.from_env({var: raw})

    @pytest.mark.parametrize("var,raw", [
        ("REPRO_SERVE_BATCH_SIZE", "0"),
        ("REPRO_SERVE_WORKERS", "-1"),
        ("REPRO_SERVE_WAIT_MS", "-2"),
        ("REPRO_SERVE_DEADLINE_MS", "0"),
    ])
    def test_out_of_range_value_names_the_variable(self, var, raw):
        with pytest.raises(ValueError, match=var):
            ServeConfig.from_env({var: raw})


class TestObservabilityKnobs:
    def test_flight_env_vars(self):
        cfg = ServeConfig.from_env({
            "REPRO_SERVE_FLIGHT_CAPACITY": "128",
            "REPRO_SERVE_INCIDENT_DIR": "/tmp/incidents",
            "REPRO_SERVE_INCIDENT_COOLDOWN_MS": "500",
            "REPRO_SERVE_SLO_MS": "25.0",
            "REPRO_SERVE_EVENT_LOG": "/tmp/serve.log.jsonl",
        })
        assert cfg.flight_capacity == 128
        assert cfg.incident_dir == "/tmp/incidents"
        assert cfg.incident_cooldown_ms == 500.0
        assert cfg.slo_ms == 25.0
        assert cfg.event_log == "/tmp/serve.log.jsonl"

    def test_defaults_keep_dumping_and_log_off(self):
        cfg = ServeConfig()
        assert cfg.flight_capacity == 4096
        assert cfg.incident_dir is None
        assert cfg.event_log is None
        assert cfg.slo_ms is None

    def test_flight_capacity_zero_is_allowed(self):
        assert ServeConfig(flight_capacity=0).flight_capacity == 0

    def test_event_log_needs_the_flight_recorder(self):
        # The event log is the recorder's file sink: no ring, no log.
        with pytest.raises(ValueError, match="flight_capacity=0"):
            ServeConfig(event_log="/tmp/serve.log.jsonl",
                        flight_capacity=0)
        with pytest.raises(ValueError, match="REPRO_SERVE_EVENT_LOG"):
            ServeConfig.from_env({
                "REPRO_SERVE_EVENT_LOG": "/tmp/serve.log.jsonl",
                "REPRO_SERVE_FLIGHT_CAPACITY": "0"})

    @pytest.mark.parametrize("var,raw", [
        ("REPRO_SERVE_FLIGHT_CAPACITY", "-1"),
        ("REPRO_SERVE_SLO_MS", "0"),
        ("REPRO_SERVE_INCIDENT_COOLDOWN_MS", "-5"),
    ])
    def test_out_of_range_observability_value(self, var, raw):
        with pytest.raises(ValueError, match=var):
            ServeConfig.from_env({var: raw})
