"""FleetConfig: eager validation and REPRO_FLEET_* environment
construction that names the offending variable."""

import pytest

from repro.fleet.config import DEFAULT_FLEET_CONFIG, FleetConfig
from repro.serve.config import ServeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_FLEET_CONFIG.n_workers == 2
        assert DEFAULT_FLEET_CONFIG.min_workers <= \
            DEFAULT_FLEET_CONFIG.n_workers <= \
            DEFAULT_FLEET_CONFIG.max_workers

    def test_pool_bounds_must_bracket_n_workers(self):
        with pytest.raises(ValueError, match="min_workers <= n_workers"):
            FleetConfig(n_workers=5, min_workers=1, max_workers=4)

    def test_load_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="load_factor"):
            FleetConfig(load_factor=0.9)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            FleetConfig(n_workers=0)

    def test_tracing_needs_the_flight_ring(self):
        # Worker spans live in the servers' flight recorders.
        with pytest.raises(ValueError, match="flight_capacity"):
            FleetConfig(trace="spans", serve=ServeConfig(flight_capacity=0))
        assert FleetConfig(serve=ServeConfig(flight_capacity=0)).trace \
            == "off"

    def test_replace_returns_validated_copy(self):
        cfg = FleetConfig().replace(n_workers=3, max_workers=3)
        assert cfg.n_workers == 3
        assert FleetConfig().n_workers == 2  # original untouched
        with pytest.raises(ValueError):
            FleetConfig().replace(n_workers=99)


class TestFromEnv:
    def test_reads_every_fleet_variable(self):
        cfg = FleetConfig.from_env({
            "REPRO_FLEET_WORKERS": "3",
            "REPRO_FLEET_MIN_WORKERS": "2",
            "REPRO_FLEET_MAX_WORKERS": "6",
            "REPRO_FLEET_VNODES": "16",
            "REPRO_FLEET_LOAD_FACTOR": "1.5",
            "REPRO_FLEET_QUEUE_HIGH": "4",
            "REPRO_FLEET_P95_HIGH_MS": "100.5",
            "REPRO_FLEET_UP_AFTER": "1",
            "REPRO_FLEET_INCIDENT_DIR": "/tmp/incidents",
        })
        assert cfg.n_workers == 3
        assert cfg.min_workers == 2
        assert cfg.max_workers == 6
        assert cfg.vnodes == 16
        assert cfg.load_factor == 1.5
        assert cfg.queue_high == 4
        assert cfg.p95_high_ms == 100.5
        assert cfg.up_after == 1
        assert cfg.incident_dir == "/tmp/incidents"

    def test_empty_environment_gives_defaults(self):
        cfg = FleetConfig.from_env({})
        assert cfg.n_workers == DEFAULT_FLEET_CONFIG.n_workers

    def test_malformed_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_FLEET_WORKERS"):
            FleetConfig.from_env({"REPRO_FLEET_WORKERS": "three"})

    def test_out_of_range_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_FLEET_VNODES"):
            FleetConfig.from_env({"REPRO_FLEET_VNODES": "0"})

    def test_cross_field_error_names_the_variable(self):
        # The pool-bounds message names three fields; the one that came
        # from the environment must be named with its raw value.
        with pytest.raises(ValueError, match=r"^REPRO_FLEET_WORKERS='9': "
                                             r"FleetConfig needs min_workers"):
            FleetConfig.from_env({"REPRO_FLEET_WORKERS": "9"})
        with pytest.raises(ValueError) as exc:
            FleetConfig.from_env({"REPRO_FLEET_WORKERS": "3",
                                  "REPRO_FLEET_MAX_WORKERS": "2",
                                  "REPRO_FLEET_VNODES": "8"})
        msg = str(exc.value)
        assert "REPRO_FLEET_WORKERS='3'" in msg
        assert "REPRO_FLEET_MAX_WORKERS='2'" in msg
        assert "REPRO_FLEET_VNODES" not in msg

    def test_embedded_serve_config_reads_repro_serve_vars(self):
        cfg = FleetConfig.from_env({"REPRO_SERVE_BATCH_SIZE": "16"})
        assert cfg.serve.max_batch_size == 16
