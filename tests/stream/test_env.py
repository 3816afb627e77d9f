"""The ``REPRO_SHARD_*`` environment knobs.

:meth:`DSConfig.from_env` — the only reader of the shard knobs — must
accept them and reject malformed values with an error *naming the
variable*: an operator reading the traceback should know which knob to
fix without opening the source.
"""

import pytest

from repro import DSConfig


class TestDSConfigShardKnobs:
    def test_defaults_when_unset(self):
        cfg = DSConfig.from_env(environ={})
        assert cfg.shard_elems == DSConfig().shard_elems
        assert cfg.shard_workers == 0

    def test_valid_values(self):
        cfg = DSConfig.from_env(environ={
            "REPRO_SHARD_ELEMS": "4096",
            "REPRO_SHARD_WORKERS": "3",
        })
        assert cfg.shard_elems == 4096
        assert cfg.shard_workers == 3

    def test_non_integer_elems_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_ELEMS"):
            DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "abc"})

    def test_zero_elems_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_ELEMS"):
            DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "0"})

    def test_negative_workers_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            DSConfig.from_env(environ={"REPRO_SHARD_WORKERS": "-1"})

    def test_non_integer_workers_names_variable(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            DSConfig.from_env(environ={"REPRO_SHARD_WORKERS": "two"})

    def test_whitespace_is_unset(self):
        cfg = DSConfig.from_env(environ={"REPRO_SHARD_ELEMS": "  "})
        assert cfg.shard_elems == DSConfig().shard_elems

