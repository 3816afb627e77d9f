"""The unified DSConfig surface: every primitive accepts ``config=``,
the only tuning spelling; a per-kwarg tuning spelling is a TypeError,
and every registered op runs through its public ``ds_*`` function."""

import warnings

import numpy as np
import pytest

import repro.primitives
from repro import Pipeline
from repro.api import compact
from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.predicates import is_even, less_than
from repro.errors import LaunchError
from repro.primitives import (
    ds_compact_records,
    ds_copy_if,
    ds_erase_range,
    ds_insert_gap,
    ds_pad,
    ds_pad_to_alignment,
    ds_partition,
    ds_ragged_pad,
    ds_ragged_unpad,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
    ds_unique_by_key,
    ds_unpad,
    list_ops,
)

RNG = np.random.default_rng(7)
_M = RNG.integers(0, 50, (7, 19)).astype(np.float32)
_A = RNG.integers(0, 5, 700).astype(np.int64)
_KEYS = np.sort(RNG.integers(0, 40, 500)).astype(np.int32)

# Every ds_* primitive with a representative invocation and the tuning
# kwargs its old signature accepted as deprecated aliases (all of which
# now go through DSConfig only).
PRIMITIVES = [
    ("ds_pad", ds_pad, (_M, 3), {"fill": 0.0},
     {"wg_size": 32, "coarsening": 2, "race_tracking": True, "seed": 3}),
    ("ds_unpad", ds_unpad, (_M, 4), {},
     {"wg_size": 32, "coarsening": 2, "race_tracking": True, "seed": 3}),
    ("ds_remove_if", ds_remove_if, (_A, is_even()), {},
     {"wg_size": 32, "coarsening": 2, "reduction_variant": "tree",
      "scan_variant": "tree", "race_tracking": True, "seed": 3}),
    ("ds_copy_if", ds_copy_if, (_A, is_even()), {},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_stream_compact", ds_stream_compact, (_A, 0), {},
     {"wg_size": 32, "coarsening": 2, "race_tracking": True, "seed": 3}),
    ("ds_unique", ds_unique, (_A,), {},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_partition", ds_partition, (_A, is_even()), {"in_place": True},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_insert_gap", ds_insert_gap, (_A, 100, 30), {"fill": -1},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_erase_range", ds_erase_range, (_A, 100, 30), {},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_pad_to_alignment", ds_pad_to_alignment, (_M, 128), {"fill": 0.0},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_ragged_pad", ds_ragged_pad,
     (RNG.integers(0, 9, 60).astype(np.float32),
      np.array([10, 0, 25, 5, 20])), {"fill": 0.0},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_ragged_unpad", ds_ragged_unpad,
     (RNG.integers(0, 9, (5, 16)).astype(np.float32),
      np.array([10, 0, 12, 5, 16])), {},
     {"wg_size": 32, "coarsening": 2, "seed": 3}),
    ("ds_unique_by_key", ds_unique_by_key,
     (_KEYS, RNG.random(500).astype(np.float32)), {},
     {"wg_size": 32, "coarsening": 2, "race_tracking": True, "seed": 3}),
    ("ds_compact_records", ds_compact_records,
     (_A, {"x": RNG.random(700).astype(np.float32)}, less_than(3)), {},
     {"wg_size": 32, "coarsening": 2, "race_tracking": True, "seed": 3}),
]
IDS = [p[0] for p in PRIMITIVES]


class TestEveryPrimitive:
    @pytest.mark.parametrize("name,fn,args,kwargs,legacy", PRIMITIVES, ids=IDS)
    def test_accepts_config(self, name, fn, args, kwargs, legacy):
        cfg = DSConfig(**legacy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            r = fn(*args, config=cfg, **kwargs)
        assert r.output is not None

    @pytest.mark.parametrize("name,fn,args,kwargs,legacy", PRIMITIVES, ids=IDS)
    def test_tuning_kwargs_are_a_type_error(self, name, fn, args, kwargs,
                                            legacy):
        with pytest.raises(TypeError):
            fn(*args, **legacy, **kwargs)

    def test_registered_runner_is_the_public_function(self):
        for desc in list_ops():
            assert desc.runner is getattr(repro.primitives, desc.name)

    def test_pipeline_and_api_reject_tuning_kwargs(self):
        with pytest.raises(TypeError):
            Pipeline(wg_size=32)
        with pytest.raises(TypeError):
            compact(np.asarray([1.0, 0.0], dtype=np.float32), 0.0,
                    wg_size=32)


class TestDSConfig:
    def test_defaults(self):
        cfg = DSConfig()
        assert cfg.wg_size == 256
        assert cfg.coarsening is None
        assert cfg.reduction_variant == "tree"
        assert cfg.scan_variant == "tree"
        assert cfg.race_tracking is False
        assert cfg.backend is None
        assert cfg.seed == 0
        assert cfg == DEFAULT_CONFIG

    def test_frozen_and_hashable(self):
        cfg = DSConfig(wg_size=64)
        with pytest.raises(AttributeError):
            cfg.wg_size = 128
        assert len({cfg, DSConfig(wg_size=64), DSConfig()}) == 2

    def test_backend_shorthand_normalized(self):
        assert DSConfig(backend="vec") == DSConfig(backend="vectorized")
        assert DSConfig(backend="sim").backend == "simulated"

    @pytest.mark.parametrize("raw", ["compiled", "jit", "numba"])
    def test_removed_compiled_tier_rejected(self, raw):
        # The Numba tier is gone: each of its spellings takes the typed
        # unknown-backend path at every entry point, pointing at the
        # vectorized tier instead.
        import repro.api
        from repro.errors import ReproError

        with pytest.raises(LaunchError, match="removed.*'vectorized'"):
            DSConfig(backend=raw)
        with pytest.raises(ValueError, match="REPRO_BACKEND.*removed"):
            DSConfig.from_env({"REPRO_BACKEND": raw})
        x = np.asarray([1.0, 0.0, 2.0], dtype=np.float32)
        with pytest.raises(ReproError, match="removed.*'vectorized'"):
            repro.api.compact(x, 0, backend=raw)

    def test_validation(self):
        with pytest.raises(LaunchError):
            DSConfig(wg_size=0)
        with pytest.raises(LaunchError):
            DSConfig(coarsening=-1)
        with pytest.raises(LaunchError):
            DSConfig(backend="warp")

    def test_replace(self):
        cfg = DSConfig(wg_size=64).replace(coarsening=3)
        assert (cfg.wg_size, cfg.coarsening) == (64, 3)

    def test_from_env(self):
        env = {"REPRO_WG_SIZE": "128", "REPRO_COARSENING": "4",
               "REPRO_REDUCTION_VARIANT": "shuffle",
               "REPRO_SCAN_VARIANT": "ballot",
               "REPRO_RACE_TRACKING": "1", "REPRO_BACKEND": "vec",
               "REPRO_SEED": "17"}
        cfg = DSConfig.from_env(env)
        assert cfg == DSConfig(wg_size=128, coarsening=4,
                               reduction_variant="shuffle",
                               scan_variant="ballot", race_tracking=True,
                               backend="vectorized", seed=17)

    def test_from_env_empty(self):
        assert DSConfig.from_env({}) == DSConfig()

    def test_from_env_unknown_backend_names_variable_and_tiers(self):
        with pytest.raises(ValueError) as exc:
            DSConfig.from_env({"REPRO_BACKEND": "cuda"})
        msg = str(exc.value)
        assert "REPRO_BACKEND" in msg and "'cuda'" in msg
        for tier in ("simulated", "vectorized"):
            assert tier in msg

    @pytest.mark.parametrize("var,raw", [
        ("REPRO_WG_SIZE", "big"),
        ("REPRO_WG_SIZE", "64.5"),
        ("REPRO_WG_SIZE", "0"),
        ("REPRO_WG_SIZE", "-32"),
        ("REPRO_COARSENING", "two"),
        ("REPRO_COARSENING", "0"),
        ("REPRO_REDUCTION_VARIANT", "butterfly"),
        ("REPRO_SCAN_VARIANT", "kogge"),
        ("REPRO_RACE_TRACKING", "maybe"),
        ("REPRO_RACE_TRACKING", "2"),
        ("REPRO_BACKEND", "warp"),
        ("REPRO_SEED", "0x11"),
    ])
    def test_from_env_malformed_value_names_the_variable(self, var, raw):
        env = {var: raw}
        with pytest.raises(ValueError) as exc:
            DSConfig.from_env(env)
        assert var in str(exc.value)
        assert repr(raw) in str(exc.value)

    def test_from_env_bool_spellings(self):
        for raw, expected in [("1", True), ("true", True), ("YES", True),
                              ("on", True), ("0", False), ("false", False),
                              ("No", False), ("off", False)]:
            cfg = DSConfig.from_env({"REPRO_RACE_TRACKING": raw})
            assert cfg.race_tracking is expected, raw

    def test_from_env_blank_values_ignored(self):
        env = {"REPRO_WG_SIZE": "  ", "REPRO_BACKEND": ""}
        assert DSConfig.from_env(env) == DSConfig()
