"""CheckerConfig: validation, round-trips, CLI wiring, no legacy shims."""

import argparse
import dataclasses
import json
import warnings

import pytest

from repro.errors import ConfigError, ReproError
from repro.mc.backends import make_backend
from repro.mc.checker import ModelChecker
from repro.mc.config import BACKENDS, CheckerConfig
from repro.systems import models


class TestValidation:
    def test_defaults_are_valid(self):
        config = CheckerConfig()
        assert config.backend == "tdd"
        assert config.method == "contraction"

    @pytest.mark.parametrize("field,value", [
        ("backend", "quantum-annealer"), ("method", "nonsense"),
        ("strategy", "nonsense")])
    def test_unknown_names_rejected(self, field, value):
        # a strategy other than the two legacy names is still an
        # unknown field
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict({field: value})

    def test_method_param_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            CheckerConfig(method="basic", method_params={"k1": 4})
        with pytest.raises(ConfigError, match="contraction"):
            # the error names the methods the parameter belongs to
            CheckerConfig(method="addition", method_params={"k1": 4})

    def test_unknown_method_param_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            CheckerConfig(method="contraction",
                          method_params={"granularity": 3})

    def test_valid_method_params_accepted(self):
        config = CheckerConfig(method="hybrid",
                               method_params={"k": 1, "k1": 2, "k2": 2})
        assert config.method_params == {"k": 1, "k1": 2, "k2": 2}

    def test_six_fields(self):
        assert [f.name for f in dataclasses.fields(CheckerConfig)] == [
            "backend", "method", "method_params", "max_qubits",
            "direction", "bound"]

    @pytest.mark.parametrize("knob,value", [("driver", "sequential"),
                                            ("jobs", 2),
                                            ("strategy", "sliced"),
                                            ("slice_depth", 2)])
    def test_removed_knobs_are_not_fields(self, knob, value):
        # one fixpoint schedule and one contraction path: there is no
        # schedule, worker-pool width or slicing left to configure
        with pytest.raises(TypeError):
            CheckerConfig(**{knob: value})

    def test_bad_jobs_value_rejected(self):
        # a stored jobs key loads only with a value the worker pool
        # once accepted (see TestRoundTrips for the accepted ones)
        for jobs in (0, -1, True, "2", 2.0):
            with pytest.raises(ConfigError, match="unknown"):
                CheckerConfig.from_dict({"jobs": jobs})

    def test_dense_rejects_tdd_only_options(self):
        # the regression for the old silent-drop behaviour: tdd knobs
        # with the dense backend must raise, not vanish
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig(backend="dense", method="basic")
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig(backend="dense",
                          method_params={"k1": 4, "k2": 4})

    def test_dense_accepts_max_qubits(self):
        assert CheckerConfig(backend="dense", max_qubits=8).max_qubits == 8

    def test_tdd_rejects_max_qubits(self):
        with pytest.raises(ConfigError, match="dense-only"):
            CheckerConfig(max_qubits=8)

    def test_frozen(self):
        config = CheckerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.method = "basic"

    def test_method_params_copied_not_shared(self):
        params = {"k1": 2, "k2": 2}
        config = CheckerConfig(method_params=params)
        params["k1"] = 99
        assert config.method_params["k1"] == 2

    def test_replace_revalidates(self):
        config = CheckerConfig(method="addition", method_params={"k": 2})
        with pytest.raises(ConfigError):
            config.replace(method="basic")
        assert config.replace(method_params={"k": 3}).method_params == \
            {"k": 3}


class TestRoundTrips:
    CONFIGS = [
        CheckerConfig(),
        CheckerConfig(method="addition", method_params={"k": 2}),
        CheckerConfig(method="contraction",
                      method_params={"k1": 2, "k2": 3}),
        CheckerConfig(backend="dense", max_qubits=10),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_json_round_trip(self, config):
        assert CheckerConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_dict_round_trip(self, config):
        assert CheckerConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict({"backend": "tdd", "metod": "basic"})

    @pytest.mark.parametrize("legacy", [True, False])
    def test_from_dict_drops_legacy_batched_flag(self, legacy):
        # configs written while the batched weight kernel existed
        data = dict(CheckerConfig(method="basic").as_dict(),
                    batched=legacy)
        assert CheckerConfig.from_dict(data) == \
            CheckerConfig(method="basic")

    def test_from_dict_rejects_non_bool_batched(self):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict({"method": "basic", "batched": "yes"})

    @pytest.mark.parametrize("driver", ["sequential", "opsharded",
                                        "frontier"])
    def test_from_dict_drops_legacy_driver(self, driver):
        # configs written while three fixpoint schedules existed; all
        # three reach the same space, and frontier is the one left
        data = dict(CheckerConfig(method="basic").as_dict(), driver=driver)
        assert CheckerConfig.from_dict(data) == \
            CheckerConfig(method="basic")

    @pytest.mark.parametrize("driver", ["nonsense", None, 1])
    def test_from_dict_rejects_other_driver(self, driver):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict({"method": "basic", "driver": driver})

    @pytest.mark.parametrize("jobs", [None, 1, 4])
    def test_from_dict_drops_legacy_jobs(self, jobs):
        # configs written while the sliced strategy had a worker pool;
        # its results were identical for every width
        data = dict(CheckerConfig().as_dict(), jobs=jobs)
        assert CheckerConfig.from_dict(data) == CheckerConfig()

    @pytest.mark.parametrize("strategy", ["monolithic", "sliced"])
    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_from_dict_drops_legacy_strategy(self, strategy, depth):
        # configs written while contractions could be cofactor-split;
        # every contraction is now one kernel call
        text = json.dumps(dict(CheckerConfig(method="basic").as_dict(),
                               strategy=strategy, slice_depth=depth))
        assert CheckerConfig.from_json(text) == \
            CheckerConfig(method="basic")

    @pytest.mark.parametrize("data", [
        {"strategy": "nonsense"}, {"strategy": None},
        {"slice_depth": -1}, {"slice_depth": True},
        {"slice_depth": "2"}, {"slice_depth": 2.0}])
    def test_from_dict_rejects_other_strategy(self, data):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict(data)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            CheckerConfig.from_json("[1, 2]")

    def test_describe_mentions_the_knobs(self):
        text = CheckerConfig(direction="backward", bound=3,
                             method_params={"k1": 2, "k2": 2}).describe()
        assert "direction=backward" in text
        assert "bound=3" in text
        assert "k1=2" in text
        dense = CheckerConfig(backend="dense").describe()
        assert "backend=dense" in dense
        assert "method" not in dense  # did not take effect — not echoed


def _cli_args(**overrides) -> argparse.Namespace:
    """A namespace mirroring the CLI defaults for engine flags."""
    defaults = dict(backend="tdd", method="contraction", k=1, k1=4, k2=4)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestFromCliArgs:
    def test_defaults(self):
        config = CheckerConfig.from_cli_args(_cli_args())
        assert config.backend == "tdd"
        assert config.method_params == {"k1": 4, "k2": 4}

    def test_method_selects_its_params(self):
        config = CheckerConfig.from_cli_args(
            _cli_args(method="addition", k=3))
        assert config.method_params == {"k": 3}

    def test_dense_with_default_flags_is_clean(self):
        # `image ghz --backend dense` must keep working: flags still at
        # their argparse defaults are treated as unset
        config = CheckerConfig.from_cli_args(_cli_args(backend="dense"))
        assert config.backend == "dense"
        assert config.method_params == {}

    def test_dense_with_explicit_tdd_flags_raises(self):
        # the cli.py silent-parameter-drop bug, fixed: each of these
        # previously vanished without a trace
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig.from_cli_args(
                _cli_args(backend="dense", method="basic"))
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig.from_cli_args(_cli_args(backend="dense", k1=6))


class TestLegacyShims:
    """The pre-config keyword spellings are gone, not tolerated."""

    def test_model_checker_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            ModelChecker(models.grover_qts(3), method="contraction",
                         k1=2, k2=2)

    def test_model_checker_rejects_positional_method(self):
        with pytest.raises(ConfigError, match="CheckerConfig"):
            ModelChecker(models.ghz_qts(3), "basic")

    def test_model_checker_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ModelChecker(models.ghz_qts(3), CheckerConfig(method="basic"))

    def test_model_checker_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError):
            ModelChecker(models.ghz_qts(3), CheckerConfig(),
                         method="basic")

    def test_make_backend_legacy_name_rejected(self):
        with pytest.raises(ConfigError, match="CheckerConfig"):
            make_backend("tdd")

    def test_make_backend_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            backend = make_backend(CheckerConfig(method="basic"))
        assert backend.config.method == "basic"

    def test_make_backend_from_config(self):
        assert set(BACKENDS) == {"tdd", "dense"}
        assert make_backend(CheckerConfig()).name == "tdd"
        dense = make_backend(CheckerConfig(backend="dense", max_qubits=9))
        assert dense.name == "dense"
        assert dense.config.max_qubits == 9

    def test_make_backend_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError):
            make_backend(CheckerConfig(), method="basic")

    def test_tdd_backend_rejects_config_plus_kwargs(self):
        # a leftover legacy kwarg next to a config must not be
        # silently discarded
        from repro.mc.backends import TDDBackend
        with pytest.raises(TypeError):
            TDDBackend(CheckerConfig(method="basic"), jobs=4,
                       strategy="sliced")

    def test_checker_config_is_repro_error(self):
        # callers catching the package base class keep working
        with pytest.raises(ReproError):
            CheckerConfig(backend="nonsense")
