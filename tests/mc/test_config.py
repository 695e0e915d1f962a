"""CheckerConfig: validation, round-trips, CLI wiring, no legacy shims."""

import argparse
import dataclasses
import json
import warnings

import pytest

from repro.errors import ConfigError, ReproError
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
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

    @pytest.mark.parametrize("method,params,match", [
        ("contraction", {"k1": 0, "k2": 4}, "k1 must be an integer >= 1"),
        ("contraction", {"k1": 4, "k2": 0}, "k2 must be an integer >= 1"),
        ("hybrid", {"k2": 2.5}, "k2 must be an integer >= 1"),
        ("hybrid", {"k1": None}, "k1 must be an integer >= 1"),
        ("addition", {"k": "two"}, "k must be an integer >= 0"),
        ("addition", {"k": -1}, "k must be an integer >= 0"),
        ("addition", {"k": True}, "k must be an integer >= 0"),
        ("contraction", {"order_policy": "fast"}, "order_policy"),
        ("hybrid", {"order_policy": None}, "order_policy")])
    def test_bad_method_param_values_rejected(self, method, params,
                                              match):
        # rejected at construction, not at the first image
        with pytest.raises(ConfigError, match=match):
            CheckerConfig(method=method, method_params=params)

    @pytest.mark.parametrize("method,params", [
        ("addition", {"k": 0}),
        ("contraction", {"k1": 1, "k2": 1}),
        ("hybrid", {"k": 2, "k1": 3, "k2": 5})])
    def test_boundary_method_param_values_accepted(self, method, params):
        assert CheckerConfig(method=method,
                             method_params=params).method_params == params

    @pytest.mark.parametrize("method", ["contraction", "hybrid"])
    def test_fold_order_is_not_a_parameter(self, method):
        # the block fold order is worked out from the circuit, so no
        # method takes it, whatever an older config says
        params = {"order_policy": "greedy"}
        with pytest.raises(ConfigError, match="order_policy"):
            CheckerConfig(method=method, method_params=params)
        with pytest.raises(ConfigError, match="order_policy"):
            CheckerConfig.from_dict({"method": method,
                                     "method_params": params})

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

    def test_from_dict_rejects_bad_method_param_values(self):
        with pytest.raises(ConfigError, match="k1 must be"):
            CheckerConfig.from_dict({"method": "contraction",
                                     "method_params": {"k1": 0, "k2": 4}})

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

    def test_bad_flag_values_rejected(self):
        with pytest.raises(ConfigError, match="k must be"):
            CheckerConfig.from_cli_args(_cli_args(method="addition", k=-1))
        with pytest.raises(ConfigError, match="k1 must be"):
            CheckerConfig.from_cli_args(_cli_args(k1=0))
        with pytest.raises(ConfigError, match="k2 must be"):
            CheckerConfig.from_cli_args(_cli_args(method="hybrid", k2=0))

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

    def test_checker_config_is_repro_error(self):
        # callers catching the package base class keep working
        with pytest.raises(ReproError):
            CheckerConfig(backend="nonsense")
