"""EvalConfig: validation, serialisation, and the None default."""

import pytest

from repro.eval.config import DEFAULT_KS, EvalConfig
from repro.eval.harness import resolve_config


class TestConfigObject:
    def test_defaults(self):
        config = EvalConfig()
        assert config.n_samples == 10
        assert config.repair_budget == 0
        assert config.ks == DEFAULT_KS

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EvalConfig().n_samples = 3

    def test_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            EvalConfig(n_samples=0)
        with pytest.raises(ValueError, match="n_test_vectors"):
            EvalConfig(n_test_vectors=0)
        with pytest.raises(ValueError, match="repair_budget"):
            EvalConfig(repair_budget=-1)

    def test_ks_list_coerced_to_tuple(self):
        assert EvalConfig(ks=[1, 2]).ks == (1, 2)

    def test_with_overrides(self):
        base = EvalConfig(seed=3)
        changed = base.with_overrides(repair_budget=2, n_samples=4)
        assert changed.repair_budget == 2
        assert changed.n_samples == 4
        assert changed.seed == 3
        assert base.repair_budget == 0  # original untouched

    def test_round_trip(self):
        config = EvalConfig(n_samples=4, temperature=0.5, seed=9,
                            repair_budget=3, model_name="m")
        again = EvalConfig.from_json(config.to_json())
        assert again == config

    def test_from_dict_ignores_unknown_and_schema(self):
        config = EvalConfig.from_dict({
            "schema": EvalConfig.schema, "n_samples": 2,
            "not_a_field": True})
        assert config.n_samples == 2

    def test_golden_bytes(self):
        assert EvalConfig(n_samples=2, seed=1).to_json() == (
            '{"ks": [1, 5, 10], "model_name": null, "n_samples": 2, '
            '"n_test_vectors": 32, "repair_budget": 0, "seed": 1, '
            '"temperature": 0.8}')


class TestResolveConfig:
    def test_plain_config_passthrough(self):
        config = EvalConfig(n_samples=3)
        assert resolve_config(config) is config

    def test_no_args_yields_defaults(self):
        assert resolve_config(None) == EvalConfig()
