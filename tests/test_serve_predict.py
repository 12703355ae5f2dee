"""Tests for the online single-point predictor behind ``/v1/predict``."""

from __future__ import annotations

import pytest

from repro import StudyConfig, run_study
from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler.options import OptConfig
from repro.errors import PredictionError
from repro.graphs import study_inputs
from repro.serve import Predictor
from repro.study.dataset import TestCase

SCALE = 0.05


@pytest.fixture(scope="module")
def predictor() -> Predictor:
    return Predictor(scale=SCALE, repetitions=3)


class TestPrice:
    def test_matches_the_study_exactly(self, predictor):
        """An online prediction for a point the study measured returns
        exactly the study's numbers — same engine, same seeded noise."""
        inputs = {
            k: v
            for k, v in study_inputs(scale=SCALE).items()
            if k == "rmat-sim"
        }
        config = StudyConfig(
            apps=[get_application("bfs-wl")],
            inputs=inputs,
            chips=[get_chip("MALI")],
            configs=[OptConfig(), OptConfig.from_names(["sg", "wg"])],
            scale=SCALE,
        )
        dataset = run_study(config, progress=lambda m: None)
        test = TestCase("bfs-wl", "rmat-sim", "MALI")
        for cfg in config.configs:
            result = predictor.price("MALI", "bfs-wl", "rmat-sim", cfg)
            assert tuple(result["times_us"]) == dataset.times(test, cfg)

    def test_result_shape_and_determinism(self, predictor):
        cfg = OptConfig.from_names(["wg"])
        first = predictor.price("GTX1080", "pr-topo", "uniform-sim", cfg)
        again = predictor.price("GTX1080", "pr-topo", "uniform-sim", cfg)
        assert first == again  # memoised trace, seeded noise
        assert first["chip"] == "GTX1080"
        assert first["config"] == "wg"
        assert first["predicted_us"] > 0
        assert len(first["times_us"]) == first["repetitions"] == 3
        assert all(t > 0 for t in first["times_us"])

    def test_unknown_coordinates_raise(self, predictor):
        cfg = OptConfig()
        with pytest.raises(PredictionError, match="chip"):
            predictor.price("TPU9000", "bfs-wl", "rmat-sim", cfg)
        with pytest.raises(PredictionError, match="unknown application"):
            predictor.price("MALI", "bfs", "rmat-sim", cfg)
        with pytest.raises(PredictionError, match="unknown input"):
            predictor.price("MALI", "bfs-wl", "twitter2010", cfg)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            Predictor(repetitions=0)


class TestPriceMany:
    def test_batched_results_equal_per_item_price_exactly(self, predictor):
        """Coalescing is invisible in the numbers: one locked vectorized
        pass returns exactly what per-item ``price`` calls would."""
        points = [
            ("MALI", "bfs-wl", "rmat-sim", OptConfig()),
            ("GTX1080", "pr-topo", "uniform-sim", OptConfig.from_names(["wg"])),
            ("MALI", "bfs-wl", "rmat-sim", OptConfig.from_names(["sg", "wg"])),
        ]
        singles = [predictor.price(*p) for p in points]
        batched = predictor.price_many(points)
        assert batched == singles

    def test_errors_are_values_and_never_abort_the_batch(self, predictor):
        points = [
            ("MALI", "bfs-wl", "rmat-sim", OptConfig()),
            ("TPU9000", "bfs-wl", "rmat-sim", OptConfig()),
            ("MALI", "nope", "rmat-sim", OptConfig()),
            ("GTX1080", "pr-topo", "uniform-sim", OptConfig()),
        ]
        results = predictor.price_many(points)
        assert isinstance(results[0], dict)
        assert isinstance(results[1], PredictionError)
        assert "chip" in str(results[1])
        assert isinstance(results[2], PredictionError)
        assert "unknown application" in str(results[2])
        assert isinstance(results[3], dict)

    def test_empty_batch(self, predictor):
        assert predictor.price_many([]) == []

    def test_repeated_points_draw_no_noise(self, monkeypatch):
        """A point priced once is answered from its memo: the second
        pass hashes no seeds and draws no noise, and still returns
        exactly what a fresh predictor computes."""
        import repro.perfmodel.batch as batch_engine
        import repro.serve.predict as predict_module

        points = [
            ("MALI", "bfs-wl", "rmat-sim", OptConfig()),
            ("GTX1080", "pr-topo", "uniform-sim", OptConfig.from_names(["wg"])),
            ("MALI", "bfs-wl", "rmat-sim", OptConfig.from_names(["sg", "wg"])),
            ("TPU9000", "bfs-wl", "rmat-sim", OptConfig()),
        ]
        warm = Predictor(scale=SCALE, repetitions=3)
        warm.price_many(points)
        expected = Predictor(scale=SCALE, repetitions=3).price_many(points)

        def forbidden(*args, **kwargs):
            raise AssertionError("a repeated point drew noise")

        monkeypatch.setattr(predict_module, "measurement_seeds", forbidden)
        monkeypatch.setattr(batch_engine, "noise_from_seed", forbidden)
        again = warm.price_many(points + points[:1])
        assert again[:3] == expected[:3]
        assert again[4] == expected[0]
        assert isinstance(again[3], PredictionError)
        assert str(again[3]) == str(expected[3])
        # Each answer is its own dict: a caller mutating one cannot
        # change what the memo returns next.
        again[0]["times_us"].append(0.0)
        assert warm.price_many(points[:1]) == expected[:1]


class TestParseConfig:
    def test_accepts_dataset_key_syntax(self):
        assert Predictor.parse_config("baseline") == OptConfig()
        cfg = Predictor.parse_config("wg+sg")
        assert cfg.key() == "sg+wg"

    @pytest.mark.parametrize("bad", ["", None, 7, "warp9", "wg++sg"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(PredictionError):
            Predictor.parse_config(bad)
