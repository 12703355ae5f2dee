"""Tests for the parallel sweep, engines, plan cache and progress."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import BASELINE, OptConfig, PlanCache, enumerate_configs
from repro.graphs import rmat_graph, road_network
from repro.graphs.inputs import StudyInput
from repro.study import (
    PhaseTimer,
    StudyConfig,
    collect_traces,
    format_duration,
    run_study,
)


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    """2 apps x 2 inputs x 2 chips x 12 configurations."""
    road = road_network(12, 12, seed=9, name="p-road")
    rmat = rmat_graph(7, edge_factor=8, seed=9, name="p-rmat")
    return StudyConfig(
        apps=[get_application("bfs-wl"), get_application("sssp-nf")],
        inputs={
            "p-road": StudyInput(
                name="p-road",
                input_class="road",
                description="parallel test road",
                _builder=lambda: road,
            ),
            "p-rmat": StudyInput(
                name="p-rmat",
                input_class="social",
                description="parallel test rmat",
                _builder=lambda: rmat,
            ),
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[::8],
    )


@pytest.fixture(scope="module")
def serial_dataset(tiny_config):
    return run_study(tiny_config, jobs=1, engine="batch")


class TestParallelDeterminism:
    def test_jobs4_identical_to_jobs1(self, tiny_config, serial_dataset):
        parallel = run_study(tiny_config, jobs=4, engine="batch")
        assert parallel == serial_dataset
        # Same table *and* same insertion order as the serial sweep.
        assert parallel.tests == serial_dataset.tests
        assert [c.key() for c in parallel.configs] == [
            c.key() for c in serial_dataset.configs
        ]

    def test_scalar_engine_identical(self, tiny_config, serial_dataset):
        assert run_study(tiny_config, engine="scalar") == serial_dataset

    def test_parallel_scalar_engine_identical(self, tiny_config, serial_dataset):
        assert (
            run_study(tiny_config, jobs=2, engine="scalar") == serial_dataset
        )

    def test_precollected_traces_identical(self, tiny_config, serial_dataset):
        traces = collect_traces(tiny_config)
        assert run_study(tiny_config, traces=traces) == serial_dataset

    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_study(tiny_config, engine="gpu")

    def test_non_positive_jobs_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_study(tiny_config, jobs=0)


@st.composite
def fuzzed_studies(draw) -> StudyConfig:
    """A random tiny StudyConfig for differential jobs fuzzing."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    app_names = draw(
        st.lists(
            st.sampled_from(("bfs-wl", "pr-topo", "sssp-nf")),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    chip_names = draw(
        st.lists(
            st.sampled_from(("GTX1080", "MALI", "R9")),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    log_nodes = draw(st.integers(min_value=4, max_value=6))
    stride = draw(st.integers(min_value=19, max_value=48))
    repetitions = draw(st.integers(min_value=1, max_value=3))
    graph = rmat_graph(log_nodes, edge_factor=6, seed=seed, name=f"fj-{seed}")
    return StudyConfig(
        apps=[get_application(name) for name in app_names],
        inputs={
            graph.name: StudyInput(
                name=graph.name,
                input_class="social",
                description="fuzzed rmat",
                _builder=lambda: graph,
            )
        },
        chips=[get_chip(name) for name in chip_names],
        configs=enumerate_configs()[::stride],
        repetitions=repetitions,
    )


class TestJobsFuzz:
    """Differential fuzzing: sharding never changes the dataset."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=fuzzed_studies())
    def test_jobs2_equals_jobs1_on_random_studies(self, config):
        assert run_study(config, jobs=2) == run_study(config, jobs=1)


class TestPlanCache:
    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        program = get_application("bfs-wl").program()
        chip = get_chip("R9")
        first = cache.get(program, chip, BASELINE)
        assert cache.get(program, chip, BASELINE) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_same_name_different_program_not_aliased(self):
        cache = PlanCache()
        chip = get_chip("R9")
        p1 = get_application("bfs-wl").program()
        p2 = get_application("bfs-wl").program()
        plan1 = cache.get(p1, chip, BASELINE)
        plan2 = cache.get(p2, chip, BASELINE)
        assert plan1.program is p1 and plan2.program is p2
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        program = get_application("bfs-wl").program()
        chip = get_chip("R9")
        configs = [BASELINE, OptConfig(sg=True), OptConfig(fg=8)]
        for cfg in configs:
            cache.get(program, chip, cfg)
        assert len(cache) == 2
        cache.get(program, chip, BASELINE)  # evicted -> recompiled
        assert cache.misses == 4

    def test_clear(self):
        cache = PlanCache()
        cache.get(get_application("bfs-wl").program(), get_chip("R9"), BASELINE)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestProgress:
    def test_skipped_pairs_reported(self):
        from repro.graphs import CSRGraph

        unweighted = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        cfg = StudyConfig(
            apps=[get_application("sssp-nf"), get_application("bfs-wl")],
            inputs={
                "uw": StudyInput(
                    name="uw",
                    input_class="random",
                    description="unweighted",
                    _builder=lambda: unweighted,
                )
            },
            chips=[get_chip("R9")],
            configs=[BASELINE],
        )
        messages = []
        collect_traces(cfg, progress=messages.append)
        skips = [m for m in messages if m.startswith("skipping")]
        assert skips == [
            "skipping sssp-nf on uw: requires edge weights but graph is "
            "unweighted"
        ]

    def test_run_study_progress_has_phase_timing(self, tiny_config):
        for jobs in (1, 2):
            messages = []
            run_study(tiny_config, progress=messages.append, jobs=jobs)
            assert any(
                m.startswith("collected ") and "traces in" in m
                for m in messages
            )
            assert any(
                m.startswith("priced ") and "measurements" in m
                for m in messages
            )
            # The pricing phase ticks once per shard as it is priced:
            # 24 shards, a note every 2, each but the last with an ETA.
            shards = [m for m in messages if " shards [" in m]
            assert len(shards) == 12
            assert shards[0].startswith("priced 2/24 shards [2/24, elapsed ")
            assert all("eta" in m for m in shards[:-1])
            assert "eta" not in shards[-1]
            assert not any(m.startswith("pricing on ") for m in messages)

    def test_phase_timer_decoration(self):
        out = []
        timer = PhaseTimer(out.append)
        timer.start("work", total=4)
        timer.note("step one")
        timer.tick(2)
        timer.note("step two")
        timer.finish("done")
        assert out[0].startswith("step one [0/4, elapsed ")
        assert "eta" not in out[0]
        assert out[1].startswith("step two [2/4, elapsed ")
        assert "eta" in out[1]
        assert out[2].startswith("done in ")

    def test_phase_timer_silent_without_emitter(self):
        timer = PhaseTimer(None)
        timer.start("work", total=1)
        timer.note("ignored")
        timer.finish("ignored")  # must not raise

    def test_format_duration(self):
        assert format_duration(0.44) == "0.4s"
        assert format_duration(59.94) == "59.9s"
        assert format_duration(125.0) == "2m05s"
        assert format_duration(-1.0) == "0.0s"
