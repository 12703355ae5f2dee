"""Golden equivalence tests: the batch engine vs. the scalar oracle.

The vectorized pricing path must be *bit-identical* to the scalar
reference — every comparison here is exact float equality, never
approximate.  The scalar path (:mod:`repro.perfmodel.simulate` /
:mod:`repro.perfmodel.cost`) stays the oracle; any future change that
breaks these tests is a change to the model, not an allowed
"tolerance" of the batch engine.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_application
from repro.chips import all_chips, get_chip
from repro.compiler import compile_program, enumerate_configs
from repro.errors import ExecutionError
from repro.graphs import rmat_graph, road_network
from repro.perfmodel import (
    block_seeds,
    estimate_runtime_us,
    estimate_runtime_us_batch,
    estimate_runtimes_us_batch,
    launch_cost,
    measure_repeats_us,
    measure_plans_us_batch,
    measure_repeats_us_batch,
    measure_traces_us_batch,
    measurement_prefix,
    measurement_seeds,
    noise_from_seed,
    noise_from_seeds,
    noisy_measurement_us,
    pcg64_states,
    price_plans_batch,
    price_trace_batch,
)
from repro.perfmodel.noise import (
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    _probe,
    _ziggurat_word,
)
from repro.runtime.trace import LaunchRecord, Trace
from repro.util import (
    fnv1a_extend,
    fnv1a_extend_array,
    fnv1a_fold,
    fnv1a_fold_array,
    fnv1a_state,
    stable_hash,
)


@pytest.fixture(scope="module")
def traced_runs():
    """(app, trace) pairs covering worklist, frontier and topology apps."""
    road = road_network(14, 14, seed=11, name="eq-road")
    rmat = rmat_graph(8, edge_factor=8, seed=11, name="eq-rmat")
    pairs = []
    for app_name in ("bfs-wl", "sssp-nf", "pr-topo"):
        app = get_application(app_name)
        for graph in (road, rmat):
            pairs.append((app, app.run(graph, source=0).trace))
    return pairs


class TestTraceArrays:
    def test_cached_on_trace(self, traced_runs):
        _, trace = traced_runs[0]
        assert trace.arrays() is trace.arrays()

    def test_cache_invalidated_by_append(self, traced_runs):
        _, trace = traced_runs[0]
        first = trace.arrays()
        record = trace.launches[-1]
        trace.add(record)
        try:
            second = trace.arrays()
            assert second is not first
            assert second.n_launches == first.n_launches + 1
        finally:
            trace.launches.pop()
            del trace._arrays_cache

    def test_groups_partition_the_launches(self, traced_runs):
        for _, trace in traced_runs:
            arrays = trace.arrays()
            seen = np.concatenate([g.indices for g in arrays.groups])
            assert sorted(seen.tolist()) == list(range(trace.n_launches))
            for group in arrays.groups:
                assert group.deg_hist.shape == (group.n, group.width)
                assert group.deg_hist.flags["C_CONTIGUOUS"]

    def test_summary_counts_match_trace(self, traced_runs):
        for _, trace in traced_runs:
            arrays = trace.arrays()
            inside = sum(1 for r in trace.launches if r.in_fixpoint)
            assert arrays.n_inside_fixpoint == inside
            assert arrays.n_outside_fixpoint == trace.n_launches - inside
            assert arrays.n_fixpoint_iterations == trace.n_fixpoint_iterations


class TestSeedScheme:
    """The FNV-1a prefix/extend split must reproduce stable_hash."""

    def test_split_equals_stable_hash(self):
        assert (
            fnv1a_extend(fnv1a_state("a", "b"), "c", 2)
            == stable_hash("a", "b", "c", 2)
        )

    def test_stepwise_fold_equals_stable_hash(self):
        point = fnv1a_fold(fnv1a_state("a", "b"), "c")
        assert point == fnv1a_state("a", "b", "c")
        assert fnv1a_extend(point, 2) == stable_hash("a", "b", "c", 2)

    def test_measurement_seeds_match_scalar_hash(self):
        chip = get_chip("MALI")
        prefix = measurement_prefix(chip, "bfs-wl", "eq-road")
        seeds = measurement_seeds(
            chip, "bfs-wl", "eq-road", "sg+fg8", 3, prefix=prefix
        )
        assert seeds == [
            stable_hash(chip.short_name, "bfs-wl", "eq-road", "sg+fg8", rep)
            for rep in range(3)
        ]

    def test_noise_from_seed_matches_noisy_measurement(self):
        chip = get_chip("GTX1080")
        seed = stable_hash(chip.short_name, "p", "g", "baseline", 1)
        assert noise_from_seed(123.5, chip, seed) == noisy_measurement_us(
            123.5, chip, "p", "g", "baseline", 1
        )


#: Seeds at the edges of the one- and two-word SeedSequence entropy.
_BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
_SEEDS = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40)


def _u64(seeds):
    return np.array(seeds, dtype=np.uint64)


#: Seeds whose standard normal leaves numpy's ziggurat fast path, from a
#: scan of seeds 0 .. 99,999 and 2**63 .. 2**63 + 99,999 (about 1.5 %
#: of each leave it): the tail strip (index 0), index 1 (numpy's
#: ``ki[1]`` is 0), and the wedge test accepting or rejecting.
_OFF_FAST_PATH = {
    "tail": [755, 1950, 2**63 + 3668, 2**63 + 13153],
    "index 1": [15, 163, 2**63 + 302, 2**63 + 796],
    "wedge accepts": [235, 282, 2**63 + 283, 2**63 + 308],
    "wedge rejects": [61, 257, 2**63 + 239, 2**63 + 319],
}


def _draw_case(seed):
    """Which ziggurat case numpy's ``standard_normal()`` takes for ``seed``."""
    raw = int(np.random.PCG64(seed).random_raw())
    idx = raw & 0xFF
    bit_generator = np.random.PCG64(seed)
    np.random.Generator(bit_generator).standard_normal()
    reference = np.random.PCG64(seed)
    used = 0
    while reference.state != bit_generator.state:
        reference.advance(1)
        used += 1
    if used == 1:
        return "fast"
    if idx == 0:
        return "tail"
    if idx == 1:
        return "index 1"
    return "wedge accepts" if used == 2 else "wedge rejects"


class TestArrayNoise:
    """The array noise path against numpy's own seeding and the scalar draw."""

    def _reference(self, true_us, chip, seeds):
        return [noise_from_seed(t, chip, s) for t, s in zip(true_us, seeds)]

    @settings(max_examples=60, deadline=None)
    @given(seeds=_SEEDS, data=st.data())
    def test_draws_equal_noise_from_seed(self, seeds, data):
        seeds = seeds + _BOUNDARY_SEEDS
        true_us = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e7),
                min_size=len(seeds),
                max_size=len(seeds),
            )
        )
        for chip in all_chips():
            got = noise_from_seeds(np.array(true_us), chip, _u64(seeds))
            assert got.tolist() == self._reference(true_us, chip, seeds)

    def test_seeds_below_two_to_the_32_need_no_own_path(self):
        seeds = np.random.default_rng(5).integers(0, 2**32, 500).tolist()
        seeds += _BOUNDARY_SEEDS
        true_us = [100.0 + i for i in range(len(seeds))]
        for chip in all_chips():
            got = noise_from_seeds(np.array(true_us), chip, _u64(seeds))
            assert got.tolist() == self._reference(true_us, chip, seeds)

    @settings(max_examples=60, deadline=None)
    @given(seeds=_SEEDS)
    def test_pcg64_states_equal_numpy_seeding(self, seeds):
        seeds = seeds + _BOUNDARY_SEEDS
        (state_hi, state_lo), (inc_hi, inc_lo) = pcg64_states(_u64(seeds))
        for i, seed in enumerate(seeds):
            expected = np.random.PCG64(seed).state["state"]
            state = int(state_hi[i]) << 64 | int(state_lo[i])
            inc = int(inc_hi[i]) << 64 | int(inc_lo[i])
            assert (state, inc) == (expected["state"], expected["inc"])

    @pytest.mark.parametrize("case", sorted(_OFF_FAST_PATH))
    def test_off_fast_path_draws_equal_noise_from_seed(self, case):
        seeds = _OFF_FAST_PATH[case]
        for seed in seeds:
            assert _draw_case(seed) == case
        # Mixed with fast-path seeds in one call, on every chip.
        seeds = seeds + list(range(100, 140))
        true_us = [50.0 + 7.0 * i for i in range(len(seeds))]
        for chip in all_chips():
            got = noise_from_seeds(np.array(true_us), chip, _u64(seeds))
            assert got.tolist() == self._reference(true_us, chip, seeds)

    def test_fast_path_bounds_never_exceed_numpy_ki(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for idx in range(256):
            # The smallest rabs off the fast path is numpy's ki[idx].
            low, high = -1, 2**52
            while high - low > 1:
                mid = (low + high) // 2
                if _probe(rng, _ziggurat_word(idx, mid))[1]:
                    low = mid
                else:
                    high = mid
            assert int(_ZIGGURAT_KI[idx]) <= high

    def test_wi_reproduces_every_index(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for idx in range(256):
            bound = int(_ZIGGURAT_KI[idx])
            for rabs in {1, 2**40 + 3, bound // 2, bound - 1}:
                if not 0 < rabs < bound:
                    continue
                z, fast = _probe(rng, _ziggurat_word(idx, rabs))
                assert fast
                assert z == rabs * _ZIGGURAT_WI[idx]
                z, _ = _probe(rng, _ziggurat_word(idx, rabs) | 0x100)
                assert z == -(rabs * _ZIGGURAT_WI[idx])
            # rabs == 1 is where wi was read, on or off the fast path.
            assert _probe(rng, _ziggurat_word(idx, 1))[0] == _ZIGGURAT_WI[idx]

    def test_block_seeds_equal_measurement_seeds(self):
        chip = get_chip("HD5500")
        keys = [cfg.key() for cfg in enumerate_configs()]
        seeds = block_seeds(chip, "bfs-wl", "eq-road", keys, 12)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            measurement_seeds(chip, "bfs-wl", "eq-road", key, 12)
            for key in keys
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        state=st.integers(min_value=0, max_value=2**64 - 1),
        parts=st.lists(st.one_of(st.text(), st.integers()), max_size=8),
    )
    def test_fold_array_equals_fnv1a_fold(self, state, parts):
        states = np.full(len(parts), state, dtype=np.uint64)
        assert fnv1a_fold_array(states, parts).tolist() == [
            fnv1a_fold(state, part) for part in parts
        ]
        assert fnv1a_extend_array(states, *parts).tolist() == [
            fnv1a_extend(state, *parts)
        ] * len(parts)

    def test_negative_true_runtime_rejected(self):
        with pytest.raises(ValueError):
            noise_from_seeds(
                np.array([1.0, -1.0]), get_chip("R9"), _u64([1, 2])
            )


class TestGoldenEquivalence:
    """Exact equality of the batch engine against the scalar oracle."""

    CHIPS = ("GTX1080", "R9", "MALI", "M4000", "HD5500", "IRIS")

    def _plans(self, app, chips, configs):
        program = app.program()
        return [
            compile_program(program, get_chip(c), cfg)
            for c in chips
            for cfg in configs
        ]

    def test_per_launch_components_identical(self, traced_runs):
        configs = enumerate_configs()[::7]  # a spread of the 96
        for app, trace in traced_runs:
            arrays = trace.arrays()
            for plan in self._plans(app, self.CHIPS[:3], configs):
                costs = price_trace_batch(plan, arrays)
                for i, record in enumerate(trace.launches):
                    kplan = plan.kernel_plan(record.kernel)
                    scalar = launch_cost(plan, kplan, record)
                    assert costs.scan_us[i] == scalar.scan_us
                    assert costs.edge_us[i] == scalar.edge_us
                    assert costs.barrier_us[i] == scalar.barrier_us
                    assert costs.local_us[i] == scalar.local_us
                    assert costs.atomic_us[i] == scalar.atomic_us
                    assert costs.total_us[i] == scalar.total_us

    def test_estimates_identical_all_configs(self, traced_runs):
        for app, trace in traced_runs:
            for plan in self._plans(app, self.CHIPS, enumerate_configs()[::5]):
                assert estimate_runtime_us_batch(
                    plan, trace.arrays()
                ) == estimate_runtime_us(plan, trace)

    def test_measurements_identical(self, traced_runs):
        for app, trace in traced_runs:
            for plan in self._plans(app, self.CHIPS[:3], enumerate_configs()[::9]):
                chip = plan.chip
                prefix = measurement_prefix(chip, trace.program, trace.graph)
                seeds = measurement_seeds(
                    chip, trace.program, trace.graph, plan.config.key(), 3,
                    prefix=prefix,
                )
                assert measure_repeats_us_batch(
                    plan, trace, 3, seeds=seeds
                ) == measure_repeats_us(plan, trace, 3)

    def test_program_mismatch_raises(self, traced_runs):
        app, _ = traced_runs[0]
        _, other_trace = traced_runs[-1]
        plan = self._plans(app, ("R9",), enumerate_configs()[:1])[0]
        with pytest.raises(ExecutionError):
            estimate_runtime_us_batch(plan, other_trace.arrays())

    def test_seed_count_mismatch_raises(self, traced_runs):
        app, trace = traced_runs[0]
        plan = self._plans(app, ("R9",), enumerate_configs()[:1])[0]
        with pytest.raises(ValueError):
            measure_repeats_us_batch(plan, trace, 3, seeds=[1, 2])

    def test_precomputed_true_us_shared(self, traced_runs):
        """Satellite: the estimate is priced once and reused verbatim."""
        app, trace = traced_runs[0]
        plan = self._plans(app, ("MALI",), enumerate_configs()[:1])[0]
        true_us = estimate_runtime_us(plan, trace)
        assert measure_repeats_us(
            plan, trace, 3, true_us=true_us
        ) == measure_repeats_us(plan, trace, 3)


class TestPlanAxis:
    """One pass over many plans equals one pass per plan."""

    def test_rows_equal_single_plan_passes(self, traced_runs):
        for app, trace in traced_runs[:3]:
            program = app.program()
            plans = [
                compile_program(program, get_chip("IRIS"), cfg)
                for cfg in enumerate_configs()[::11]
            ]
            block = price_plans_batch(plans, trace.arrays())
            assert block.total_us.shape == (len(plans), trace.n_launches)
            for i, plan in enumerate(plans):
                one = price_trace_batch(plan, trace.arrays())
                for name in ("scan_us", "edge_us", "barrier_us", "local_us",
                             "atomic_us", "total_us"):
                    assert np.array_equal(
                        getattr(block, name)[i], getattr(one, name)
                    ), name

    def test_block_measurements_equal_scalar(self, traced_runs):
        app, trace = traced_runs[1]
        program = app.program()
        plans = [
            compile_program(program, get_chip("MALI"), cfg)
            for cfg in enumerate_configs()[::13]
        ]
        assert measure_plans_us_batch(plans, trace, 3) == [
            measure_repeats_us(plan, trace, 3) for plan in plans
        ]

    def test_program_traces_in_one_call(self, traced_runs):
        app = traced_runs[0][0]
        traces = [trace for a, trace in traced_runs if a.name == app.name]
        plans = [
            compile_program(app.program(), get_chip("GTX1080"), cfg)
            for cfg in enumerate_configs()[::5]
        ]
        together = measure_traces_us_batch(plans, traces, 2)
        assert len(traces) == 2
        assert together == [
            measure_plans_us_batch(plans, trace, 2) for trace in traces
        ]
        assert together[1] == [
            measure_repeats_us(plan, traces[1], 2) for plan in plans
        ]
        assert measure_traces_us_batch([], traces) == [[], []]
        other = traced_runs[-1][1]  # another program's trace
        with pytest.raises(ExecutionError):
            measure_traces_us_batch(plans, [traces[0], other])

    def test_plans_must_share_a_chip(self, traced_runs):
        app, trace = traced_runs[0]
        program = app.program()
        cfg = enumerate_configs()[0]
        plans = [
            compile_program(program, get_chip("R9"), cfg),
            compile_program(program, get_chip("MALI"), cfg),
        ]
        with pytest.raises(ValueError, match="share a chip"):
            estimate_runtimes_us_batch(plans, trace.arrays())

    def test_no_plans_prices_nothing(self, traced_runs):
        _, trace = traced_runs[0]
        assert estimate_runtimes_us_batch([], trace.arrays()) == []


_PLAN_APPS = ("bfs-wl", "pr-topo", "sssp-nf")
_CHIP_BLOCKS: dict = {}


def _chip_block(app_name: str, chip_name: str):
    """The 96 compiled plans of one (application, chip) block, cached."""
    key = (app_name, chip_name)
    if key not in _CHIP_BLOCKS:
        program = get_application(app_name).program()
        chip = get_chip(chip_name)
        _CHIP_BLOCKS[key] = [
            compile_program(program, chip, cfg) for cfg in enumerate_configs()
        ]
    return _CHIP_BLOCKS[key]


@st.composite
def random_traces(draw) -> Trace:
    """A random trace of one study program: any mix of launch shapes."""
    program = get_application(draw(st.sampled_from(_PLAN_APPS))).program()
    kernels = [k.name for k in program.kernels]
    trace = Trace(program=program.name, graph="fuzzed")
    counts = st.integers(min_value=0, max_value=60)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        hist = tuple(draw(st.lists(counts, max_size=18)))
        expanded = sum(hist)
        in_fixpoint = draw(st.booleans())
        trace.add(
            LaunchRecord(
                kernel=draw(st.sampled_from(kernels)),
                iteration=draw(st.integers(0, 4)) if in_fixpoint else -1,
                in_fixpoint=in_fixpoint,
                active_items=expanded + draw(counts),
                expanded_items=expanded,
                edges=draw(st.integers(min_value=0, max_value=3000)),
                deg_hist=hist,
                pushes=draw(counts),
                contended_rmws=draw(st.integers(min_value=0, max_value=3)),
                uncontended_rmws=draw(counts),
                irregularity=draw(st.sampled_from((0.0, 0.3, 1.0))),
            )
        )
    return trace


class TestChipBlockFuzz:
    """A chip's full 96-configuration block in one pass, against the oracle."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=random_traces())
    def test_block_equals_scalar_estimates(self, trace):
        for chip_name in TestGoldenEquivalence.CHIPS:
            plans = _chip_block(trace.program, chip_name)
            assert any(plan.outlined for plan in plans)
            assert any(plan.config.fg is not None for plan in plans)
            assert estimate_runtimes_us_batch(plans, trace.arrays()) == [
                estimate_runtime_us(plan, trace) for plan in plans
            ]

    def test_blocks_cover_a_chip_without_subgroups(self):
        assert any(
            get_chip(name).sg_size == 1 for name in TestGoldenEquivalence.CHIPS
        )


_COMPONENTS = ("scan_us", "edge_us", "barrier_us", "local_us", "atomic_us",
               "total_us")


def _assert_rows_equal_single_passes(plans, trace):
    """``price_plans_batch`` row ``p`` == ``price_trace_batch(plans[p])``."""
    block = price_plans_batch(plans, trace.arrays())
    for i, plan in enumerate(plans):
        one = price_trace_batch(plan, trace.arrays())
        for name in _COMPONENTS:
            assert np.array_equal(getattr(block, name)[i], getattr(one, name)), (
                plan.config.label(), name
            )


def _edge_row_index(plans, kernel: str):
    from repro.perfmodel.batch import _Columns

    index = _Columns(plans, kernel).edge_index
    return list(range(len(plans))) if index is None else index.tolist()


class TestDistinctEdgeRows:
    """Inner-loop work is priced once per distinct row, then gathered.

    However a block's plans are chosen, ordered or repeated, each row
    stays exactly the plan's own one-plan pass.
    """

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        trace=random_traces(),
        picks=st.lists(st.integers(min_value=0, max_value=95), min_size=1,
                       max_size=24),
    )
    def test_any_subset_order_and_repeats(self, trace, picks):
        for chip_name in TestGoldenEquivalence.CHIPS:
            block = _chip_block(trace.program, chip_name)
            _assert_rows_equal_single_passes([block[i] for i in picks], trace)

    def test_full_block_has_24_distinct_rows(self, traced_runs):
        for chip_name in TestGoldenEquivalence.CHIPS:
            plans = _chip_block("bfs-wl", chip_name)
            kernel = next(
                k.name for k in plans[0].program.kernels if k.has_neighbor_loop
            )
            index = _edge_row_index(plans, kernel)
            # coop-cv and oitergb never reach the inner-loop work.
            assert sorted(set(index)) == list(range(24))
            for plan, row in zip(plans, index):
                twin = next(
                    other for other, other_row in zip(plans, index)
                    if other_row == row and other is not plan
                )
                assert (twin.config.wg, twin.config.sg, twin.config.fg,
                        twin.config.wg_size) == (plan.config.wg, plan.config.sg,
                                                 plan.config.fg,
                                                 plan.config.wg_size)

    def test_block_sharing_one_nested_parallelism_row(self, traced_runs):
        for app, trace in traced_runs:
            for chip_name in TestGoldenEquivalence.CHIPS:
                plans = [
                    plan for plan in _chip_block(app.name, chip_name)
                    if (plan.config.wg, plan.config.sg, plan.config.fg,
                        plan.config.wg_size) == (True, True, 8, 256)
                ]
                assert len(plans) == 4
                for kernel in plans[0].kernels:
                    assert _edge_row_index(plans, kernel) == [0, 0, 0, 0]
                _assert_rows_equal_single_passes(plans, trace)

    def test_live_shards_after_an_armed_fault(self, traced_runs):
        # A fault armed at shard 17 splits the block there, and a failed
        # shard leaves the block with a hole: price what is left.
        app, trace = traced_runs[1]
        for chip_name in TestGoldenEquivalence.CHIPS:
            block = _chip_block(app.name, chip_name)
            for live in (block[17:], block[:17] + block[18:], block[:1]):
                _assert_rows_equal_single_passes(live, trace)


# -- differential fuzzing ----------------------------------------------------

from repro.graphs.inputs import StudyInput  # noqa: E402
from repro.study import StudyConfig, run_study  # noqa: E402

_FUZZ_APPS = ("bfs-wl", "pr-topo", "sssp-nf")
_FUZZ_CHIPS = ("GTX1080", "MALI", "R9", "HD5500")


@st.composite
def small_studies(draw) -> StudyConfig:
    """A random tiny StudyConfig (1-2 apps x 1 input x 1-2 chips)."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    app_names = draw(
        st.lists(
            st.sampled_from(_FUZZ_APPS), min_size=1, max_size=2, unique=True
        )
    )
    chip_names = draw(
        st.lists(
            st.sampled_from(_FUZZ_CHIPS), min_size=1, max_size=2, unique=True
        )
    )
    log_nodes = draw(st.integers(min_value=4, max_value=6))
    offset = draw(st.integers(min_value=0, max_value=10))
    stride = draw(st.integers(min_value=17, max_value=48))
    repetitions = draw(st.integers(min_value=1, max_value=3))
    graph = rmat_graph(log_nodes, edge_factor=6, seed=seed, name=f"fz-{seed}")
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
        configs=enumerate_configs()[offset::stride],
        repetitions=repetitions,
    )


class TestEngineFuzz:
    """Differential fuzzing: both engines price any study identically."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=small_studies())
    def test_batch_equals_scalar_on_random_studies(self, config):
        assert run_study(config, engine="batch") == run_study(
            config, engine="scalar"
        )
