"""Tests for the compiler driver (program x chip x config -> plan)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips import all_chips, get_chip
from repro.apps import all_applications
from repro.compiler import (
    OptConfig,
    PlanCache,
    compile_block,
    compile_program,
    enumerate_configs,
)
from repro.dsl import fixpoint_program, relax_kernel, topology_kernel, phased_program, Kernel, IterationSpace, Store
from repro.errors import CompileError, ForwardProgressError, InvalidConfigError


@pytest.fixture
def worklist_program():
    return fixpoint_program("p", [relax_kernel("relax", "dist")])


@pytest.fixture
def straightline_program():
    k = Kernel("once", IterationSpace.ALL_NODES, ops=[Store("x")])
    return phased_program("q", [k])


class TestCompileAllCombinations:
    def test_every_config_compiles_on_every_chip(self, worklist_program):
        """The full study sweep must be compilable everywhere."""
        for chip in all_chips():
            for config in enumerate_configs():
                plan = compile_program(worklist_program, chip, config)
                assert plan.kernel_plan("relax").wg_size == config.wg_size

    def test_plan_kernel_lookup(self, worklist_program):
        plan = compile_program(worklist_program, get_chip("R9"), OptConfig())
        with pytest.raises(KeyError):
            plan.kernel_plan("missing")


class TestValidationOnce:
    def test_valid_program_is_validated_once(self, worklist_program, monkeypatch):
        from repro.compiler import pipeline

        calls = []
        real = pipeline.validate_program
        monkeypatch.setattr(
            pipeline, "validate_program", lambda p: calls.append(p) or real(p)
        )
        for config in enumerate_configs()[:4]:
            compile_program(worklist_program, get_chip("R9"), config)
            compile_program(worklist_program, get_chip("MALI"), config)
        assert calls == [worklist_program]

    def test_invalid_program_raises_on_every_compile(self):
        from repro.dsl import Invoke, Program
        from repro.errors import DSLError

        bad = Program("bad", [relax_kernel("k", "x")], [Invoke("missing")])
        for chip_name in ("R9", "R9", "MALI"):
            with pytest.raises(DSLError):
                compile_program(bad, get_chip(chip_name), OptConfig())


class TestOutlining:
    def test_outlines_fixpoint(self, worklist_program):
        plan = compile_program(
            worklist_program, get_chip("R9"), OptConfig(oitergb=True)
        )
        assert plan.outlined
        assert plan.outlined_workgroups > 0

    def test_outlined_launch_is_occupancy_safe(self, worklist_program):
        for chip in all_chips():
            plan = compile_program(worklist_program, chip, OptConfig(oitergb=True))
            assert plan.outlined_workgroups <= chip.occupancy(
                128, plan.max_local_mem_bytes
            )

    def test_straightline_program_not_outlined(self, straightline_program):
        plan = compile_program(
            straightline_program, get_chip("R9"), OptConfig(oitergb=True)
        )
        assert not plan.outlined

    def test_unschedulable_kernel_refused(self, worklist_program):
        from repro.ocl import CUResources

        tiny = get_chip("MALI").with_overrides(
            cu=CUResources(max_workgroups=4, max_threads=64, local_mem_bytes=64)
        )
        with pytest.raises((ForwardProgressError, CompileError)):
            compile_program(
                worklist_program, tiny, OptConfig(oitergb=True, coop_cv=True)
            )


class TestResourceLimits:
    def test_local_memory_overflow_rejected(self, worklist_program):
        from repro.ocl import CUResources

        chip = get_chip("IRIS").with_overrides(
            cu=CUResources(max_workgroups=16, max_threads=448, local_mem_bytes=1024)
        )
        with pytest.raises(CompileError):
            compile_program(
                worklist_program,
                chip,
                OptConfig(coop_cv=True, wg=True, sg=True, fg=8, wg_size=256),
            )

    def test_unsupported_wg_size_rejected(self, worklist_program):
        chip = get_chip("R9").with_overrides(max_wg_size=128)
        with pytest.raises(InvalidConfigError):
            compile_program(worklist_program, chip, OptConfig(wg_size=256))


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([c.short_name for c in all_chips()]),
        st.integers(min_value=0, max_value=95),
    )
    def test_compilation_is_pure(self, chip_name, config_index):
        program = fixpoint_program("p", [relax_kernel("relax", "dist")])
        chip = get_chip(chip_name)
        config = enumerate_configs()[config_index]
        a = compile_program(program, chip, config)
        b = compile_program(program, chip, config)
        assert a.kernels == b.kernels
        assert a.outlined == b.outlined
        assert a.outlined_workgroups == b.outlined_workgroups


def _reference_compile(program, chip, config):
    """Every pass, in pipeline order, for one configuration alone."""
    from repro.compiler.passes import (
        apply_coop_cv,
        apply_iteration_outlining,
        apply_nested_parallelism,
        apply_workgroup_size,
    )
    from repro.compiler.plan import ExecutablePlan, KernelPlan

    kernels = {}
    for kernel in program.kernels:
        plan = KernelPlan(
            kernel=kernel,
            wg_size=config.wg_size,
            sg_size=chip.sg_size if chip.supports_subgroups else 1,
        )
        plan = apply_workgroup_size(plan, chip, config)
        plan = apply_nested_parallelism(plan, chip, config)
        kernels[kernel.name] = apply_coop_cv(plan, chip, config)
    plan = ExecutablePlan(program=program, chip=chip, config=config, kernels=kernels)
    return apply_iteration_outlining(plan, chip, config)


def _oitergb_twins(plans):
    """(oitergb off, oitergb on) pairs of plans that differ only there."""
    by_config = {plan.config: plan for plan in plans}
    pairs = [
        (plan, by_config[replace(plan.config, oitergb=True)])
        for plan in plans
        if not plan.config.oitergb
    ]
    assert 2 * len(pairs) == len(plans)
    return pairs


class TestCompileBlock:
    """One block compile equals a compile per configuration."""

    def test_equals_per_config_compiles_everywhere(self):
        configs = enumerate_configs()
        for app in all_applications():
            program = app.program()
            for chip in all_chips():
                block = compile_block(program, chip, configs)
                assert block == [
                    compile_program(program, chip, cfg) for cfg in configs
                ], (app.name, chip.short_name)
                assert block == [
                    _reference_compile(program, chip, cfg) for cfg in configs
                ], (app.name, chip.short_name)

    def test_kernel_passes_run_once_per_kernel_config(
        self, worklist_program, monkeypatch
    ):
        from repro.compiler import pipeline

        calls = []
        real = pipeline.apply_workgroup_size
        monkeypatch.setattr(
            pipeline,
            "apply_workgroup_size",
            lambda plan, chip, cfg: calls.append(cfg) or real(plan, chip, cfg),
        )
        configs = enumerate_configs()
        block = compile_block(worklist_program, get_chip("R9"), configs)
        assert len(calls) == len(configs) // 2
        assert not any(cfg.oitergb for cfg in calls)
        for off, on in _oitergb_twins(block):
            assert on.outlined and not off.outlined
            relax_off, relax_on = off.kernels["relax"], on.kernels["relax"]
            assert replace(relax_on, notes=relax_off.notes) == relax_off

    def test_oitergb_twins_share_kernel_plans(self, straightline_program):
        block = compile_block(
            straightline_program, get_chip("IRIS"), enumerate_configs()
        )
        for off, on in _oitergb_twins(block):
            assert on.kernels["once"] is off.kernels["once"]
            assert on.kernels is not off.kernels  # each plan owns its dict

    def test_order_and_repeats_preserved(self, worklist_program):
        chip = get_chip("MALI")
        configs = enumerate_configs()
        picked = [configs[i] for i in (95, 3, 3, 40, 0, 41, 95)]
        assert compile_block(worklist_program, chip, picked) == [
            compile_program(worklist_program, chip, cfg) for cfg in picked
        ]
        assert compile_block(worklist_program, chip, []) == []

    @staticmethod
    def _first_error(program, chip, configs):
        for index, cfg in enumerate(configs):
            try:
                compile_program(program, chip, cfg)
            except Exception as exc:  # noqa: BLE001 - compared below
                return index, exc
        raise AssertionError("no configuration fails")

    def _raises_like_first(self, program, chip, configs, kind):
        index, expected = self._first_error(program, chip, configs)
        assert type(expected) is kind
        with pytest.raises(kind) as got:
            compile_block(program, chip, configs)
        assert str(got.value) == str(expected)
        # Nothing before that configuration fails.
        assert len(compile_block(program, chip, configs[:index])) == index
        return configs[index]

    def test_unsupported_wg_size_raises_at_the_same_config(
        self, worklist_program
    ):
        chip = get_chip("R9").with_overrides(max_wg_size=128)
        configs = enumerate_configs()
        failing = self._raises_like_first(
            worklist_program, chip, configs, InvalidConfigError
        )
        assert failing == next(c for c in configs if c.wg_size == 256)

    def test_local_memory_error_names_the_configuration(self, worklist_program):
        from repro.ocl import CUResources

        chip = get_chip("IRIS").with_overrides(
            cu=CUResources(max_workgroups=16, max_threads=448, local_mem_bytes=1024)
        )
        fat = OptConfig(coop_cv=True, wg=True, sg=True, fg=8, wg_size=256)
        # The outlined twin comes first: its label, not the shared
        # kernel configuration's, names the failure.
        configs = [OptConfig(), replace(fat, oitergb=True), fat]
        failing = self._raises_like_first(
            worklist_program, chip, configs, CompileError
        )
        assert failing.oitergb
        with pytest.raises(CompileError, match="oitergb"):
            compile_block(worklist_program, chip, configs)

    def test_unplaceable_global_barrier_raises_at_the_same_config(
        self, worklist_program
    ):
        from repro.ocl import CUResources

        tiny = get_chip("MALI").with_overrides(
            cu=CUResources(max_workgroups=4, max_threads=64, local_mem_bytes=64)
        )
        configs = [OptConfig(), OptConfig(oitergb=True), OptConfig(wg_size=256)]
        failing = self._raises_like_first(
            worklist_program, tiny, configs, ForwardProgressError
        )
        assert failing == OptConfig(oitergb=True)


class TestPlanCacheBlock:
    def test_block_lookup_counts_per_configuration(self, worklist_program):
        cache = PlanCache()
        chip = get_chip("GTX1080")
        configs = enumerate_configs()
        first = cache.get_block(worklist_program, chip, configs[:40])
        assert (cache.hits, cache.misses) == (0, 40)
        plans = cache.get_block(worklist_program, chip, configs)
        assert (cache.hits, cache.misses) == (40, 96)
        assert plans[:40] == first and all(
            a is b for a, b in zip(plans[:40], first)
        )
        assert plans == [
            compile_program(worklist_program, chip, cfg) for cfg in configs
        ]
        assert cache.get(worklist_program, chip, configs[50]) is plans[50]
        assert (cache.hits, cache.misses, len(cache)) == (41, 96, 96)

    def test_failed_block_caches_nothing(self, worklist_program):
        cache = PlanCache()
        chip = get_chip("R9").with_overrides(max_wg_size=128)
        with pytest.raises(InvalidConfigError):
            cache.get_block(worklist_program, chip, enumerate_configs())
        assert len(cache) == 0
