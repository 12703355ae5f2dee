"""Tests for the compiler driver (program x chip x config -> plan)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips import all_chips, get_chip
from repro.compiler import OptConfig, compile_program, enumerate_configs
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
