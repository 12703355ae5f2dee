"""Tests for divergence, atomics, launch overhead and noise models."""

import numpy as np
import pytest

from repro.chips import all_chips, get_chip
from repro.compiler import OptConfig, compile_program
from repro.compiler.plan import KernelPlan
from repro.dsl import (
    IterationSpace,
    Kernel,
    Store,
    fixpoint_program,
    relax_kernel,
)
from repro.perfmodel import (
    achieved_combine_factor,
    atomic_time_us,
    divergence_factor,
    global_barrier_us,
    host_overhead_us,
    noisy_measurement_us,
    workgroup_pressure,
)
from repro.runtime.trace import LaunchRecord, Trace


def plain_plan(chip, **overrides):
    plan = KernelPlan(
        kernel=relax_kernel("k", "x"), wg_size=128, sg_size=chip.sg_size
    )
    return plan.with_(**overrides) if overrides else plan


def record(**kwargs):
    base = dict(
        kernel="k", iteration=0, in_fixpoint=True,
        active_items=1000, expanded_items=1000, edges=5000,
    )
    base.update(kwargs)
    return LaunchRecord(**base)


class TestDivergence:
    def test_no_irregularity_no_penalty(self):
        chip = get_chip("MALI")
        assert divergence_factor(chip, plain_plan(chip), 0.0) == 1.0

    def test_penalty_scales_with_sensitivity(self):
        mali = get_chip("MALI")
        r9 = get_chip("R9")
        assert divergence_factor(mali, plain_plan(mali), 0.8) > divergence_factor(
            r9, plain_plan(r9), 0.8
        )

    def test_inner_barriers_relieve(self):
        chip = get_chip("MALI")
        plan = plain_plan(chip)
        relieved = plan.with_(sg_scheme=True, wg_barriers_per_chunk=1.0)
        assert divergence_factor(chip, relieved, 0.8) < divergence_factor(
            chip, plan, 0.8
        )

    def test_wg_scheme_alone_does_not_relieve(self):
        chip = get_chip("MALI")
        wg_only = plain_plan(chip).with_(wg_scheme=True, wg_barriers_per_chunk=2.0)
        assert divergence_factor(chip, wg_only, 0.8) == divergence_factor(
            chip, plain_plan(chip), 0.8
        )

    def test_workgroup_pressure(self):
        assert workgroup_pressure(128) == 1.0
        assert workgroup_pressure(256) > 1.0


class TestAtomics:
    def test_combine_factor_trivial_subgroup(self):
        assert achieved_combine_factor(1, 1000, 1000, 0.5) == 1.0

    def test_combine_factor_no_pushes(self):
        assert achieved_combine_factor(32, 0, 1000, 0.5) == 1.0

    def test_combine_factor_sparse_pushes(self):
        dense = achieved_combine_factor(32, 1000, 1000, 0.5)
        sparse = achieved_combine_factor(32, 10, 1000, 0.5)
        assert dense > sparse

    def test_combine_factor_bounded_by_subgroup(self):
        assert achieved_combine_factor(64, 10**6, 10**6, 1.0) <= 64

    def test_coop_gains_nothing_on_jit_chip(self):
        chip = get_chip("GTX1080")  # JIT combines already
        rec = record(pushes=10_000)
        base = atomic_time_us(chip, plain_plan(chip), rec)
        coop = atomic_time_us(
            chip, plain_plan(chip).with_(coop_scope="subgroup"), rec
        )
        assert coop >= base  # only orchestration is added

    def test_coop_wins_on_r9(self):
        chip = get_chip("R9")
        rec = record(pushes=10_000)
        base = atomic_time_us(chip, plain_plan(chip), rec)
        coop = atomic_time_us(
            chip, plain_plan(chip).with_(coop_scope="subgroup"), rec
        )
        assert coop < base / 5

    def test_uncontended_cheaper_than_contended(self):
        chip = get_chip("R9")
        contended = atomic_time_us(chip, plain_plan(chip), record(pushes=5000))
        uncontended = atomic_time_us(
            chip, plain_plan(chip), record(uncontended_rmws=5000)
        )
        assert uncontended < contended


class TestHostOverhead:
    def _trace(self, n_iters=50):
        trace = Trace(program="p", graph="g")
        trace.add(LaunchRecord("init", -1, False, 10, 0, 0))
        for i in range(n_iters):
            trace.add(LaunchRecord("k", i, True, 10, 5, 20))
        return trace

    def _plans(self, chip):
        init = Kernel("init", IterationSpace.ALL_NODES, ops=[Store("x")])
        program = fixpoint_program(
            "p", [relax_kernel("k", "x")], init_kernel=init
        )
        return (
            compile_program(program, chip, OptConfig()),
            compile_program(program, chip, OptConfig(oitergb=True)),
        )

    def test_outlining_pays_off_on_high_latency_chip(self):
        chip = get_chip("MALI")
        base, outlined = self._plans(chip)
        trace = self._trace()
        assert host_overhead_us(outlined, trace) < host_overhead_us(base, trace)

    def test_outlining_hurts_on_nvidia(self):
        chip = get_chip("GTX1080")
        base, outlined = self._plans(chip)
        trace = self._trace()
        assert host_overhead_us(outlined, trace) > host_overhead_us(base, trace)

    def test_overhead_scales_with_iterations(self):
        chip = get_chip("IRIS")
        base, _ = self._plans(chip)
        assert host_overhead_us(base, self._trace(100)) > host_overhead_us(
            base, self._trace(10)
        )

    def test_global_barrier_cost_grows_with_workgroups(self):
        chip = get_chip("R9")
        assert global_barrier_us(chip, 500) > global_barrier_us(chip, 10)


class TestNoise:
    def test_deterministic_per_rep(self):
        chip = get_chip("MALI")
        a = noisy_measurement_us(1000.0, chip, "p", "g", "cfg", rep=0)
        b = noisy_measurement_us(1000.0, chip, "p", "g", "cfg", rep=0)
        assert a == b

    def test_reps_differ(self):
        chip = get_chip("MALI")
        values = {
            noisy_measurement_us(1000.0, chip, "p", "g", "cfg", rep=r)
            for r in range(3)
        }
        assert len(values) == 3

    def test_noise_scale_tracks_sigma(self):
        quiet = get_chip("GTX1080")
        loud = get_chip("MALI")

        def spread(chip):
            vals = [
                noisy_measurement_us(10_000.0, chip, "p", "g", "c", rep=r)
                for r in range(200)
            ]
            return np.std(vals) / np.mean(vals)

        assert spread(loud) > 2 * spread(quiet)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            noisy_measurement_us(-1.0, get_chip("R9"), "p", "g", "c", 0)

    def test_rng_keyed_on_all_coordinates(self):
        chip = get_chip("R9")
        base = noisy_measurement_us(100.0, chip, "p", "g", "c", 0)
        assert noisy_measurement_us(100.0, chip, "p", "g", "c2", 0) != base
        assert noisy_measurement_us(100.0, chip, "p2", "g", "c", 0) != base
