"""Analytical GPU performance model (the hardware substitution).

Prices workload traces on the calibrated chip models.  Components:
load imbalance (:mod:`.imbalance`), memory divergence
(:mod:`.divergence`), atomic RMW throughput with cooperative/JIT
combining (:mod:`.atomics`), host-side overheads and the portable
global barrier (:mod:`.launch`), per-launch composition (:mod:`.cost`)
and the deterministic noise model (:mod:`.noise`).  The vectorized
batch engine (:mod:`.batch`) prices all launches of a trace under a
block of one chip's plans at once, bit-identical to the scalar path.
"""

from .atomics import achieved_combine_factor, atomic_time_us
from .batch import (
    BatchLaunchCosts,
    estimate_runtime_us_batch,
    estimate_runtimes_us_batch,
    measure_plans_us_batch,
    measure_repeats_us_batch,
    measure_traces_us_batch,
    price_plans_batch,
    price_trace_batch,
)
from .cost import LaunchCost, kernel_time_us, launch_cost
from .divergence import divergence_factor, workgroup_pressure
from .imbalance import (
    SchemeWork,
    bucket_degree,
    expected_max_degree,
    imbalance_factor,
    partition_work,
)
from .launch import global_barrier_us, host_overhead_us
from .noise import (
    block_seeds,
    measurement_prefix,
    measurement_seeds,
    noise_from_seed,
    noise_from_seeds,
    noisy_measurement_us,
    pcg64_states,
)
from .simulate import estimate_runtime_us, measure_repeats_us, measure_us

__all__ = [
    "achieved_combine_factor",
    "atomic_time_us",
    "BatchLaunchCosts",
    "estimate_runtime_us_batch",
    "estimate_runtimes_us_batch",
    "measure_plans_us_batch",
    "measure_repeats_us_batch",
    "measure_traces_us_batch",
    "price_plans_batch",
    "price_trace_batch",
    "LaunchCost",
    "kernel_time_us",
    "launch_cost",
    "divergence_factor",
    "workgroup_pressure",
    "SchemeWork",
    "bucket_degree",
    "expected_max_degree",
    "imbalance_factor",
    "partition_work",
    "global_barrier_us",
    "host_overhead_us",
    "block_seeds",
    "measurement_prefix",
    "measurement_seeds",
    "noise_from_seed",
    "noise_from_seeds",
    "noisy_measurement_us",
    "pcg64_states",
    "estimate_runtime_us",
    "measure_repeats_us",
    "measure_us",
]
