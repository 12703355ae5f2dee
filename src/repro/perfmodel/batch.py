"""Vectorized batch-pricing engine: one trace under many plans at once.

The scalar model (:mod:`.cost`, :mod:`.simulate`) walks one
:class:`~repro.runtime.trace.LaunchRecord` at a time through Python
arithmetic; a study sweep prices every trace under hundreds of (chip,
configuration) plans, so that walk is the dominant cost of the
data-collection phase.  This module prices *all* launch records of a
trace under a whole sequence of one chip's plans in whole-array NumPy
operations over the structure-of-arrays
:class:`~repro.runtime.trace.TraceArrays` view (built once per trace,
cached on it).  Every per-launch array gets a leading *plan axis*: the
per-plan facts the scalar model computes in Python (occupancy,
workgroup pressure, barrier size scale, host overhead) are computed in
Python here too, once per plan, and broadcast over the launches; each
per-plan branch of the scalar model becomes a mask that selects
between the two branch values.  Inner-loop work, the costliest term,
runs once per distinct row of the plan columns it reads and is
gathered back to the plans.

Bit-identical by construction: every expression below mirrors the
scalar model's operation order (floating-point addition is not
associative, so the order matters).  Accumulations over degree buckets
run in the scalar model's bucket order (a ``cumsum``, which adds left
to right), and sums over the bucket axis see exactly the scalar
operand lengths — launches are grouped by (kernel, histogram width)
and never padded, and the bucket axis is always the last, contiguous
one.  ``cdf ** sg_size`` keeps a scalar exponent (one call per
distinct subgroup size).  The total of a trace is accumulated
launch-by-launch in trace order, exactly like
:func:`~repro.perfmodel.simulate.estimate_runtime_us`.  The scalar
path remains the reference oracle; the golden equivalence tests
(``tests/test_perfmodel_batch.py``) assert exact float equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..chips.model import ChipModel
from ..compiler.plan import ExecutablePlan
from ..errors import ExecutionError
from ..runtime.trace import Trace, TraceArrays, TraceGroup
from .atomics import _JIT_COMBINE_EFFICIENCY, _SW_COMBINE_EFFICIENCY
from .cost import (
    _BARRIER_SIZE_EXP,
    _FG_EDGE_FACTOR,
    _IMBALANCE_CAP,
    _IMBALANCE_COUPLING,
    _KERNEL_FIXED_US,
    _NP_INSPECTOR_UNITS_PER_ITEM,
    _NP_INSPECTOR_UNITS_PER_SCAN,
    _SCAN_UNITS_PER_ITEM,
    _SG_EDGE_FACTOR,
    _WG_EDGE_FACTOR,
)
from .divergence import workgroup_pressure
from .imbalance import bucket_degree
from .launch import _FIXED_COPIES, global_barrier_us
from .noise import (
    block_seeds,
    measurement_seeds,
    noise_from_seed,
    noise_from_seeds,
)

__all__ = [
    "BatchLaunchCosts",
    "estimate_runtime_us_batch",
    "estimate_runtimes_us_batch",
    "measure_plans_us_batch",
    "measure_repeats_us_batch",
    "measure_traces_us_batch",
    "price_plans_batch",
    "price_trace_batch",
]


@dataclass(frozen=True)
class BatchLaunchCosts:
    """Cost breakdown of every launch of a trace (microseconds).

    Arrays are aligned with ``Trace.launches`` order along their last
    axis; :func:`price_plans_batch` adds a leading plan axis.  For one
    plan, ``total_us[i]`` equals
    ``launch_cost(plan, kplan, trace.launches[i]).total_us`` exactly.
    """

    scan_us: np.ndarray
    edge_us: np.ndarray
    barrier_us: np.ndarray
    local_us: np.ndarray
    atomic_us: np.ndarray
    fixed_us: float
    total_us: np.ndarray


def _column(values, dtype=np.float64) -> np.ndarray:
    """One value per plan, shaped ``(P, 1)`` to broadcast over launches."""
    return np.array(values, dtype=dtype).reshape(-1, 1)


#: The :class:`_Columns` that :func:`_edge_units` reads.
_EDGE_COLUMNS = (
    "wg_scheme",
    "wg_threshold",
    "sg_scheme",
    "sg_size",
    "sg_threshold",
    "fg_on",
    "wg",
    "fg",
    "fg_factor",
)


class _Columns:
    """Per-plan facts of one kernel, one ``(P, 1)`` row per plan."""

    def __init__(self, plans: Sequence[ExecutablePlan], kernel: str) -> None:
        chip = plans[0].chip
        kplans = [p.kernel_plan(kernel) for p in plans]
        self.has_loop = kplans[0].kernel.has_neighbor_loop
        self.outlined = _column([p.outlined for p in plans], bool)
        self.outlined_wgs = _column(
            [max(1, p.outlined_workgroups) for p in plans], np.int64
        )
        shapes = [(k.wg_size, k.local_mem_bytes) for k in kplans]
        occupancy = {shape: chip.occupancy(*shape) for shape in set(shapes)}
        resident = [occupancy[shape] for shape in shapes]
        self.resident = _column(resident, np.int64)
        self.latency_hiding = _column(
            [1.0 if r / chip.n_cus >= 2 else 0.8 for r in resident]
        )
        wg_sizes = [k.wg_size for k in kplans]
        self.wg = _column(wg_sizes, np.int64)
        self.pressure = _column([workgroup_pressure(w) for w in wg_sizes])
        self.size_scale = _column(
            [(w / 128.0) ** _BARRIER_SIZE_EXP for w in wg_sizes]
        )
        self.fg_on = _column([k.fg_edges is not None for k in kplans], bool)
        self.fg = _column([k.fg_edges or 1 for k in kplans], np.int64)
        self.fg_factor = _column(
            [_FG_EDGE_FACTOR.get(k.fg_edges or 0, 1.0) for k in kplans]
        )
        self.wg_scheme = _column([k.wg_scheme for k in kplans], bool)
        self.sg_scheme = _column([k.sg_scheme for k in kplans], bool)
        self.any_scheme = self.wg_scheme | self.sg_scheme | self.fg_on
        self.wg_threshold = _column([k.wg_threshold for k in kplans], np.int64)
        self.sg_threshold = _column([k.sg_threshold for k in kplans], np.int64)
        self.sg_size = _column([k.sg_size for k in kplans], np.int64)
        self.coop = _column([k.coop_scope is not None for k in kplans], bool)
        self.inner_barriers = _column(
            [k.inserts_inner_barriers for k in kplans], bool
        )
        self.predication = _column(
            [1.0 + k.predication_overhead for k in kplans]
        )
        # Inner-loop work depends on the plan only through the
        # _EDGE_COLUMNS: it is priced once per distinct row of them
        # and gathered back through edge_index (None: all distinct).
        rows = zip(
            *(getattr(self, name)[:, 0].tolist() for name in _EDGE_COLUMNS)
        )
        distinct: Dict[tuple, int] = {}
        index = [distinct.setdefault(row, len(distinct)) for row in rows]
        self.edge_rows, self.edge_index = self, None
        if len(distinct) < len(index):
            self.edge_index = np.array(index, dtype=np.intp)
            picks = np.unique(self.edge_index, return_index=True)[1]
            self.edge_rows = SimpleNamespace(
                **{name: getattr(self, name)[picks] for name in _EDGE_COLUMNS}
            )
        # Atomics depend on the plan only through (coop?, sg width).
        atomic_keys = [
            k.sg_size if k.coop_scope is not None else None for k in kplans
        ]
        self.atomic_variants = list(dict.fromkeys(atomic_keys))
        self.atomic_index = np.array(
            [self.atomic_variants.index(key) for key in atomic_keys],
            dtype=np.intp,
        )


def _combine_factor_batch(
    sg_size: int,
    contended: np.ndarray,
    expanded: np.ndarray,
    efficiency: float,
) -> np.ndarray:
    """Vector form of :func:`~repro.perfmodel.atomics.achieved_combine_factor`."""
    if sg_size <= 1:
        return np.ones(contended.shape[0], dtype=np.float64)
    efficiency = efficiency * (16.0 / sg_size) ** 0.28
    per_sg = sg_size * contended / np.maximum(1, expanded)
    achieved = np.maximum(
        1.0, np.minimum(sg_size * efficiency, per_sg * efficiency)
    )
    return np.where(contended == 0, 1.0, achieved)


def _in_bucket_order(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (bucket) axis strictly left to right.

    Mirrors the scalar model's ``acc += term`` loop over buckets; a
    skipped bucket contributes ``+0.0``, which leaves the non-negative
    accumulator bitwise unchanged.
    """
    return np.cumsum(terms, axis=-1)[..., -1]


def _imbalance_factor_batch(
    serial_counts: np.ndarray,
    weighted: np.ndarray,
    degrees: np.ndarray,
    group_size: int,
) -> np.ndarray:
    """Vector form of :func:`~repro.perfmodel.imbalance.imbalance_factor`.

    ``serial_counts`` holds one residual histogram per row along its
    last axis and ``weighted`` their degree-weighted sums; rows are
    reduced over that contiguous bucket axis, which NumPy evaluates
    with the same pairwise summation as the scalar 1-D reductions of
    equal length.
    """
    lead = serial_counts.shape[:-1]
    if group_size <= 1 or serial_counts.shape[-1] == 0:
        return np.ones(lead, dtype=np.float64)
    total = serial_counts.sum(axis=-1)
    safe_total = np.where(total == 0.0, 1.0, total)
    mean = weighted / safe_total
    safe_mean = np.where(mean == 0.0, 1.0, mean)
    cdf = np.cumsum(serial_counts, axis=-1) / safe_total[..., None]
    cdf_prev = np.concatenate(
        [np.zeros(lead + (1,), dtype=np.float64), cdf[..., :-1]], axis=-1
    )
    weights = cdf ** group_size - cdf_prev ** group_size
    emax = (weights * degrees).sum(axis=-1)
    raw = np.maximum(1.0, emax / safe_mean)
    return np.where((total == 0.0) | (mean == 0.0), 1.0, raw)


def _edge_units(cols, group: TraceGroup):
    """Scheme-partitioned inner-loop work, imbalance-inflated.

    ``cols`` holds the :data:`_EDGE_COLUMNS`, one row per distinct
    inner-loop configuration (``_Columns.edge_rows``).

    Vector form of :func:`~repro.perfmodel.imbalance.partition_work`:
    the scheme a bucket goes to depends only on its representative
    degree and the plan, never on the record, so the choice is one
    ``(P, width)`` mask per scheme (first match wins, as in the scalar
    ``if``/``elif`` chain).
    """
    degrees = np.array([bucket_degree(b) for b in range(group.width)])
    counts = group.deg_hist  # (n, width)
    to_wg = cols.wg_scheme & (degrees >= cols.wg_threshold)
    to_sg = (
        ~to_wg
        & cols.sg_scheme
        & (cols.sg_size > 1)
        & (degrees >= cols.sg_threshold)
    )
    to_fg = ~to_wg & ~to_sg & cols.fg_on
    edges = counts * degrees
    wg_waste = np.ceil(degrees / cols.wg) * cols.wg / degrees
    sg_waste = np.ceil(degrees / cols.sg_size) * cols.sg_size / degrees

    def taken(mask, values):
        return _in_bucket_order(np.where(mask[:, None, :], values, 0.0))

    wg_e = taken(to_wg, edges * wg_waste[:, None, :])
    sg_e = taken(to_sg, edges * sg_waste[:, None, :])
    fg_e = taken(to_fg, edges)
    n_wg = taken(to_wg, counts)
    n_sg = taken(to_sg, counts)

    serial = np.where((to_wg | to_sg | to_fg)[:, None, :], 0.0, counts)
    serial_edges = (serial * degrees).sum(axis=-1)
    raw = np.empty(serial_edges.shape, dtype=np.float64)
    for size in dict.fromkeys(cols.sg_size[:, 0].tolist()):
        rows = cols.sg_size[:, 0] == size
        if rows.all():
            raw = _imbalance_factor_batch(serial, serial_edges, degrees, size)
        else:
            raw[rows] = _imbalance_factor_batch(
                serial[rows], serial_edges[rows], degrees, size
            )

    serial_units = serial_edges * np.minimum(
        _IMBALANCE_CAP, 1.0 + (raw - 1.0) * _IMBALANCE_COUPLING
    )
    edge_units = (
        serial_units
        + sg_e * _SG_EDGE_FACTOR
        + wg_e * _WG_EDGE_FACTOR
        + fg_e * cols.fg_factor
    )
    fg_rounds = np.where(cols.fg_on, fg_e / (cols.wg * cols.fg), 0.0)
    return edge_units, fg_rounds, n_sg, n_wg


def _atomic_us(chip: ChipModel, group: TraceGroup, coop_sg: Optional[int]):
    """Per-launch atomic RMW cost; ``coop_sg`` is the combining width.

    ``coop_sg`` is ``None`` when the plan does not apply cooperative
    conversion, else the kernel plan's subgroup size.
    """
    n = group.n
    expanded = group.expanded_items
    atomic_ns = chip.effective_atomic_rmw_ns()
    contended = group.pushes + group.contended_rmws
    if chip.jit_coop_cv:
        factor = _combine_factor_batch(
            chip.sg_size, contended, expanded, _JIT_COMBINE_EFFICIENCY
        )
    else:
        factor = np.ones(n, dtype=np.float64)
    if coop_sg is not None:
        sw_factor = _combine_factor_batch(
            coop_sg, contended, expanded, _SW_COMBINE_EFFICIENCY
        )
        factor = np.maximum(factor, sw_factor)
        orchestration_us = (
            contended * chip.local_traffic_ns / 1000.0 / max(1, 2 * chip.n_cus)
        )
    else:
        orchestration_us = np.zeros(n, dtype=np.float64)
    contended_us = contended / factor * atomic_ns / 1000.0
    uncontended_us = (
        group.uncontended_rmws * atomic_ns / 1000.0 / max(1, 4 * chip.n_cus)
    )
    return contended_us + uncontended_us + orchestration_us


def _group_costs(chip: ChipModel, cols: _Columns, group: TraceGroup):
    """Cost components of one (kernel, width) group, shape ``(P, n)``."""
    active = group.active_items
    expanded = group.expanded_items
    edges = group.edges

    # -- launch geometry and achievable throughput ---------------------
    from_items = np.maximum(1, np.ceil(active / cols.wg).astype(np.int64))
    launched = np.where(
        cols.outlined & group.in_fixpoint, cols.outlined_wgs, from_items
    )
    work_width = np.maximum(active, expanded).astype(np.float64)
    work_width = np.where(
        cols.fg_on & (edges > 0),
        np.maximum(work_width, edges / cols.fg),
        work_width,
    )
    concurrent = np.maximum(1, np.minimum(cols.resident, launched))
    live_threads = np.minimum(concurrent * cols.wg, np.maximum(1.0, work_width))
    occupancy_frac = np.minimum(
        1.0, live_threads / (chip.n_cus * chip.threads_for_peak)
    )
    throughput = np.maximum(
        1e-9, chip.peak_edges_per_us * occupancy_frac * cols.latency_hiding
    )

    # -- outer-loop scan ------------------------------------------------
    scan_units = active * _SCAN_UNITS_PER_ITEM * chip.node_cost_factor
    if cols.has_loop:
        inspected = scan_units + (
            active * _NP_INSPECTOR_UNITS_PER_SCAN
            + expanded * _NP_INSPECTOR_UNITS_PER_ITEM
        )
        scan_units = np.where(cols.any_scheme, inspected, scan_units)
    scan_us = scan_units / throughput

    # -- inner-loop edge work -------------------------------------------
    if cols.has_loop and group.width > 0:
        parts = _edge_units(cols.edge_rows, group)
        if cols.edge_index is not None:
            parts = [part[cols.edge_index] for part in parts]
        edge_units, fg_rounds, n_sg, n_wg = parts
    else:
        edge_units = edges.astype(np.float64)
        n_sg = n_wg = fg_rounds = np.zeros(group.n, dtype=np.float64)
    penalty = (
        chip.divergence_sensitivity
        * np.minimum(1.0, group.irregularity)
        * cols.pressure
    )
    penalty = np.where(
        cols.inner_barriers,
        penalty * (1.0 - chip.barrier_divergence_relief),
        penalty,
    )
    div = np.where(group.irregularity <= 0.0, 1.0, 1.0 + penalty)
    edge_us = edge_units * div * cols.predication / throughput

    # -- barrier orchestration ------------------------------------------
    outer_chunks = expanded / cols.wg  # 0.0 where X == 0
    wg_events = 2.0 * fg_rounds
    sg_events = np.zeros(group.n, dtype=np.float64)
    if cols.has_loop:
        wg_events = np.where(
            cols.wg_scheme,
            wg_events + (2.0 * n_wg + 2.0 * outer_chunks),
            wg_events,
        )
        wg_events = np.where(
            cols.sg_scheme, wg_events + 1.0 * outer_chunks, wg_events
        )
        sg_events = np.where(cols.sg_scheme, sg_events + 2.0 * n_sg, sg_events)
    needs_combine = (group.pushes > 0) | (group.contended_rmws > 0)
    sg_events = np.where(
        cols.coop,
        sg_events + np.where(needs_combine, 2.0 * outer_chunks, 0.0),
        sg_events,
    )
    barrier_us = (
        wg_events * chip.wg_barrier_ns * cols.size_scale
        + sg_events * chip.effective_sg_barrier_ns()
    ) / 1000.0 / concurrent

    # -- local-memory traffic and atomics ---------------------------------
    local_us = fg_rounds * cols.wg * chip.local_traffic_ns / 1000.0 / concurrent
    atomic_us = np.stack(
        [_atomic_us(chip, group, key) for key in cols.atomic_variants]
    )[cols.atomic_index]
    return scan_us, edge_us, barrier_us, local_us, atomic_us


def _as_arrays(trace: Union[Trace, TraceArrays]) -> TraceArrays:
    if isinstance(trace, TraceArrays):
        return trace
    return trace.arrays()


def _check_plans(plans: Sequence[ExecutablePlan], arrays: TraceArrays) -> None:
    """All plans must compile the trace's program for one chip."""
    chip = plans[0].chip if plans else None
    for plan in plans:
        if plan.program.name != arrays.program:
            raise ExecutionError(
                f"trace is for program {arrays.program!r} but plan compiles "
                f"{plan.program.name!r}"
            )
        if plan.chip is not chip and plan.chip != chip:
            raise ValueError(
                f"plans for one pricing pass must share a chip "
                f"({chip.short_name} and {plan.chip.short_name})"
            )


def _price_plans(
    plans: Sequence[ExecutablePlan],
    arrays: TraceArrays,
    columns: Dict[str, _Columns],
) -> BatchLaunchCosts:
    """:func:`price_plans_batch`, reading and filling ``columns``.

    ``columns`` maps a kernel to its :class:`_Columns` under ``plans``;
    traces of one program priced under the same plans may share it.
    """
    _check_plans(plans, arrays)
    shape = (len(plans), arrays.n_launches)
    scan = np.zeros(shape, dtype=np.float64)
    edge = np.zeros(shape, dtype=np.float64)
    barrier = np.zeros(shape, dtype=np.float64)
    local = np.zeros(shape, dtype=np.float64)
    atomic = np.zeros(shape, dtype=np.float64)
    if plans:
        for group in arrays.groups:
            if group.kernel not in columns:
                columns[group.kernel] = _Columns(plans, group.kernel)
            s, e, b, l, a = _group_costs(
                plans[0].chip, columns[group.kernel], group
            )
            idx = group.indices
            scan[:, idx] = s
            edge[:, idx] = e
            barrier[:, idx] = b
            local[:, idx] = l
            atomic[:, idx] = a
    # Same left-associated chain as LaunchCost.total_us.
    total = scan + edge + barrier + local + atomic + _KERNEL_FIXED_US
    return BatchLaunchCosts(
        scan_us=scan,
        edge_us=edge,
        barrier_us=barrier,
        local_us=local,
        atomic_us=atomic,
        fixed_us=_KERNEL_FIXED_US,
        total_us=total,
    )


def price_plans_batch(
    plans: Sequence[ExecutablePlan], trace: Union[Trace, TraceArrays]
) -> BatchLaunchCosts:
    """Cost every launch of a trace under each of one chip's plans.

    Every array of the result has shape ``(len(plans), n_launches)``;
    row ``p`` is exactly :func:`price_trace_batch` of ``plans[p]``.
    """
    return _price_plans(plans, _as_arrays(trace), {})


def price_trace_batch(
    plan: ExecutablePlan, trace: Union[Trace, TraceArrays]
) -> BatchLaunchCosts:
    """Cost every launch record of a trace in whole-array NumPy ops."""
    costs = price_plans_batch([plan], trace)
    return BatchLaunchCosts(
        scan_us=costs.scan_us[0],
        edge_us=costs.edge_us[0],
        barrier_us=costs.barrier_us[0],
        local_us=costs.local_us[0],
        atomic_us=costs.atomic_us[0],
        fixed_us=costs.fixed_us,
        total_us=costs.total_us[0],
    )


def _host_overhead_us(plan: ExecutablePlan, arrays: TraceArrays) -> float:
    """:func:`~repro.perfmodel.launch.host_overhead_us` from cached counts."""
    chip = plan.chip
    outside = arrays.n_outside_fixpoint
    inside = arrays.n_inside_fixpoint
    iterations = arrays.n_fixpoint_iterations

    total = _FIXED_COPIES * chip.copy_overhead_us
    if plan.outlined and inside:
        total += (outside + 1) * chip.launch_overhead_us
        total += iterations * global_barrier_us(chip, plan.outlined_workgroups)
    else:
        total += (outside + inside) * chip.launch_overhead_us
        total += iterations * chip.copy_overhead_us
    return total


def _estimate_runtimes(
    plans: Sequence[ExecutablePlan],
    arrays: TraceArrays,
    columns: Dict[str, _Columns],
) -> List[float]:
    """:func:`estimate_runtimes_us_batch`, sharing ``columns``."""
    costs = _price_plans(plans, arrays, columns)
    host = _column([_host_overhead_us(plan, arrays) for plan in plans])
    # Host overhead first, then each launch in trace order: a running
    # sum (never a pairwise one), bit-identical to the scalar loop.
    running = np.cumsum(np.concatenate([host, costs.total_us], axis=1), axis=1)
    return running[:, -1].tolist()


def estimate_runtimes_us_batch(
    plans: Sequence[ExecutablePlan], trace: Union[Trace, TraceArrays]
) -> List[float]:
    """:func:`~repro.perfmodel.simulate.estimate_runtime_us` of each plan.

    One pricing pass for the whole sequence; the plans must share a
    chip and compile the trace's program.
    """
    return _estimate_runtimes(plans, _as_arrays(trace), {})


def estimate_runtime_us_batch(
    plan: ExecutablePlan, trace: Union[Trace, TraceArrays]
) -> float:
    """Batch equivalent of :func:`~repro.perfmodel.simulate.estimate_runtime_us`."""
    return estimate_runtimes_us_batch([plan], trace)[0]


def measure_traces_us_batch(
    plans: Sequence[ExecutablePlan],
    traces: Sequence[Union[Trace, TraceArrays]],
    repetitions: int = 3,
) -> List[List[List[float]]]:
    """:func:`measure_plans_us_batch` of each of one program's traces.

    The plans' per-kernel column tables are built once for all the
    traces, and every trace's draws go through one
    :func:`~repro.perfmodel.noise.noise_from_seeds` call; nothing is
    kept past the call.
    """
    if repetitions < 1:
        raise ValueError("at least one repetition is required")
    columns: Dict[str, _Columns] = {}
    true_us: List[float] = []
    seeds = []
    for trace in traces:
        arrays = _as_arrays(trace)
        true_us += _estimate_runtimes(plans, arrays, columns)
        if plans:
            seeds.append(
                block_seeds(
                    plans[0].chip,
                    arrays.program,
                    arrays.graph,
                    [plan.config.key() for plan in plans],
                    repetitions,
                ).ravel()
            )
    if not seeds:
        return [[] for _ in traces]
    times = noise_from_seeds(
        np.repeat(true_us, repetitions), plans[0].chip, np.concatenate(seeds)
    )
    return times.reshape(len(traces), len(plans), repetitions).tolist()


def measure_plans_us_batch(
    plans: Sequence[ExecutablePlan],
    trace: Union[Trace, TraceArrays],
    repetitions: int = 3,
) -> List[List[float]]:
    """:func:`~repro.perfmodel.simulate.measure_repeats_us` of each plan.

    One pricing pass for the whole sequence, then one array pass for
    every plan's repetition seeds
    (:func:`~repro.perfmodel.noise.block_seeds`) and one for their
    draws (:func:`~repro.perfmodel.noise.noise_from_seeds`).
    """
    return measure_traces_us_batch(plans, [trace], repetitions)[0]


def measure_repeats_us_batch(
    plan: ExecutablePlan,
    trace: Union[Trace, TraceArrays],
    repetitions: int = 3,
    true_us: Optional[float] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[float]:
    """Batch equivalent of :func:`~repro.perfmodel.simulate.measure_repeats_us`.

    ``true_us`` (a prior estimate of the same point) skips pricing, and
    ``seeds`` (one per repetition, from
    :func:`~repro.perfmodel.noise.measurement_seeds`) skips hashing.
    """
    if repetitions < 1:
        raise ValueError("at least one repetition is required")
    if seeds is not None and len(seeds) != repetitions:
        raise ValueError(
            f"{len(seeds)} seeds provided for {repetitions} repetitions"
        )
    arrays = _as_arrays(trace)
    if true_us is None:
        true_us = estimate_runtime_us_batch(plan, arrays)
    if seeds is None:
        seeds = measurement_seeds(
            plan.chip,
            arrays.program,
            arrays.graph,
            plan.config.key(),
            repetitions,
        )
    return [noise_from_seed(true_us, plan.chip, seed) for seed in seeds]