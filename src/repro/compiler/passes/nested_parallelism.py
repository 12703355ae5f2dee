"""The nested-parallelism (``np``) passes: ``wg``, ``sg``, ``fg`` (Section V-B).

The inner :class:`~repro.dsl.ast.NeighborLoop` of a graph kernel is
irregular — its trip count is the node's degree — so distributing one
node per thread load-imbalances exactly when degrees are skewed.  The
pass generates inspector/executor pairs that redistribute inner-loop
iterations at three granularities:

* ``wg``: nodes with degree ≥ the workgroup threshold are processed by
  the whole workgroup, one at a time (serialised outer loop).  The
  inspector needs a leader-election idiom with concurrent same-location
  writes; OpenCL deems the racy CUDA version undefined, so the
  generated code uses OpenCL 2.0 atomic operations (costlier on chips
  that only emulate them).
* ``sg``: nodes with degree ≥ the subgroup threshold are handled by
  their subgroup.  Requires uniform subgroup execution (predication),
  as with cooperative conversion.
* ``fg``/``fg8``: remaining iterations are linearised across the
  workgroup via a local-memory prefix sum, each thread executing
  ``fg_edges`` edges per executor round.

All three compose; thresholds ensure each node is handled by exactly
one scheme, with the coarser scheme taking the heavier nodes.
"""

from __future__ import annotations

from ...chips.model import ChipModel
from ..options import OptConfig
from ..plan import KernelPlan

__all__ = [
    "apply_nested_parallelism",
    "WG_LOCAL_BYTES_PER_THREAD",
    "SG_LOCAL_BYTES_PER_THREAD",
    "FG_LOCAL_BYTES_PER_THREAD",
]

#: Local-memory demand of each scheme's inspector/executor buffers.
WG_LOCAL_BYTES_PER_THREAD = 12
SG_LOCAL_BYTES_PER_THREAD = 8
FG_LOCAL_BYTES_PER_THREAD = 16

#: Uniform-branch predication overhead on non-lockstep subgroup chips.
_SG_PREDICATION_OVERHEAD = 0.03


def apply_nested_parallelism(
    plan: KernelPlan, chip: ChipModel, config: OptConfig
) -> KernelPlan:
    """Apply the enabled nested-parallelism schemes to one kernel."""
    if not config.uses_nested_parallelism:
        return plan
    if not plan.kernel.has_neighbor_loop:
        return plan.add_note("np: kernel has no irregular inner loop; not applied")

    local_bytes = plan.local_mem_bytes
    wg_barriers = plan.wg_barriers_per_chunk
    sg_barriers = plan.sg_barriers_per_chunk
    predication = plan.predication_overhead
    notes = []

    wg_threshold = 0
    sg_threshold = 0

    if config.wg:
        # Heaviest nodes: whole-workgroup cooperation.  Threshold is
        # the workgroup size — below that a workgroup cannot be filled.
        wg_threshold = plan.wg_size
        local_bytes += WG_LOCAL_BYTES_PER_THREAD * plan.wg_size
        wg_barriers += 2.0  # leader election + work announcement
        notes.append(
            f"np/wg: degree>={wg_threshold} nodes redistributed across the "
            "workgroup (leader election via OpenCL 2.0 atomics)"
        )

    if config.sg:
        sg_threshold = max(plan.sg_size, 1)
        local_bytes += SG_LOCAL_BYTES_PER_THREAD * plan.wg_size
        sg_barriers += 2.0
        # Separating sg execution from the rest of the kernel requires
        # workgroup barriers around the phase (the structural source of
        # the paper's MALI memory-divergence finding).
        wg_barriers += 1.0
        if not chip.lockstep_subgroups:
            predication += _SG_PREDICATION_OVERHEAD
        notes.append(
            f"np/sg: degree>={sg_threshold} nodes redistributed across the "
            f"subgroup (sg_size={plan.sg_size})"
        )

    fg_edges = config.fg
    if fg_edges is not None:
        local_bytes += FG_LOCAL_BYTES_PER_THREAD * plan.wg_size
        wg_barriers += 2.0  # prefix-sum inspector + executor hand-off
        notes.append(
            f"np/fg: remaining iterations linearised across the workgroup, "
            f"{fg_edges} edge(s) per executor round"
        )

    return plan.with_(
        wg_scheme=config.wg,
        sg_scheme=config.sg,
        fg_edges=fg_edges,
        wg_threshold=wg_threshold,
        sg_threshold=sg_threshold,
        local_mem_bytes=local_bytes,
        wg_barriers_per_chunk=wg_barriers,
        sg_barriers_per_chunk=sg_barriers,
        predication_overhead=predication,
        leader_election_atomics=plan.leader_election_atomics or config.wg,
        notes=plan.notes + tuple(notes),
    )
