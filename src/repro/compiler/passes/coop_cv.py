"""The ``coop-cv`` pass: cooperative conversion (paper Section V-A).

Contended global atomic RMWs — worklist tail bumps and hot
accumulators — are aggregated across the subgroup: threads communicate
their contributions through local memory, a leader performs one RMW
for the whole subgroup, and the result is broadcast back.  This trades
``sg_size`` serialised global RMWs for one RMW plus subgroup
orchestration (two subgroup barriers and local-memory traffic).

OpenCL generalisation: unlike CUDA warps, OpenCL subgroups need not
run in lockstep, so subgroup operations must be *uniform* — the
compiler equalises loop trip counts and predicates off surplus
iterations, which costs a small fraction of extra work on
non-lockstep chips (recorded as ``predication_overhead``).
"""

from __future__ import annotations

from ...chips.model import ChipModel
from ..options import OptConfig
from ..plan import KernelPlan

__all__ = ["apply_coop_cv", "COOP_LOCAL_BYTES_PER_THREAD", "PREDICATION_OVERHEAD"]

#: Local-memory staging buffer per thread for aggregation payloads.
COOP_LOCAL_BYTES_PER_THREAD = 8

#: Extra (predicated-off) work fraction for uniform subgroup branches
#: on chips whose subgroups do not execute in lockstep, and the
#: smaller staging overhead that remains even on lockstep hardware
#: (the paper's sg-cmb measures a 0.88x slowdown on Nvidia).
PREDICATION_OVERHEAD = 0.14
LOCKSTEP_STAGING_OVERHEAD = 0.11


def apply_coop_cv(
    plan: KernelPlan, chip: ChipModel, config: OptConfig
) -> KernelPlan:
    """Apply cooperative conversion when enabled and applicable.

    The pass is a no-op for kernels with nothing to aggregate (no
    pushes and no contended atomics).  It still applies on chips whose
    JIT already combines (Nvidia, HD5500 — paper Section VIII-b): the
    compiler cannot know that; the *performance model* is where the
    redundancy shows up as zero benefit.
    """
    if not config.coop_cv:
        return plan
    kernel = plan.kernel
    n_targets = len(kernel.pushes) + len(kernel.contended_atomics)
    if n_targets == 0:
        return plan.add_note("coop-cv: no aggregatable RMWs; not applied")

    predication = (
        LOCKSTEP_STAGING_OVERHEAD
        if chip.lockstep_subgroups
        else PREDICATION_OVERHEAD
    )
    note = (
        f"coop-cv: {n_targets} contended RMW site(s) aggregated at "
        f"subgroup scope (sg_size={plan.sg_size})"
    )
    return plan.with_(
        coop_scope="subgroup",
        local_mem_bytes=plan.local_mem_bytes
        + COOP_LOCAL_BYTES_PER_THREAD * plan.wg_size,
        sg_barriers_per_chunk=plan.sg_barriers_per_chunk + 2.0,
        predication_overhead=plan.predication_overhead + predication,
        notes=plan.notes + (note,),
    )
