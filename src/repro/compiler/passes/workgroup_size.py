"""The ``sz256`` pass: workgroup resizing (paper Section V-D).

Functionally trivial — the DSL guarantees workgroup-size-agnostic
kernels — but performance-relevant through occupancy: larger
workgroups consume more CU-local resources per schedulable unit.
The pass also enforces the legality constraint that motivated the
paper's choice of 128 as the default: the target chip must support
the requested size.
"""

from __future__ import annotations

from ...chips.model import ChipModel
from ...errors import InvalidConfigError
from ..options import OptConfig
from ..plan import KernelPlan

__all__ = ["apply_workgroup_size"]


def apply_workgroup_size(
    plan: KernelPlan, chip: ChipModel, config: OptConfig
) -> KernelPlan:
    """Set the launch workgroup size, validating chip support."""
    if not chip.supports_wg_size(config.wg_size):
        raise InvalidConfigError(
            f"chip {chip.short_name} supports workgroup sizes up to "
            f"{chip.max_wg_size}; cannot launch with {config.wg_size}"
        )
    if not plan.kernel.workgroup_size_agnostic:
        raise InvalidConfigError(
            f"kernel {plan.kernel.name!r} is not workgroup-size agnostic"
        )
    notes = plan.notes
    if config.wg_size != 128:
        notes += (f"sz256: workgroup size set to {config.wg_size}",)
    return plan.with_(wg_size=config.wg_size, notes=notes)
