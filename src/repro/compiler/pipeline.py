"""Compiler driver: program + configuration + chip → executable plan.

Pass order matters and mirrors the generation order of the original
compiler: workgroup sizing first (it scales every later resource
computation), then the intra-kernel transformations (nested
parallelism, cooperative conversion), then whole-program iteration
outlining (which needs the final per-kernel resource demands to
discover a safe global-barrier occupancy).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Tuple

from ..chips.model import ChipModel
from ..dsl.ast import Program
from ..dsl.validate import validate_program
from ..errors import CompileError
from .options import OptConfig
from .passes.coop_cv import apply_coop_cv
from .passes.iteration_outlining import apply_iteration_outlining
from .passes.nested_parallelism import apply_nested_parallelism
from .passes.workgroup_size import apply_workgroup_size
from .plan import ExecutablePlan, KernelPlan

__all__ = ["PlanCache", "compile_cached", "compile_program", "plan_cache"]

#: Programs that passed validation, by identity.  A ``Program`` is
#: frozen, so one that validated once stays valid; the weak reference
#: confirms the id still names that program and drops the entry with it.
_VALIDATED: Dict[int, "weakref.ref[Program]"] = {}


def _validate_once(program: Program) -> None:
    """:func:`validate_program`, skipped for a program already validated.

    Only success is remembered: an invalid program raises every time.
    """
    key = id(program)
    ref = _VALIDATED.get(key)
    if ref is not None and ref() is program:
        return
    validate_program(program)
    _VALIDATED[key] = weakref.ref(program, lambda _: _VALIDATED.pop(key, None))


def compile_program(
    program: Program, chip: ChipModel, config: OptConfig
) -> ExecutablePlan:
    """Compile ``program`` for ``chip`` under ``config``.

    Raises :class:`~repro.errors.InvalidConfigError` for configurations
    illegal on the chip (unsupported workgroup size) and
    :class:`~repro.errors.ForwardProgressError` when ``oitergb`` cannot
    construct a safe global barrier.
    """
    _validate_once(program)

    kernels: Dict[str, KernelPlan] = {}
    for kernel in program.kernels:
        plan = KernelPlan(
            kernel=kernel,
            wg_size=config.wg_size,
            sg_size=chip.sg_size if chip.supports_subgroups else 1,
        )
        plan = apply_workgroup_size(plan, chip, config)
        plan = apply_nested_parallelism(plan, chip, config)
        plan = apply_coop_cv(plan, chip, config)
        if plan.local_mem_bytes > chip.cu.local_mem_bytes:
            raise CompileError(
                f"kernel {kernel.name!r} needs {plan.local_mem_bytes} B of "
                f"local memory under [{config.label()}] but chip "
                f"{chip.short_name} has {chip.cu.local_mem_bytes} B per CU"
            )
        kernels[kernel.name] = plan

    plan = ExecutablePlan(
        program=program, chip=chip, config=config, kernels=kernels
    )
    plan = apply_iteration_outlining(plan, chip, config)
    return plan


class PlanCache:
    """LRU of compiled plans keyed by (program, chip, configuration).

    A study sweep compiles every program once per (chip, configuration)
    point; the plan depends only on that triple, so hoisting the
    compilation behind a cache removes it from the sweep's inner loop.
    Keys use ``program.name`` / ``chip.short_name`` /
    ``config.key()`` — the cached program object is re-verified by
    identity on hit, so two distinct programs sharing a name can never
    alias.  Only successful compilations are cached; illegal
    configurations raise afresh on every call.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._plans: "OrderedDict[Tuple[str, str, str], Tuple[Program, ExecutablePlan]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size tally, in run-report counter naming."""
        return {
            "compiler.plan_cache.hits": self.hits,
            "compiler.plan_cache.misses": self.misses,
            "compiler.plan_cache.size": len(self._plans),
        }

    def get(
        self, program: Program, chip: ChipModel, config: OptConfig
    ) -> ExecutablePlan:
        key = (program.name, chip.short_name, config.key())
        entry = self._plans.get(key)
        if entry is not None and entry[0] is program:
            self.hits += 1
            self._plans.move_to_end(key)
            return entry[1]
        self.misses += 1
        plan = compile_program(program, chip, config)
        self._plans[key] = (program, plan)
        self._plans.move_to_end(key)
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
        return plan


#: Process-wide cache used by the study sweep (each worker process of a
#: parallel sweep gets its own copy on fork).
plan_cache = PlanCache()


def compile_cached(
    program: Program, chip: ChipModel, config: OptConfig
) -> ExecutablePlan:
    """:func:`compile_program` through the process-wide :data:`plan_cache`."""
    return plan_cache.get(program, chip, config)
