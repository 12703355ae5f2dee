"""Compiler driver: program + configuration + chip → executable plan.

Pass order matters and mirrors the generation order of the original
compiler: workgroup sizing first (it scales every later resource
computation), then the intra-kernel transformations (nested
parallelism, cooperative conversion), then whole-program iteration
outlining (which needs the final per-kernel resource demands to
discover a safe global-barrier occupancy).  A block of configurations
compiles together (:func:`compile_block`): the kernel passes run once
per configuration with ``oitergb`` off, and only outlining runs per
configuration.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

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

__all__ = [
    "PlanCache",
    "compile_block",
    "compile_cached",
    "compile_program",
    "plan_cache",
]

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

    The one-configuration case of :func:`compile_block`.  Raises
    :class:`~repro.errors.InvalidConfigError` for configurations
    illegal on the chip (unsupported workgroup size) and
    :class:`~repro.errors.ForwardProgressError` when ``oitergb`` cannot
    construct a safe global barrier.
    """
    return compile_block(program, chip, [config])[0]


def compile_block(
    program: Program, chip: ChipModel, configs: Sequence[OptConfig]
) -> List[ExecutablePlan]:
    """Compile ``program`` for ``chip`` under each of ``configs``.

    ``oitergb`` is a whole-program option that no kernel pass reads, so
    the kernel passes run once per distinct ``oitergb``-off
    configuration and their (frozen) kernel plans are shared; only
    iteration outlining runs per configuration.  Each plan equals
    :func:`compile_program` of its configuration, and an illegal
    configuration raises what compiling it alone would, at the first
    such configuration in ``configs`` order.
    """
    _validate_once(program)
    shared: Dict[OptConfig, Dict[str, KernelPlan]] = {}
    plans: List[ExecutablePlan] = []
    for config in configs:
        kernel_config = config
        if config.oitergb:
            kernel_config = replace(config, oitergb=False)
        kernels = shared.get(kernel_config)
        if kernels is None:
            kernels = shared[kernel_config] = _compile_kernels(
                program, chip, kernel_config, config
            )
        plan = ExecutablePlan(
            program=program, chip=chip, config=config, kernels=dict(kernels)
        )
        plans.append(apply_iteration_outlining(plan, chip, config))
    return plans


def _compile_kernels(
    program: Program,
    chip: ChipModel,
    kernel_config: OptConfig,
    config: OptConfig,
) -> Dict[str, KernelPlan]:
    """Run the kernel passes under ``kernel_config`` (``oitergb`` off).

    ``config`` is the configuration being compiled; it only names the
    configuration in the local-memory error.
    """
    kernels: Dict[str, KernelPlan] = {}
    for kernel in program.kernels:
        plan = KernelPlan(
            kernel=kernel,
            wg_size=kernel_config.wg_size,
            sg_size=chip.sg_size if chip.supports_subgroups else 1,
        )
        plan = apply_workgroup_size(plan, chip, kernel_config)
        plan = apply_nested_parallelism(plan, chip, kernel_config)
        plan = apply_coop_cv(plan, chip, kernel_config)
        if plan.local_mem_bytes > chip.cu.local_mem_bytes:
            raise CompileError(
                f"kernel {kernel.name!r} needs {plan.local_mem_bytes} B of "
                f"local memory under [{config.label()}] but chip "
                f"{chip.short_name} has {chip.cu.local_mem_bytes} B per CU"
            )
        kernels[kernel.name] = plan
    return kernels


class PlanCache:
    """LRU of compiled plans keyed by (program, chip, configuration).

    A study sweep compiles every program once per (chip, configuration)
    point; the plan depends only on that triple, so hoisting the
    compilation behind a cache removes it from the sweep's inner loop.
    Keys use ``program.name`` / ``chip.short_name`` /
    ``config.key()`` — the cached program object is re-verified by
    identity on hit, so two distinct programs sharing a name can never
    alias.  Only successful compilations are cached; illegal
    configurations raise afresh on every call (a block lookup whose
    misses include one caches none of them).
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
        return self.get_block(program, chip, [config])[0]

    def get_block(
        self, program: Program, chip: ChipModel, configs: Sequence[OptConfig]
    ) -> List[ExecutablePlan]:
        """The plans of ``configs``, one cache lookup per configuration.

        Every miss of the block is compiled in one :func:`compile_block`
        call, so kernel plans are shared across the missed
        configurations.
        """
        plans: List[ExecutablePlan] = []
        missed: List[int] = []
        for i, config in enumerate(configs):
            key = (program.name, chip.short_name, config.key())
            entry = self._plans.get(key)
            if entry is not None and entry[0] is program:
                self.hits += 1
                self._plans.move_to_end(key)
                plans.append(entry[1])
            else:
                self.misses += 1
                missed.append(i)
                plans.append(None)
        if missed:
            compiled = compile_block(
                program, chip, [configs[i] for i in missed]
            )
            for i, plan in zip(missed, compiled):
                plans[i] = plan
                key = (program.name, chip.short_name, configs[i].key())
                self._plans[key] = (program, plan)
                self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plans


#: Process-wide cache used by the study sweep (each worker process of a
#: parallel sweep gets its own copy on fork).
plan_cache = PlanCache()


def compile_cached(
    program: Program, chip: ChipModel, config: OptConfig
) -> ExecutablePlan:
    """:func:`compile_program` through the process-wide :data:`plan_cache`."""
    return plan_cache.get(program, chip, config)
