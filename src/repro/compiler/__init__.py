"""Optimising compiler: configuration space, passes and plan IR."""

from .options import (
    BASELINE,
    OPT_NAMES,
    OptConfig,
    configs_with,
    describe_optimisation,
    disable_opt,
    enumerate_configs,
)
from .pipeline import (
    PlanCache,
    compile_block,
    compile_cached,
    compile_program,
    plan_cache,
)
from .plan import ExecutablePlan, KernelPlan

__all__ = [
    "BASELINE",
    "OPT_NAMES",
    "OptConfig",
    "configs_with",
    "describe_optimisation",
    "disable_opt",
    "enumerate_configs",
    "PlanCache",
    "compile_block",
    "compile_cached",
    "compile_program",
    "plan_cache",
    "ExecutablePlan",
    "KernelPlan",
]
