"""The optimisation space of the study (paper Section V-E).

Six optimisation axes combine into **96 configurations** — the
baseline (all off) plus the paper's "95 optimisation combinations":

* ``coop-cv`` — cooperative conversion of contended atomic RMWs;
* ``wg``      — nested parallelism, workgroup-level work redistribution;
* ``sg``      — nested parallelism, subgroup-level work redistribution;
* ``fg`` / ``fg8`` — nested parallelism, fine-grained edge
  linearisation processing 1 or 8 edges per executor iteration
  (mutually exclusive variants of one numeric parameter);
* ``oitergb`` — iteration outlining using a portable global barrier;
* ``sz256``   — workgroup size 256 instead of the default 128.

:class:`OptConfig` is the canonical value passed between the compiler,
the study harness and the statistical analysis; optimisation *names*
(strings above) are the vocabulary of the analysis (Algorithm 1 treats
each name as one binary optimisation, exactly as the paper does).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..errors import InvalidConfigError

__all__ = [
    "OptConfig",
    "OPT_NAMES",
    "BASELINE",
    "enumerate_configs",
    "configs_with",
    "disable_opt",
    "describe_optimisation",
]

#: Analysis vocabulary, in the paper's presentation order.
OPT_NAMES: Tuple[str, ...] = (
    "coop-cv",
    "wg",
    "sg",
    "fg",
    "fg8",
    "oitergb",
    "sz256",
)

#: Paper Table VI: the architectural parameters each optimisation's
#: profitability depends on.
_OPT_PERFORMANCE_PARAMETERS = {
    "coop-cv": (
        "workgroup size, subgroup size, atomic read-modify-write "
        "throughput, subgroup collectives throughput"
    ),
    "fg": "local memory, workgroup-barriers",
    "fg8": "local memory, workgroup-barriers",
    "sg": "subgroup size, subgroup-barrier throughput, local memory constraints",
    "wg": (
        "workgroup size, local memory constraints, workgroup-barrier "
        "throughput, workgroup atomic load/store throughput"
    ),
    "oitergb": (
        "kernel launch and host-device memory transfer overhead, global "
        "synchronisation, inter-workgroup scheduler"
    ),
    "sz256": "occupancy, workgroup-local resource limits",
}


def describe_optimisation(name: str) -> str:
    """Table VI's performance-parameters entry for an optimisation."""
    try:
        return _OPT_PERFORMANCE_PARAMETERS[name]
    except KeyError:
        raise InvalidConfigError(
            f"unknown optimisation {name!r}; known: {', '.join(OPT_NAMES)}"
        ) from None


@dataclass(frozen=True, order=True)
class OptConfig:
    """One point of the optimisation space.

    ``fg`` holds the fine-grained edges-per-iteration parameter
    (``None`` disabled, else 1 or 8); ``wg_size`` holds the workgroup
    size (128 default, 256 when ``sz256`` is enabled).  All other axes
    are independent booleans.
    """

    coop_cv: bool = False
    wg: bool = False
    sg: bool = False
    fg: Optional[int] = None
    oitergb: bool = False
    wg_size: int = 128

    def __post_init__(self) -> None:
        if self.fg not in (None, 1, 8):
            raise InvalidConfigError(
                f"fg must be None, 1 or 8 (got {self.fg!r}); the study "
                "considers exactly the fg1 and fg8 variants"
            )
        if self.wg_size not in (128, 256):
            raise InvalidConfigError(
                f"workgroup size must be 128 or 256 (got {self.wg_size})"
            )

    # -- name-based view (the analysis vocabulary) ----------------------

    def enabled_names(self) -> FrozenSet[str]:
        """The set of enabled optimisation names, memoised like :meth:`key`."""
        try:
            return self.__dict__["_names"]
        except KeyError:
            pass
        names = set()
        if self.coop_cv:
            names.add("coop-cv")
        if self.wg:
            names.add("wg")
        if self.sg:
            names.add("sg")
        if self.fg == 1:
            names.add("fg")
        elif self.fg == 8:
            names.add("fg8")
        if self.oitergb:
            names.add("oitergb")
        if self.wg_size == 256:
            names.add("sz256")
        self.__dict__["_names"] = frozen = frozenset(names)
        return frozen

    def has(self, name: str) -> bool:
        if name not in OPT_NAMES:
            raise InvalidConfigError(f"unknown optimisation {name!r}")
        return name in self.enabled_names()

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "OptConfig":
        """Build a configuration from optimisation names."""
        names = set(names)
        unknown = names - set(OPT_NAMES)
        if unknown:
            raise InvalidConfigError(
                f"unknown optimisations: {', '.join(sorted(unknown))}"
            )
        if "fg" in names and "fg8" in names:
            raise InvalidConfigError("fg and fg8 are mutually exclusive")
        fg: Optional[int] = 1 if "fg" in names else (8 if "fg8" in names else None)
        return cls(
            coop_cv="coop-cv" in names,
            wg="wg" in names,
            sg="sg" in names,
            fg=fg,
            oitergb="oitergb" in names,
            wg_size=256 if "sz256" in names else 128,
        )

    @property
    def is_baseline(self) -> bool:
        return not self.enabled_names()

    @property
    def uses_nested_parallelism(self) -> bool:
        return self.wg or self.sg or self.fg is not None

    def label(self) -> str:
        """Human-readable label, e.g. ``"wg, fg8"`` (paper Table III).

        Memoised like :meth:`key`.
        """
        try:
            return self.__dict__["_label"]
        except KeyError:
            names = self.enabled_names()
            label = ", ".join(n for n in OPT_NAMES if n in names) or "baseline"
            self.__dict__["_label"] = label
            return label

    def key(self) -> str:
        """Stable machine key used in dataset storage.

        Computed once per instance and kept in its ``__dict__`` (a
        frozen dataclass still has one), outside the fields that
        equality, hashing and ordering compare.
        """
        try:
            return self.__dict__["_key"]
        except KeyError:
            key = "+".join(sorted(self.enabled_names())) or "baseline"
            self.__dict__["_key"] = key
            return key


BASELINE = OptConfig()


def enumerate_configs(include_baseline: bool = True) -> List[OptConfig]:
    """All configurations of the space, in a stable order.

    96 with the baseline, 95 without — the counts the paper reports.
    """
    configs = [
        OptConfig(coop_cv=cc, wg=wg, sg=sg, fg=fg, oitergb=oi, wg_size=ws)
        for cc, wg, sg, fg, oi, ws in itertools.product(
            (False, True),
            (False, True),
            (False, True),
            (None, 1, 8),
            (False, True),
            (128, 256),
        )
    ]
    if not include_baseline:
        configs = [c for c in configs if not c.is_baseline]
    return configs


def disable_opt(config: OptConfig, name: str) -> OptConfig:
    """The *mirror* configuration with one optimisation turned off.

    Used by Algorithm 1 (line 12): the mirror differs from ``config``
    only in ``name`` being disabled — ``fg``/``fg8`` drop to no
    fine-grained scheme, ``sz256`` drops to workgroup size 128.
    """
    if name not in OPT_NAMES:
        raise InvalidConfigError(f"unknown optimisation {name!r}")
    if name == "coop-cv":
        return replace(config, coop_cv=False)
    if name == "wg":
        return replace(config, wg=False)
    if name == "sg":
        return replace(config, sg=False)
    if name == "fg":
        return replace(config, fg=None if config.fg == 1 else config.fg)
    if name == "fg8":
        return replace(config, fg=None if config.fg == 8 else config.fg)
    if name == "oitergb":
        return replace(config, oitergb=False)
    return replace(config, wg_size=128)


def configs_with(name: str, enabled: bool = True) -> List[OptConfig]:
    """All configurations where optimisation ``name`` is on (or off).

    This is Algorithm 1's ``ALL_OPT_SETTINGS(opt)``.
    """
    if name not in OPT_NAMES:
        raise InvalidConfigError(f"unknown optimisation {name!r}")
    return [c for c in enumerate_configs() if c.has(name) == enabled]
