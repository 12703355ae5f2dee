"""The optimisation-strategy functions of the paper's Table V.

A *strategy* maps an (application, input, chip) tuple to an
optimisation configuration.  Nine strategies come from Algorithm 1 at
every degree of specialisation — the baseline (everything off), the
fully portable *global* function, the three single-dimension
functions, the three two-dimension functions, and the fully
specialised three-dimension function — plus the *oracle*, which simply
queries the dataset for the best configuration of each test (the
upper bound any strategy can reach).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.options import BASELINE, OptConfig
from ..errors import AnalysisError, DatasetError
from ..study.dataset import Coverage, PerfDataset, TestCase
from .algorithm1 import Analysis
from .cells import CellTable

__all__ = [
    "Strategy",
    "STRATEGY_ORDER",
    "STRATEGY_DIMS",
    "build_strategies",
    "oracle_assignment",
    "save_strategies",
    "load_strategies",
]

#: Paper presentation order, least to most specialised.
STRATEGY_ORDER: Tuple[str, ...] = (
    "baseline",
    "global",
    "chip",
    "app",
    "input",
    "chip+app",
    "chip+input",
    "app+input",
    "chip+app+input",
    "oracle",
)

#: The specialisation dimensions of each Algorithm 1 strategy.
STRATEGY_DIMS: Dict[str, Tuple[str, ...]] = {
    "global": (),
    "chip": ("chip",),
    "app": ("app",),
    "input": ("input",),
    "chip+app": ("chip", "app"),
    "chip+input": ("chip", "input"),
    "app+input": ("app", "input"),
    "chip+app+input": ("chip", "app", "input"),
}


@dataclass
class Strategy:
    """A named mapping from tests to configurations."""

    name: str
    dims: Tuple[str, ...]
    assignment: Dict[Tuple, OptConfig] = field(default_factory=dict)
    #: Cell coverage of the dataset the strategy was derived from;
    #: ``None`` for strategies built before coverage tracking existed.
    coverage: Optional[Coverage] = None

    def key_for(self, test: TestCase) -> Tuple:
        values = []
        for dim in self.dims:
            if dim == "chip":
                values.append(test.chip)
            elif dim == "app":
                values.append(test.app)
            elif dim == "input":
                values.append(test.graph)
            else:  # pragma: no cover - constructed internally
                raise AnalysisError(f"unknown dimension {dim!r}")
        return tuple(values)

    def config_for(self, test: TestCase) -> OptConfig:
        """The configuration this strategy deploys for a test."""
        key = self.key_for(test)
        try:
            return self.assignment[key]
        except KeyError:
            raise AnalysisError(
                f"strategy {self.name!r} has no assignment for {test} "
                f"(partition key {key!r})"
            ) from None

    @property
    def distinct_configs(self) -> List[OptConfig]:
        seen: Dict[str, OptConfig] = {}
        for cfg in self.assignment.values():
            seen.setdefault(cfg.key(), cfg)
        return list(seen.values())

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> Dict:
        data = {
            "name": self.name,
            "dims": list(self.dims),
            "assignment": [
                {"key": list(key), "config": cfg.key()}
                for key, cfg in self.assignment.items()
            ],
        }
        if self.coverage is not None:
            data["coverage"] = {
                "present": self.coverage.present,
                "expected": self.coverage.expected,
                "quarantined": self.coverage.quarantined,
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Strategy":
        assignment = {
            tuple(entry["key"]): (
                BASELINE
                if entry["config"] == "baseline"
                else OptConfig.from_names(entry["config"].split("+"))
            )
            for entry in data["assignment"]
        }
        coverage = None
        if "coverage" in data:
            coverage = Coverage(
                present=data["coverage"]["present"],
                expected=data["coverage"]["expected"],
                quarantined=data["coverage"].get("quarantined", 0),
            )
        return cls(
            name=data["name"],
            dims=tuple(data["dims"]),
            assignment=assignment,
            coverage=coverage,
        )


def oracle_assignment(
    dataset: PerfDataset, tests: Optional[Sequence[TestCase]] = None
) -> Dict[Tuple, OptConfig]:
    """Best configuration per (app, input, chip), queried exhaustively."""
    return _oracle_from(dataset, CellTable(dataset), tests)


def _oracle_from(
    dataset: PerfDataset,
    cells: CellTable,
    tests: Optional[Sequence[TestCase]] = None,
) -> Dict[Tuple, OptConfig]:
    """:func:`oracle_assignment` read off a prepared cell table."""
    configs = {config.key(): config for config in dataset.configs}
    assignment: Dict[Tuple, OptConfig] = {}
    for t in tests if tests is not None else dataset.tests:
        best = cells.oracle(t)
        if best is None:
            raise DatasetError(f"no measurements at all for {t}")
        assignment[(t.app, t.graph, t.chip)] = configs[best]
    return assignment


def save_strategies(strategies: Dict[str, Strategy], path: str) -> None:
    """Persist a set of strategies as JSON.

    This is the artifact a domain compiler would ship: the optimisation
    policy derived from one study, deployable without the dataset.
    """
    with open(path, "w") as f:
        json.dump({name: s.to_dict() for name, s in strategies.items()}, f)


def load_strategies(path: str) -> Dict[str, Strategy]:
    """Load strategies persisted by :func:`save_strategies`."""
    with open(path) as f:
        data = json.load(f)
    return {name: Strategy.from_dict(d) for name, d in data.items()}


def build_strategies(
    dataset: PerfDataset, analysis: Optional[Analysis] = None
) -> Dict[str, Strategy]:
    """Construct all ten Table V strategies from a dataset."""
    if analysis is None:
        analysis = Analysis(dataset)

    cov = analysis.coverage
    strategies: Dict[str, Strategy] = {
        "baseline": Strategy("baseline", (), {(): BASELINE}, coverage=cov)
    }
    for name, dims in STRATEGY_DIMS.items():
        strategies[name] = Strategy(
            name, dims, analysis.specialise(dims), coverage=cov
        )
    strategies["oracle"] = Strategy(
        "oracle",
        ("app", "input", "chip"),
        _oracle_from(dataset, analysis.cells),
        coverage=cov,
    )
    return strategies
