"""Algorithm 1: finding optimisation strategies from empirical data.

The paper's central procedure.  For a data partition (all tests, or
the tests sharing a chip, an application, an input, or a combination):

1. For each optimisation ``opt``, every configuration with ``opt``
   enabled is paired with its *mirror* (identical but ``opt``
   disabled).
2. For every test in the partition, if the two timings differ
   significantly (95 % CI), the normalised runtime
   ``median(enabled) / median(disabled)`` joins list ``A`` and the
   constant 1.0 joins list ``B``.
3. A Mann-Whitney U test on (A, B) decides whether ``opt`` changed
   runtimes; ``opt`` is enabled only for a significant change whose
   median indicates a speedup (``median(A) < 1``).

The procedure is magnitude-agnostic by construction: step 3 is
rank-based, so a chip on which the optimisation produces 20× swings
gets exactly the same vote as one with 1.05× swings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler.options import OPT_NAMES, OptConfig, configs_with, disable_opt
from ..errors import InsufficientDataError
from ..obs import get_recorder
from ..study.dataset import PerfDataset, TestCase
from .cells import CellTable
from .significance import welch_significant
from .stats.effect import cl_effect_size
from .stats.mwu import mann_whitney_u
from .stats.summary import median

__all__ = ["OptDecision", "Analysis", "SPECIALISATION_DIMS"]

#: The three specialisation dimensions, in the paper's naming.  The
#: dataset calls inputs "graphs"; ``input`` here maps onto that axis.
SPECIALISATION_DIMS: Tuple[str, ...] = ("chip", "app", "input")


@dataclass(frozen=True)
class OptDecision:
    """The analysis verdict for one optimisation on one partition."""

    opt: str
    enabled: bool
    inconclusive: bool  # too few significant samples to decide
    p_value: float
    effect_size: float  # CL: P(random pair shows a speedup)
    median_ratio: float  # median normalised runtime (NaN if no samples)
    n_samples: int

    def mark(self) -> str:
        """Table IX cell: ✓ enabled, ✗ disabled, ? inconclusive."""
        if self.inconclusive:
            return "?"
        return "+" if self.enabled else "-"


class Analysis:
    """Algorithm 1 over a dataset, from one per-cell summary table."""

    def __init__(
        self,
        dataset: PerfDataset,
        confidence: float = 0.95,
        alpha: float = 0.05,
        min_samples: int = 3,
        recorder=None,
    ) -> None:
        self.dataset = dataset
        self.confidence = confidence
        self.alpha = alpha
        self.min_samples = min_samples
        #: Cell coverage of the analysed dataset; attached to derived
        #: strategies so reports can footnote degraded runs.
        self.coverage = dataset.coverage()
        #: ``(n, mean, var, median)`` per cell, shared with the
        #: portfolio set cover and the strategy index.
        self.cells = CellTable(dataset)
        # opt -> test -> (significant ratios tagged with their mirror
        # pair's position in configs_with(opt), missing-pair count).
        self._comparisons: Dict[
            str, Dict[TestCase, Tuple[List[Tuple[int, float]], int]]
        ] = {}
        # None defers to the process-wide current recorder at call time,
        # so ``with obs.recording(rec):`` captures analyses transparently.
        self._recorder = recorder

    def _rec(self):
        return self._recorder if self._recorder is not None else get_recorder()

    # -- the inner comparison (lines 11-16) -----------------------------

    def _test_comparisons(
        self, test: TestCase, pairs: Sequence[Tuple[str, str]]
    ) -> Tuple[List[Tuple[int, float]], int]:
        """One test's significant ``(enabled, disabled)`` mirror-pair
        ratios, each tagged with its pair index, and the number of
        pairs with a side never measured (or quarantined), which
        contribute no sample."""
        row = self.cells.row(test)
        ratios: List[Tuple[int, float]] = []
        missing = significant = 0
        for i, (on_key, off_key) in enumerate(pairs):
            on, off = row.get(on_key), row.get(off_key)
            if on is None or off is None:
                missing += 1
            elif welch_significant(on, off, self.confidence):
                ratios.append((i, on.median / off.median))
                significant += 1
        insignificant = len(pairs) - missing - significant
        rec = self._rec()
        if significant:
            rec.count("analysis.filter.significant", significant)
        if insignificant:
            rec.count("analysis.filter.insignificant", insignificant)
        return ratios, missing

    def comparison_lists(
        self, tests: Sequence[TestCase], opt: str
    ) -> Tuple[List[float], List[float]]:
        """Algorithm 1's A and B lists for one optimisation.

        Each (test, mirror pair) comparison runs once per analysis;
        ``A`` lists the significant ratios mirror pair by mirror pair,
        tests in the given order within a pair.
        """
        per_test = self._comparisons.setdefault(opt, {})
        pairs = None
        tagged: List[Tuple[int, float]] = []
        missing = 0
        for test in tests:
            entry = per_test.get(test)
            if entry is None:
                if pairs is None:
                    pairs = [
                        (cfg.key(), disable_opt(cfg, opt).key())
                        for cfg in configs_with(opt)
                    ]
                entry = per_test[test] = self._test_comparisons(test, pairs)
            tagged.extend(entry[0])
            missing += entry[1]
        if missing:
            self._rec().count("analysis.pairs.missing", missing)
        tagged.sort(key=itemgetter(0))  # stable: tests keep their order
        a = [ratio for _, ratio in tagged]
        return a, [1.0] * len(a)

    # -- ENABLE_OPT (lines 20-22) ----------------------------------------

    def decide(self, tests: Sequence[TestCase], opt: str) -> OptDecision:
        """Run the MWU decision for one optimisation on a partition."""
        a, b = self.comparison_lists(tests, opt)
        effect = cl_effect_size(a, b)
        med = median(a) if a else float("nan")
        try:
            result = mann_whitney_u(a, b, min_samples=self.min_samples)
            self._rec().count("analysis.mwu.tests")
        except InsufficientDataError:
            self._rec().count("analysis.mwu.insufficient")
            return OptDecision(
                opt=opt,
                enabled=False,
                inconclusive=True,
                p_value=float("nan"),
                effect_size=effect,
                median_ratio=med,
                n_samples=len(a),
            )
        enabled = result.reject_null(self.alpha) and med < 1.0
        return OptDecision(
            opt=opt,
            enabled=enabled,
            inconclusive=False,
            p_value=result.p_value,
            effect_size=effect,
            median_ratio=med,
            n_samples=len(a),
        )

    # -- OPTS_FOR_PARTITION (lines 7-19) -----------------------------------

    def opts_for_partition(
        self, tests: Sequence[TestCase]
    ) -> Dict[str, OptDecision]:
        """Decisions for every optimisation on one partition.

        ``fg`` and ``fg8`` are mutually exclusive variants of one
        numeric parameter; if the analysis recommends both, the one
        with the stronger effect size wins (the paper evaluates them
        as separate binary optimisations with the same constraint).
        """
        decisions = {opt: self.decide(tests, opt) for opt in OPT_NAMES}
        if decisions["fg"].enabled and decisions["fg8"].enabled:
            weaker = (
                "fg"
                if decisions["fg"].effect_size <= decisions["fg8"].effect_size
                else "fg8"
            )
            d = decisions[weaker]
            decisions[weaker] = OptDecision(
                opt=d.opt,
                enabled=False,
                inconclusive=d.inconclusive,
                p_value=d.p_value,
                effect_size=d.effect_size,
                median_ratio=d.median_ratio,
                n_samples=d.n_samples,
            )
        return decisions

    def config_for_partition(self, tests: Sequence[TestCase]) -> OptConfig:
        """The partition's recommended configuration."""
        decisions = self.opts_for_partition(tests)
        return OptConfig.from_names(
            name for name, d in decisions.items() if d.enabled
        )

    # -- SPECIALISE_FOR_* (lines 1-6), generalised over dimensions ----------

    def _partition_key(self, test: TestCase, dims: Sequence[str]) -> Tuple:
        values = []
        for dim in dims:
            if dim == "chip":
                values.append(test.chip)
            elif dim == "app":
                values.append(test.app)
            elif dim == "input":
                values.append(test.graph)
            else:
                raise ValueError(
                    f"unknown specialisation dimension {dim!r}; "
                    f"expected a subset of {SPECIALISATION_DIMS}"
                )
        return tuple(values)

    def partitions(
        self, dims: Sequence[str], tests: Optional[Iterable[TestCase]] = None
    ) -> Dict[Tuple, List[TestCase]]:
        """Group tests by their values along the given dimensions."""
        groups: Dict[Tuple, List[TestCase]] = {}
        for test in tests if tests is not None else self.dataset.tests:
            groups.setdefault(self._partition_key(test, dims), []).append(test)
        return groups

    def specialise(self, dims: Sequence[str]) -> Dict[Tuple, OptConfig]:
        """One recommended configuration per partition.

        ``dims=()`` is the fully portable *global* strategy;
        ``dims=("chip",)`` reproduces the paper's
        ``SPECIALISE_FOR_CHIP``; multi-dimension tuples give the
        semi-specialised strategies of Section VII.
        """
        with self._specialise_span(dims) as finish:
            result = {
                key: self.config_for_partition(tests)
                for key, tests in self.partitions(dims).items()
            }
            finish(len(result))
        return result

    def specialise_decisions(
        self, dims: Sequence[str]
    ) -> Dict[Tuple, Dict[str, OptDecision]]:
        """Like :meth:`specialise` but keeping full decision detail
        (needed for Table IX's effect sizes and ? entries)."""
        with self._specialise_span(dims) as finish:
            result = {
                key: self.opts_for_partition(tests)
                for key, tests in self.partitions(dims).items()
            }
            finish(len(result))
        return result

    @contextmanager
    def _specialise_span(self, dims: Sequence[str]):
        """An ``analysis.specialise`` span carrying per-level counts.

        The yielded callable closes the bookkeeping: called with the
        partition count, it attaches the number of MWU tests run and
        comparisons filtered *at this specialisation level* (deltas of
        the analysis counters, so memoised comparisons from earlier
        levels are not re-counted)."""
        rec = self._rec()
        level = "+".join(dims) if dims else "global"
        before = {
            name: rec.counter_value(name)
            for name in (
                "analysis.mwu.tests",
                "analysis.mwu.insufficient",
                "analysis.filter.significant",
                "analysis.filter.insignificant",
                "analysis.pairs.missing",
            )
        }
        with rec.span("analysis.specialise", level=level) as span:

            def finish(n_partitions: int) -> None:
                span.set("partitions", n_partitions)
                for name, start in before.items():
                    span.set(
                        name.split("analysis.", 1)[1].replace(".", "_"),
                        rec.counter_value(name) - start,
                    )

            yield finish
