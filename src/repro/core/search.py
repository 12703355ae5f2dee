"""Budgeted autotuning: search the 96-config lattice, don't sweep it.

The paper's Algorithm 1 and Table V assume an *exhaustive* sweep —
every configuration measured for every (app, input, chip) cell.
PAPERS.md's *Towards a Benchmarking Suite for Kernel Tuners* reframes
that sweep as a search problem: given a hard evaluation budget, how
close to the exhaustive oracle can a search strategy get?  This module
provides the strategies; :mod:`repro.core.search_eval` replays them
against a measured :class:`~repro.study.dataset.PerfDataset` (the
dataset *is* the oracle — nothing is re-simulated).

**Protocol.**  A :class:`SearchStrategy` is driven by a propose/observe
loop::

    while (prop := strategy.propose()) is not None:
        times = measure(prop.config, prop.repetitions)  # None on a hole
        strategy.observe(prop, times)
    best = strategy.best()  # (config key, best observed median) or None

All randomness flows through one **explicitly injected**
``random.Random`` — there is no module-level RNG anywhere in this
package, so concurrently sharded runs (``--jobs``) can never correlate
draws by accident (each replay derives its own seed via
:func:`repro.util.stable_hash`).

**Budget semantics.**  One unit of budget buys one configuration at
full fidelity (all ``repetitions`` noise repetitions).  Strategies
that screen at reduced fidelity — :class:`SuccessiveHalving` observes
candidates at fewer repetitions first — pay fractionally: observing
``r`` new repetitions of a configuration costs ``r / repetitions``
units.  ``spent`` never exceeds ``budget``: a proposal that would is
never issued, and the search ends.  Replaying a cell whose measurement
is missing (a hole in a degraded dataset) costs nothing — no data was
collected — and the configuration is marked unavailable.

**Determinism.**  The candidate pool is canonically sorted by
configuration key before any draw, every tie breaks on
``(median, key)``, and all randomness comes from the injected RNG —
so a fixed seed gives bit-identical trajectories regardless of the
dataset's insertion order (mirroring :mod:`repro.core.portfolio`).

Three strategies ship:

* :class:`RandomSearch` — uniform draws without replacement;
* :class:`LocalSearch` — best-improvement hill climbing over the
  option lattice (neighbour = flip exactly one optimisation name),
  with random restarts while budget remains;
* :class:`SuccessiveHalving` — screen many configurations at one
  noise repetition, promote the best half at doubled fidelity until
  full fidelity is reached.  When the budget affords the exhaustive
  sweep it simply runs the sweep (screening cannot beat measuring
  everything), which makes ``budget >= len(pool)`` recover the
  exhaustive oracle exactly for every strategy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..compiler.options import OPT_NAMES, OptConfig, enumerate_configs
from ..errors import SearchError
from .stats.summary import sorted_median

__all__ = [
    "SEARCH_STRATEGIES",
    "LocalSearch",
    "Observation",
    "Proposal",
    "RandomSearch",
    "SearchStrategy",
    "SuccessiveHalving",
    "lattice_neighbours",
    "make_strategy",
]

#: Cost-accounting tolerance: fractional successive-halving costs are
#: sums of ``r / repetitions`` terms and may carry float dust.
_EPS = 1e-9


@dataclass(frozen=True)
class Proposal:
    """One requested evaluation: a configuration and a fidelity.

    ``repetitions=None`` asks for full fidelity (every repetition the
    study measured); an integer asks for that many repetitions only —
    the successive-halving screen.
    """

    config: OptConfig
    repetitions: Optional[int] = None


@dataclass(frozen=True)
class Observation:
    """One completed evaluation, with the best-so-far trajectory.

    ``cost`` is the cumulative budget spent *after* this observation.
    ``best_median`` is a running minimum over every *full-fidelity*
    median observed so far — monotone non-increasing along the history
    by construction.  Reduced-fidelity screening observations (the
    successive-halving rungs) never enter the best-so-far: a lucky
    single-repetition median is evidence for promotion, not a
    recommendation.  ``best_config``/``best_median`` are ``None`` until
    the first full-fidelity observation lands.
    """

    config: str  # OptConfig.key()
    n_times: int  # repetitions actually observed
    median: float  # median of the observed repetitions
    cost: float
    best_config: Optional[str]
    best_median: Optional[float]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "n_times": self.n_times,
            "median": self.median,
            "cost": self.cost,
            "best_config": self.best_config,
            "best_median": self.best_median,
        }


def lattice_neighbours(config: OptConfig) -> List[OptConfig]:
    """Every configuration differing from ``config`` in one option.

    The neighbourhood of the option lattice: flip exactly one name of
    :data:`~repro.compiler.options.OPT_NAMES` on or off.  Flips that
    would violate the ``fg``/``fg8`` mutual exclusion (enabling one
    while the other is on) are not single-option flips and are
    excluded; the lattice stays connected through the configurations
    with neither enabled.
    """
    enabled = config.enabled_names()
    out: List[OptConfig] = []
    for name in OPT_NAMES:
        if name in enabled:
            flipped = enabled - {name}
        else:
            if name == "fg" and "fg8" in enabled:
                continue
            if name == "fg8" and "fg" in enabled:
                continue
            flipped = enabled | {name}
        out.append(OptConfig.from_names(flipped))
    return out


class SearchStrategy:
    """Base class: budget accounting, history, best-so-far tracking.

    Subclasses implement :meth:`_run`, a generator yielding
    :class:`Proposal` objects; between yields they read the base
    class's observation state (``_medians``, ``_fidelity``,
    ``_unavailable``).  The base enforces the protocol: propose →
    observe → propose, hard budget cap, no duplicate accounting.
    """

    name = "abstract"

    def __init__(
        self,
        pool: Optional[Sequence[OptConfig]] = None,
        *,
        budget: int,
        rng: random.Random,
        repetitions: int = 3,
    ) -> None:
        if not isinstance(rng, random.Random):
            raise SearchError(
                "a search strategy requires an explicitly injected "
                "random.Random (shared module-level RNG state would "
                "correlate draws across sharded runs)"
            )
        if budget < 1:
            raise SearchError(f"budget must be at least 1, got {budget}")
        if repetitions < 1:
            raise SearchError(
                f"repetitions must be positive, got {repetitions}"
            )
        configs = list(pool) if pool is not None else enumerate_configs()
        if not configs:
            raise SearchError("the candidate pool is empty")
        #: Canonical candidate ordering: sorted by configuration key,
        #: so the strategy is independent of dataset insertion order.
        self.pool: List[OptConfig] = sorted(configs, key=OptConfig.key)
        if len({c.key() for c in self.pool}) != len(self.pool):
            raise SearchError("the candidate pool has duplicate configs")
        self.budget = int(budget)
        self.rng = rng
        self.repetitions = int(repetitions)
        self.spent = 0.0
        self.history: List[Observation] = []
        self._by_key: Dict[str, OptConfig] = {
            c.key(): c for c in self.pool
        }
        self._fidelity: Dict[str, int] = {}  # key -> repetitions seen
        self._medians: Dict[str, float] = {}  # key -> highest-fidelity median
        self._unavailable: Set[str] = set()  # holes in the dataset
        self._best: Optional[Tuple[float, str]] = None  # (median, key)
        self._pending: Optional[Proposal] = None
        self._gen: Optional[Iterator[Proposal]] = None
        self._finished = False

    # -- protocol ----------------------------------------------------------

    def propose(self) -> Optional[Proposal]:
        """The next evaluation to run, or ``None`` when the search ends.

        Returns ``None`` once the generator is exhausted *or* the next
        desired evaluation would overrun the budget — the hard cap.
        """
        if self._pending is not None:
            raise SearchError(
                "observe() the pending proposal before proposing again"
            )
        if self._finished:
            return None
        if self._gen is None:
            self._gen = self._run()
        try:
            prop = next(self._gen)
        except StopIteration:
            self._finished = True
            return None
        if self.spent + self._cost_of(prop) > self.budget + _EPS:
            self._finished = True
            return None
        self._pending = prop
        return prop

    def observe(
        self, proposal: Proposal, times: Optional[Sequence[float]]
    ) -> None:
        """Record the measured ``times`` for a pending ``proposal``.

        ``times=None`` marks the cell as a hole (nothing was measured,
        nothing is charged).  Otherwise the incremental repetitions
        beyond the configuration's previously observed fidelity are
        charged at ``1 / repetitions`` each, the observed median updates
        the per-configuration record, and the best-so-far trajectory
        extends by one :class:`Observation`.
        """
        if self._pending is None or proposal is not self._pending:
            raise SearchError(
                "observe() must be called with the proposal returned by "
                "the immediately preceding propose()"
            )
        self._pending = None
        key = proposal.config.key()
        if times is None:
            self._unavailable.add(key)
            return
        if not times:
            raise SearchError(f"empty measurement for {key!r}")
        n = len(times)
        prev = self._fidelity.get(key, 0)
        self.spent += max(0, n - prev) / self.repetitions
        med = sorted_median(times)
        if n >= prev:
            # Keep the highest-fidelity median per configuration —
            # screening estimates are replaced, never averaged in.
            self._medians[key] = med
        self._fidelity[key] = max(prev, n)
        # A proposal that asked for full fidelity observed the cell
        # completely (even if the study recorded fewer repetitions
        # there than the nominal count) — only those may recommend.
        full = (
            proposal.repetitions is None
            or proposal.repetitions >= self.repetitions
        )
        if full:
            candidate = (med, key)
            if self._best is None or candidate < self._best:
                self._best = candidate
        self.history.append(
            Observation(
                config=key,
                n_times=n,
                median=med,
                cost=self.spent,
                best_config=self._best[1] if self._best else None,
                best_median=self._best[0] if self._best else None,
            )
        )

    def best(self) -> Optional[Tuple[str, float]]:
        """``(config key, best observed median)`` so far, or ``None``."""
        if self._best is None:
            return None
        med, key = self._best
        return key, med

    @property
    def evaluations(self) -> int:
        """Completed observations (holes excluded)."""
        return len(self.history)

    # -- subclass interface ------------------------------------------------

    def _run(self) -> Iterator[Proposal]:
        raise NotImplementedError

    def _cost_of(self, proposal: Proposal) -> float:
        """Budget units the proposal would charge if fully satisfied."""
        r = (
            self.repetitions
            if proposal.repetitions is None
            else min(proposal.repetitions, self.repetitions)
        )
        prev = self._fidelity.get(proposal.config.key(), 0)
        return max(0, r - prev) / self.repetitions

    def _observed(self, key: str) -> bool:
        return key in self._fidelity

    def _median_of(self, key: str) -> float:
        return self._medians[key]


class RandomSearch(SearchStrategy):
    """Uniform search: evaluate configurations in a random order.

    The baseline every other strategy must beat at equal budget.
    Draws without replacement from the canonical pool; stops when the
    budget (or the pool) runs out.
    """

    name = "random"

    def _run(self) -> Iterator[Proposal]:
        for config in self.rng.sample(self.pool, len(self.pool)):
            yield Proposal(config)


class LocalSearch(SearchStrategy):
    """Diversified best-improvement hill climbing over the lattice.

    GRASP-style two-phase search.  *Probe*: spend up to three quarters
    of the budget (capped at 12 evaluations) on uniform random draws —
    at tiny budgets the lattice carries too little signal for a
    neighbourhood to beat independent samples, and the good
    configurations sit deep in the lattice where single-option flips
    from a poor start stay poor.  *Climb*: from the best configuration
    seen, evaluate every not-yet-evaluated neighbour (one flipped
    option — :func:`lattice_neighbours`) and move to the best one while
    it improves; at a local optimum, restart with a random unevaluated
    configuration and resume climbing from wherever the best-so-far
    then sits.  Neighbours are visited in sorted-key order, so only
    probe and restart picks consume randomness.
    """

    name = "local"

    #: Probe-phase cap: beyond this many diversification draws, budget
    #: is better spent climbing.
    MAX_PROBES = 12

    def _run(self) -> Iterator[Proposal]:
        remaining: Dict[str, OptConfig] = {
            c.key(): c for c in self.pool
        }
        probes = max(
            1, min(3 * self.budget // 4, self.MAX_PROBES, len(remaining))
        )
        for key in self.rng.sample(sorted(remaining), probes):
            yield Proposal(remaining.pop(key))
        while True:
            if not self._fidelity:
                # Every probe hit a hole: keep probing.
                if not remaining:
                    return
                yield Proposal(
                    remaining.pop(self.rng.choice(sorted(remaining)))
                )
                continue
            current = min(
                self._fidelity, key=lambda k: (self._median_of(k), k)
            )
            improved = True
            while improved:
                improved = False
                neighbours = [
                    k
                    for k in sorted(
                        n.key()
                        for n in lattice_neighbours(self._by_key[current])
                    )
                    if k in remaining
                ]
                for key in neighbours:
                    yield Proposal(remaining.pop(key))
                evaluated = [
                    k for k in neighbours if self._observed(k)
                ]
                if not evaluated:
                    continue
                best_n = min(
                    evaluated, key=lambda k: (self._median_of(k), k)
                )
                if self._median_of(best_n) < self._median_of(current):
                    current = best_n
                    improved = True
            if not remaining:
                return
            yield Proposal(
                remaining.pop(self.rng.choice(sorted(remaining)))
            )


class SuccessiveHalving(SearchStrategy):
    """Screen wide at low fidelity, promote the best half upward.

    Fidelity rungs double from one repetition up to full fidelity; the
    candidate count is chosen as the largest the budget affords under
    halving promotion, so a budget of B units screens far more than B
    configurations.  Rankings within a rung use the median at that
    rung's fidelity, ties broken by configuration key.  When the budget
    covers the whole pool at full fidelity, the strategy runs the
    exhaustive sweep instead — screening cannot beat affording
    everything, and this makes ``budget >= len(pool)`` recover the
    oracle exactly.
    """

    name = "halving"

    def __init__(self, *args, eta: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if eta < 2:
            raise SearchError(f"halving factor eta must be >= 2, got {eta}")
        self.eta = int(eta)

    def _rungs(self) -> List[int]:
        """Fidelity schedule: 1, eta, eta^2, ... capped at full."""
        fidelities: List[int] = []
        r = 1
        while r < self.repetitions:
            fidelities.append(r)
            r = min(self.repetitions, r * self.eta)
        fidelities.append(self.repetitions)
        return fidelities

    def _plan_cost(self, n0: int, rungs: Sequence[int]) -> float:
        """Budget units of screening ``n0`` configs down the rungs."""
        total = 0.0
        count = n0
        prev = 0
        for fidelity in rungs:
            total += count * (fidelity - prev) / self.repetitions
            prev = fidelity
            count = max(1, math.ceil(count / self.eta))
        return total

    def _run(self) -> Iterator[Proposal]:
        if self.budget >= len(self.pool):
            for config in self.rng.sample(self.pool, len(self.pool)):
                yield Proposal(config)
            return
        rungs = self._rungs()
        n0 = 1
        for n in range(len(self.pool), 0, -1):
            if self._plan_cost(n, rungs) <= self.budget + _EPS:
                n0 = n
                break
        survivors = self.rng.sample(self.pool, n0)
        for i, fidelity in enumerate(rungs):
            for config in sorted(survivors, key=OptConfig.key):
                yield Proposal(config, repetitions=fidelity)
            ranked = sorted(
                (c for c in survivors if self._observed(c.key())),
                key=lambda c: (self._median_of(c.key()), c.key()),
            )
            if not ranked:
                return  # every candidate was a hole
            if i + 1 < len(rungs):
                survivors = ranked[
                    : max(1, math.ceil(len(ranked) / self.eta))
                ]
        # Spend any leftover budget: first confirm the best screened
        # configurations at full fidelity (a screening median may never
        # recommend — see Observation), then widen with unevaluated
        # configurations in random order.
        for key in sorted(
            self._fidelity, key=lambda k: (self._median_of(k), k)
        ):
            if self._fidelity[key] < self.repetitions:
                yield Proposal(self._by_key[key])
        fresh = [
            c
            for c in self.pool
            if not self._observed(c.key())
            and c.key() not in self._unavailable
        ]
        for config in self.rng.sample(fresh, len(fresh)):
            yield Proposal(config)


#: Registry of search strategies by CLI/experiment name.
SEARCH_STRATEGIES: Dict[str, type] = {
    RandomSearch.name: RandomSearch,
    LocalSearch.name: LocalSearch,
    SuccessiveHalving.name: SuccessiveHalving,
}


def make_strategy(
    name: str,
    pool: Optional[Sequence[OptConfig]] = None,
    *,
    budget: int,
    rng: random.Random,
    repetitions: int = 3,
) -> SearchStrategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = SEARCH_STRATEGIES[name]
    except KeyError:
        raise SearchError(
            f"unknown search strategy {name!r}; known: "
            f"{', '.join(sorted(SEARCH_STRATEGIES))}"
        ) from None
    return cls(pool, budget=budget, rng=rng, repetitions=repetitions)
