"""The analysis layers, timed one public call at a time.

The traced ``serve`` run makes one pass over the dataset its set-up
priced, written as ``.v3``: it loads it, audits it, runs Algorithm 1
at every lattice level on a fresh ``Analysis``, builds the portfolios,
replays budgeted search at fixed budgets and compiles the strategy
index from that same analysis.  The set-up's ``build_index`` does the
same audit, Algorithm 1, portfolio and index work in one call, so these
spans say where ``serve``'s ``setup_s`` goes.
"""

from __future__ import annotations

import hashlib
import json

from common import Run, cold_caches

from repro.core import Analysis, build_portfolios, build_strategies
from repro.core.search import SEARCH_STRATEGIES
from repro.core.search_eval import budget_fractions
from repro.core.strategies import STRATEGY_DIMS
from repro.serve import build_index
from repro.study.audit import audit_dataset
from repro.study.dataset import PerfDataset

BUDGETS = (8, 32)
TRIALS = 2


def _check(run: Run, seed: int, clean, analysis, strategies, portfolios, fractions, index):
    """K=1 portfolios equal Algorithm 1; the index holds every answer."""
    for level, dims in STRATEGY_DIMS.items():
        for key in analysis.partitions(dims):
            run.count("core.partitions", 1)
            curve = portfolios.curve(level, key)
            want = strategies[level].assignment.get(key)
            if curve is None or want is None or curve.configs_for(1) != [want.key()]:
                run.problem(f"analysis seed {seed}: K=1 portfolio of {level}{key} "
                            f"is not the Algorithm 1 assignment")
    expected = 1
    for axis in (clean.chips, clean.apps, clean.graphs):
        expected *= len(axis) + 1
    if index.n_answers != expected:
        run.problem(f"analysis seed {seed}: {index.n_answers} answers, expected {expected}")
    for name, per_budget in fractions.items():
        for budget, value in per_budget.items():
            if not 0.0 < value <= 1.0:
                run.problem(f"analysis seed {seed}: {name}@{budget} fraction {value}")
    run.count("core.portfolio_curves", portfolios.n_curves)
    run.count("core.search_replays",
              len(clean.tests) * len(SEARCH_STRATEGIES) * len(BUDGETS) * TRIALS)
    run.count("index.answers", index.n_answers)
    body = json.dumps(index.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def analyse(run: Run, seed: int, path: str):
    """One pass over the ``.v3`` dataset at ``path``; returns its index or ``None``."""
    cold_caches()

    def analysed():
        with run.span("store.load"):
            dataset = PerfDataset.load(path)
        with run.span("audit.audit"):
            audit = audit_dataset(dataset)
        clean = audit.dataset
        with run.span("core.algorithm1"):
            analysis = Analysis(clean)
            strategies = build_strategies(clean, analysis)
        with run.span("core.portfolio"):
            portfolios = build_portfolios(clean, analysis=analysis, strategies=strategies)
        with run.span("core.search"):
            fractions = budget_fractions(clean, budgets=BUDGETS, trials=TRIALS, seed=seed)
        with run.span("index.compile"):
            index = build_index(clean, audit=audit, analysis=analysis, strategies=strategies)
        return clean, analysis, strategies, portfolios, fractions, index

    result, _ = run.attempt(analysed)
    if result is None:
        return None
    with run.span("bench.check"):
        problems = len(run.problems)
        digest = _check(run, seed, *result)
    run.note(f"analysis seed={seed} index_sha256={digest}")
    if len(run.problems) != problems:
        run.failed += 1
    return result[-1]
