"""The precompiled strategy index: Algorithm 1, made servable.

``repro index`` compiles a :class:`~repro.study.dataset.PerfDataset`
into a ``strategy-index-v1`` artifact: for every specialisation level
of the paper's Table V lattice (global, chip, app, input, chip+app,
chip+input, app+input, chip+app+input — plus the baseline as the
recommendation of last resort), the recommended optimisation
configuration of every partition, annotated with

* **expected speedup** — geomean of ``median(baseline) /
  median(recommended)`` over the partition's tests (how much the
  advice is worth versus shipping the unoptimised kernel);
* **portability slowdown** — geomean of ``median(recommended) /
  median(oracle)`` over the partition's tests (how far the advice
  trails per-test exhaustive tuning — Fig 4 restricted to the
  partition);
* **coverage** — how many of the partition's (test × configuration)
  cells backed the recommendation, so a client can see when advice was
  derived from a holed or quarantined region of the study.

The input dataset is audited first (:mod:`repro.study.audit`):
quarantined cells never reach the analysis, and the artifact records
the source coverage including the quarantine count.

Queries (:meth:`StrategyIndex.lookup`) name any subset of
{chip, app, input}.  The most-specialised level covering the named
dimensions is served; when its cell is absent — the value was never
measured, or quarantine removed it — the lookup falls back *up* the
lattice (dropping one dimension at a time, most-specialised first)
and the answer is marked ``degraded`` with a coverage footnote.

The artifact additionally carries a **pre-serialized
answers table**: the full ``GET /v1/strategy`` response body for every
lattice point over the source dataset's coordinates (including the
degraded fallback variants a holed dataset produces), rendered once at
build time by :func:`render_answer`.  The server's hot path becomes a
dict lookup plus a socket write — no per-request JSON encoding — while
staying byte-identical to the encode-per-request path (the
``strategy-responses.json`` golden pins both).  The table is optional
on load: a ``strategy-index-v1`` artifact written before the table
existed still serves, rendering each answer per request.

The artifact is checksummed JSON with sorted keys: building it twice
from the same dataset produces byte-identical files, which the golden
test pins.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..compiler.options import BASELINE, OptConfig
from ..core.algorithm1 import SPECIALISATION_DIMS, Analysis
from ..core.cells import CellTable
from ..core.portfolio import (
    DEFAULT_TARGET,
    PortfolioCurve,
    PortfolioSet,
    build_portfolios,
)
from ..core.strategies import STRATEGY_DIMS, Strategy, build_strategies
from ..errors import AnalysisError, StrategyIndexError
from ..obs import get_recorder
from ..study.audit import DatasetAudit, audit_dataset
from ..study.dataset import Coverage, PerfDataset, TestCase
from ..util import atomic_write_text, geomean, sha256_hex

__all__ = [
    "INDEX_FORMAT",
    "LATTICE_LEVELS",
    "AnswerKey",
    "IndexEntry",
    "PortfolioAnswer",
    "StrategyAnswer",
    "StrategyIndex",
    "build_index",
    "fallback_chain",
    "level_name",
    "render_answer",
    "render_portfolio_answer",
]

#: Format tag of checksummed strategy-index artifacts.
INDEX_FORMAT = "strategy-index-v1"

#: Every queryable level, most- to least-specialised; ``baseline`` is
#: the recommendation of last resort (always present, always key ()).
LATTICE_LEVELS: Tuple[str, ...] = (
    "chip+app+input",
    "chip+app",
    "chip+input",
    "app+input",
    "chip",
    "app",
    "input",
    "global",
    "baseline",
)

#: The dimensions of each level (baseline and global are both
#: dimensionless; they differ in *what* they recommend, not where).
LEVEL_DIMS: Dict[str, Tuple[str, ...]] = dict(STRATEGY_DIMS)
LEVEL_DIMS["baseline"] = ()

#: A query's coordinates, ``None`` for an unnamed dimension — the key
#: of the pre-serialized answers tables.
AnswerKey = Tuple[Optional[str], Optional[str], Optional[str]]


def level_name(dims: Sequence[str]) -> str:
    """The canonical level name for a set of dimensions.

    Dimensions are ordered as in :data:`SPECIALISATION_DIMS`
    (chip, app, input) regardless of input order; the empty set names
    the fully portable ``global`` level.
    """
    ordered = [d for d in SPECIALISATION_DIMS if d in set(dims)]
    unknown = set(dims) - set(SPECIALISATION_DIMS)
    if unknown:
        raise StrategyIndexError(
            f"unknown specialisation dimension(s) {sorted(unknown)}; "
            f"expected a subset of {SPECIALISATION_DIMS}"
        )
    return "+".join(ordered) if ordered else "global"


def fallback_chain(dims: Sequence[str]) -> List[str]:
    """The lattice walk for a query naming ``dims``.

    Every level whose dimensions are a subset of ``dims``, ordered
    most- to least-specialised (ties broken by :data:`LATTICE_LEVELS`
    order), ending with ``global`` and then ``baseline``.  The first
    level with a populated cell answers the query; serving any level
    after the first marks the response degraded.
    """
    asked = set(dims)
    return [
        level
        for level in LATTICE_LEVELS
        if set(LEVEL_DIMS[level]) <= asked
    ]


@dataclass(frozen=True)
class IndexEntry:
    """One precompiled recommendation: a cell of the strategy index."""

    level: str
    key: Tuple[str, ...]
    config: str  # OptConfig.key()
    #: geomean median(baseline)/median(config) over the partition's
    #: tests; ``None`` when no test had both cells measured.
    expected_speedup: Optional[float]
    #: geomean median(config)/median(oracle) over the partition's
    #: tests; ``None`` when no test had both cells measured.
    slowdown_vs_oracle: Optional[float]
    #: Tests of the partition present in the dataset.
    n_tests: int
    #: The partition's measured (test × configuration) cells.
    cells_present: int
    cells_expected: int

    @property
    def cell_fraction(self) -> float:
        if not self.cells_expected:
            return 1.0
        return self.cells_present / self.cells_expected

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "config": self.config,
            "expected_speedup": self.expected_speedup,
            "slowdown_vs_oracle": self.slowdown_vs_oracle,
            "n_tests": self.n_tests,
            "cells_present": self.cells_present,
            "cells_expected": self.cells_expected,
        }

    @classmethod
    def from_dict(cls, level: str, data: dict) -> "IndexEntry":
        try:
            return cls(
                level=level,
                key=tuple(data["key"]),
                config=data["config"],
                expected_speedup=data["expected_speedup"],
                slowdown_vs_oracle=data["slowdown_vs_oracle"],
                n_tests=data["n_tests"],
                cells_present=data["cells_present"],
                cells_expected=data["cells_expected"],
            )
        except (KeyError, TypeError) as exc:
            raise StrategyIndexError(
                f"malformed index entry at level {level!r}: {exc!r}"
            ) from exc


@dataclass(frozen=True)
class StrategyAnswer:
    """What one query returns: a configuration plus its provenance."""

    config: str
    label: str
    requested_level: str
    served_level: str
    degraded: bool
    expected_speedup: Optional[float]
    slowdown_vs_oracle: Optional[float]
    n_tests: int
    note: str

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "label": self.label,
            "requested_level": self.requested_level,
            "served_level": self.served_level,
            "degraded": self.degraded,
            "expected_speedup": self.expected_speedup,
            "slowdown_vs_oracle": self.slowdown_vs_oracle,
            "n_tests": self.n_tests,
            "note": self.note,
        }


@dataclass(frozen=True)
class PortfolioAnswer:
    """What one portfolio query returns: K configs plus provenance."""

    requested_level: str
    served_level: str
    degraded: bool
    note: str
    #: Number of configurations actually served (never more than the
    #: partition's curve holds).
    k: int
    #: The fraction-of-oracle target the query resolved to (``None``
    #: when an explicit ``k`` made the target irrelevant).
    target: Optional[float]
    #: Fraction of oracle the served set retains over the partition.
    coverage: float
    meets_target: Optional[bool]
    configs: Tuple[str, ...]
    #: The full K-vs-coverage curve with marginal-gain provenance.
    curve: Tuple[dict, ...]
    n_tests: int

    def to_dict(self) -> dict:
        return {
            "requested_level": self.requested_level,
            "served_level": self.served_level,
            "degraded": self.degraded,
            "note": self.note,
            "k": self.k,
            "target": self.target,
            "coverage": self.coverage,
            "meets_target": self.meets_target,
            "configs": list(self.configs),
            "curve": [dict(step) for step in self.curve],
            "n_tests": self.n_tests,
        }


def render_portfolio_answer(
    index: "StrategyIndex",
    chip: Optional[str] = None,
    app: Optional[str] = None,
    input: Optional[str] = None,
    k: Optional[int] = None,
    target: Optional[float] = None,
) -> Tuple[bytes, bool]:
    """Render one ``GET /v1/portfolio`` response body to bytes.

    Like :func:`render_answer`, this is *the* encoding of a portfolio
    answer: ``repro index --portfolios`` pre-serializes the default
    (no ``k``, no ``target``) answer of every lattice point through it,
    and the server uses it verbatim for everything else, so the served
    bytes and the offline :mod:`repro.core.portfolio` computation
    cannot drift.  Returns ``(body, degraded)``.
    """
    answer = index.lookup_portfolio(
        chip=chip, app=app, input=input, k=k, target=target
    )
    payload = {
        "query": {
            "chip": chip,
            "app": app,
            "input": input,
            "k": k,
            "target": target,
        }
    }
    payload.update(answer.to_dict())
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return body, answer.degraded


def render_answer(
    index: "StrategyIndex",
    chip: Optional[str] = None,
    app: Optional[str] = None,
    input: Optional[str] = None,
) -> Tuple[bytes, bool]:
    """Render one ``GET /v1/strategy`` response body to bytes.

    This is *the* encoding of a strategy answer: the index builder
    pre-serializes every lattice point through it, and the server uses
    it verbatim for coordinates outside the precompiled table, so the
    two paths cannot drift.  Returns ``(body, degraded)``.
    """
    answer = index.lookup(chip=chip, app=app, input=input)
    payload = {"query": {"chip": chip, "app": app, "input": input}}
    payload.update(answer.to_dict())
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return body, answer.degraded


class StrategyIndex:
    """The compiled advisor: every strategy level, ready to query."""

    def __init__(
        self,
        levels: Dict[str, Dict[Tuple[str, ...], IndexEntry]],
        coverage: Coverage,
        meta: Optional[dict] = None,
        answers: Optional[Dict[AnswerKey, Tuple[bytes, bool]]] = None,
        portfolios: Optional[PortfolioSet] = None,
        portfolio_answers: Optional[Dict[AnswerKey, Tuple[bytes, bool]]] = None,
    ) -> None:
        self.levels = levels
        #: Source-dataset coverage (audited: quarantined cells counted).
        self.coverage = coverage
        self.meta = dict(meta or {})
        #: Pre-serialized response bodies keyed by query coordinates;
        #: empty for artifacts written before the table existed (the
        #: server then encodes on miss).
        self.answers: Dict[AnswerKey, Tuple[bytes, bool]] = dict(answers or {})
        #: K-vs-coverage portfolio curves per lattice level; ``None``
        #: unless compiled with ``repro index --portfolios`` (the
        #: section is optional and backward compatible).
        self.portfolios = portfolios
        #: Pre-serialized default-parameter portfolio bodies, keyed
        #: like :attr:`answers`.
        self.portfolio_answers: Dict[AnswerKey, Tuple[bytes, bool]] = dict(
            portfolio_answers or {}
        )

    # -- queries -----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return sum(len(cells) for cells in self.levels.values())

    @property
    def n_answers(self) -> int:
        return len(self.answers)

    def answer(self, key: AnswerKey) -> Optional[Tuple[bytes, bool]]:
        """The pre-serialized ``(body, degraded)`` pair, if compiled."""
        return self.answers.get(key)

    def _lattice_keys(self) -> Iterator[AnswerKey]:
        """Every combination of the source dataset's coordinates, each
        dimension optionally unnamed (``None``)."""
        return itertools.product(
            [None] + list(self.meta.get("chips", ())),
            [None] + list(self.meta.get("apps", ())),
            [None] + list(self.meta.get("inputs", ())),
        )

    def compile_answers(self) -> int:
        """Pre-serialize every lattice point's response body.

        Renders each of :meth:`_lattice_keys` through
        :func:`render_answer`, including the degraded fallback variants
        of holed or quarantined cells.  Returns the table size.
        """
        self.answers = {
            key: render_answer(self, chip=key[0], app=key[1], input=key[2])
            for key in self._lattice_keys()
        }
        return len(self.answers)

    @property
    def n_portfolio_answers(self) -> int:
        return len(self.portfolio_answers)

    def portfolio_answer(
        self, key: AnswerKey
    ) -> Optional[Tuple[bytes, bool]]:
        """The pre-serialized default portfolio body, if compiled."""
        return self.portfolio_answers.get(key)

    def compile_portfolio_answers(self) -> int:
        """Pre-serialize every lattice point's default portfolio body.

        The default answer (no explicit ``k`` or ``target``) is the one
        enumerable response per coordinate triple; explicit parameters
        are rendered per request instead.  Returns the table size.
        """
        if self.portfolios is None:
            raise StrategyIndexError(
                "cannot pre-serialize portfolio answers: the index has "
                "no portfolios (rebuild with repro index --portfolios)"
            )
        self.portfolio_answers = {
            key: render_portfolio_answer(
                self, chip=key[0], app=key[1], input=key[2]
            )
            for key in self._lattice_keys()
        }
        return len(self.portfolio_answers)

    def lookup_portfolio(
        self,
        chip: Optional[str] = None,
        app: Optional[str] = None,
        input: Optional[str] = None,
        k: Optional[int] = None,
        target: Optional[float] = None,
    ) -> PortfolioAnswer:
        """Answer one portfolio query, falling back up the lattice.

        ``k`` pins the portfolio size (coverage reports what the best
        of those K retains); without it the smallest K meeting
        ``target`` (default :data:`~repro.core.portfolio.DEFAULT_TARGET`)
        is served.  Fallback and ``degraded`` marking follow
        :meth:`lookup` exactly, except the walk ends at ``global`` —
        every portfolio level has a whole-fleet curve of last resort.
        """
        if self.portfolios is None:
            raise StrategyIndexError(
                "this strategy index has no portfolios table; rebuild "
                "the artifact with repro index --portfolios"
            )
        if k is not None and k < 1:
            raise StrategyIndexError(
                f"portfolio size k must be positive, got {k}"
            )
        if target is not None and not 0.0 < target <= 1.0:
            raise StrategyIndexError(
                f"portfolio target must be in (0, 1], got {target}"
            )
        provided = {"chip": chip, "app": app, "input": input}
        dims = tuple(
            d for d in SPECIALISATION_DIMS if provided[d] is not None
        )
        requested = level_name(dims)
        served: Optional[PortfolioCurve] = None
        for level in fallback_chain(dims):
            if level == "baseline":
                continue
            key = tuple(provided[d] for d in LEVEL_DIMS[level])
            served = self.portfolios.curve(level, key)
            if served is not None:
                break
        if served is None:
            raise StrategyIndexError(
                "portfolio table has no global curve; the artifact is "
                "incomplete"
            )
        degraded = served.level != requested
        note = ""
        if degraded:
            asked = ", ".join(
                f"{d}={provided[d]}" for d in dims
            ) or "the portable query"
            note = (
                f"no {requested!r} portfolio for {asked}; fell back to "
                f"{served.level!r}"
            )
            if not self.coverage.complete:
                note += f" (index derived from {self.coverage.describe()})"
        elif not self.coverage.complete:
            note = f"derived from {self.coverage.describe()}"
        resolved_target = target
        if k is None and resolved_target is None:
            resolved_target = DEFAULT_TARGET
        if k is not None:
            n = min(k, len(served.steps))
        else:
            n = served.k_for(resolved_target)
        configs = tuple(served.configs_for(max(1, n))) if served.steps else ()
        coverage = served.coverage_at(max(1, n)) if served.steps else 1.0
        return PortfolioAnswer(
            requested_level=requested,
            served_level=served.level,
            degraded=degraded,
            note=note,
            k=len(configs),
            target=resolved_target,
            coverage=coverage,
            meets_target=(
                coverage >= resolved_target
                if resolved_target is not None
                else None
            ),
            configs=configs,
            curve=tuple(step.to_dict() for step in served.steps),
            n_tests=served.n_tests,
        )

    def entry(self, level: str, key: Sequence[str]) -> Optional[IndexEntry]:
        return self.levels.get(level, {}).get(tuple(key))

    def lookup(
        self,
        chip: Optional[str] = None,
        app: Optional[str] = None,
        input: Optional[str] = None,
    ) -> StrategyAnswer:
        """Answer one advisory query, falling back up the lattice.

        The named dimensions select the requested level (none →
        ``global``).  The most-specialised populated cell covering them
        answers; serving a less-specialised level than requested marks
        the answer ``degraded`` and the note carries the coverage
        footnote an offline report would print.
        """
        provided = {"chip": chip, "app": app, "input": input}
        dims = tuple(
            d for d in SPECIALISATION_DIMS if provided[d] is not None
        )
        requested = level_name(dims)
        served: Optional[IndexEntry] = None
        for level in fallback_chain(dims):
            key = tuple(provided[d] for d in LEVEL_DIMS[level])
            served = self.entry(level, key)
            if served is not None:
                break
        if served is None:
            # An index always carries a baseline entry; an artifact
            # without one is not an index we built.
            raise StrategyIndexError(
                "strategy index has no baseline entry; the artifact is "
                "incomplete"
            )
        degraded = served.level != requested
        note = ""
        if degraded:
            asked = ", ".join(
                f"{d}={provided[d]}" for d in dims
            ) or "the portable query"
            note = (
                f"no {requested!r} strategy for {asked}; fell back to "
                f"{served.level!r}"
            )
            if not self.coverage.complete:
                note += f" (index derived from {self.coverage.describe()})"
        elif not self.coverage.complete:
            note = f"derived from {self.coverage.describe()}"
        return StrategyAnswer(
            config=served.config,
            label=_config_label(served.config),
            requested_level=requested,
            served_level=served.level,
            degraded=degraded,
            expected_speedup=served.expected_speedup,
            slowdown_vs_oracle=served.slowdown_vs_oracle,
            n_tests=served.n_tests,
            note=note,
        )

    def describe(self) -> str:
        """One-line human summary for logs and the CLI."""
        per_level = ", ".join(
            f"{level}:{len(self.levels[level])}"
            for level in LATTICE_LEVELS
            if level in self.levels
        )
        answers = (
            f"{self.n_answers} pre-serialized answers; "
            if self.answers
            else ""
        )
        portfolios = (
            f"{self.portfolios.n_curves} portfolio curves; "
            if self.portfolios is not None
            else ""
        )
        return (
            f"{self.n_entries} entries ({per_level}); {answers}{portfolios}"
            f"source coverage {self.coverage.describe()}"
        )

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "meta": self.meta,
            "coverage": {
                "present": self.coverage.present,
                "expected": self.coverage.expected,
                "quarantined": self.coverage.quarantined,
                "holes": list(self.coverage.holes),
            },
            "levels": {
                level: [
                    entry.to_dict()
                    for _, entry in sorted(cells.items())
                ]
                for level, cells in self.levels.items()
            },
        }
        if self.answers:
            # Bodies are UTF-8 JSON text, stored as (escaped) strings;
            # keys are the JSON-encoded coordinate triple, so values
            # containing separators can never collide.
            data["answers"] = {
                json.dumps(list(key)): [body.decode("utf-8"), degraded]
                for key, (body, degraded) in self.answers.items()
            }
        if self.portfolios is not None:
            # Optional, like ``answers``: an artifact built without
            # --portfolios (or before the table existed) omits the key
            # entirely, so pre-portfolio files round-trip byte-for-byte.
            section: dict = {"levels": self.portfolios.to_dict()}
            if self.portfolio_answers:
                section["answers"] = {
                    json.dumps(list(key)): [body.decode("utf-8"), degraded]
                    for key, (body, degraded) in self.portfolio_answers.items()
                }
            data["portfolios"] = section
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyIndex":
        if not isinstance(data, dict) or not isinstance(
            data.get("levels"), dict
        ):
            raise StrategyIndexError(
                "malformed strategy index payload: expected an object "
                "with a 'levels' mapping"
            )
        levels: Dict[str, Dict[Tuple[str, ...], IndexEntry]] = {}
        for level, entries in data["levels"].items():
            if level not in LATTICE_LEVELS:
                raise StrategyIndexError(
                    f"unknown index level {level!r}; expected one of "
                    f"{LATTICE_LEVELS}"
                )
            cells: Dict[Tuple[str, ...], IndexEntry] = {}
            for raw in entries:
                entry = IndexEntry.from_dict(level, raw)
                cells[entry.key] = entry
            levels[level] = cells
        cov = data.get("coverage", {})
        coverage = Coverage(
            present=cov.get("present", 0),
            expected=cov.get("expected", 0),
            quarantined=cov.get("quarantined", 0),
            holes=tuple(cov.get("holes", ())),
        )
        answers = _parse_answer_table(data.get("answers", {}))
        portfolios: Optional[PortfolioSet] = None
        portfolio_answers: Dict[AnswerKey, Tuple[bytes, bool]] = {}
        raw_portfolios = data.get("portfolios")
        if raw_portfolios is not None:
            if not isinstance(raw_portfolios, dict):
                raise StrategyIndexError(
                    "malformed strategy index payload: 'portfolios' "
                    "must be an object with 'levels' (and optionally "
                    "'answers')"
                )
            try:
                portfolios = PortfolioSet.from_dict(
                    raw_portfolios.get("levels", {}), coverage=coverage
                )
            except AnalysisError as exc:
                raise StrategyIndexError(
                    f"malformed portfolios table: {exc}"
                ) from exc
            portfolio_answers = _parse_answer_table(
                raw_portfolios.get("answers", {})
            )
        return cls(
            levels,
            coverage,
            meta=data.get("meta", {}),
            answers=answers,
            portfolios=portfolios,
            portfolio_answers=portfolio_answers,
        )

    def save(self, path: str) -> None:
        """Atomically write the checksummed ``strategy-index-v1`` file."""
        body = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        payload = (
            f'{{"format": "{INDEX_FORMAT}", '
            f'"checksum": "{sha256_hex(body)}", '
            f'"index": {body}}}'
        )
        atomic_write_text(path, payload)

    @classmethod
    def load(cls, path: str) -> "StrategyIndex":
        """Load an index, refusing truncation, corruption or drift."""
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise StrategyIndexError(
                f"cannot read strategy index {path!r}: {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise StrategyIndexError(
                f"corrupt strategy index {path!r}: not UTF-8 text ({exc})"
            ) from exc
        return cls.loads(text, source=path)

    @classmethod
    def loads(cls, text: str, source: str = "<memory>") -> "StrategyIndex":
        """Parse and validate artifact *text* (checksum + format tag).

        The hot-reload path reads the candidate file itself and hands
        the text here, so validation — and the rollback it triggers —
        is one shared code path with :meth:`load`; ``source`` only
        labels error messages.
        """
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StrategyIndexError(
                f"corrupt strategy index {source!r}: truncated or invalid "
                f"JSON ({exc})"
            ) from exc
        if not isinstance(parsed, dict) or parsed.get("format") != INDEX_FORMAT:
            raise StrategyIndexError(
                f"unrecognised strategy index {source!r} "
                f"(expected format {INDEX_FORMAT!r})"
            )
        body = json.dumps(
            parsed.get("index", {}), sort_keys=True, separators=(",", ":")
        )
        if sha256_hex(body) != parsed.get("checksum"):
            raise StrategyIndexError(
                f"corrupt strategy index {source!r}: checksum mismatch "
                f"(the file was modified or partially written)"
            )
        return cls.from_dict(parsed["index"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StrategyIndex(entries={self.n_entries}, "
            f"levels={len(self.levels)})"
        )


def _parse_answer_table(
    raw: object,
) -> Dict[AnswerKey, Tuple[bytes, bool]]:
    """Decode a pre-serialized answer table from an artifact payload."""
    if not isinstance(raw, dict):
        raise StrategyIndexError(
            "malformed strategy index payload: 'answers' must be a "
            "mapping of coordinate keys to [body, degraded] pairs"
        )
    answers: Dict[AnswerKey, Tuple[bytes, bool]] = {}
    for key_str, pair in raw.items():
        try:
            coords = json.loads(key_str)
            body, degraded = pair
            if len(coords) != 3 or not isinstance(body, str):
                raise ValueError(f"bad answer entry {key_str!r}")
        except (ValueError, TypeError) as exc:
            raise StrategyIndexError(
                f"malformed pre-serialized answer {key_str!r}: {exc}"
            ) from exc
        answers[tuple(coords)] = (body.encode("utf-8"), bool(degraded))
    return answers


def _config_label(config_key: str) -> str:
    """Human label for a stored configuration key."""
    if config_key == "baseline":
        return "baseline"
    return OptConfig.from_names(config_key.split("+")).label()


def _entry_metadata(
    cells: CellTable,
    tests: Sequence[TestCase],
    config_key: str,
    oracle: Dict[TestCase, Optional[str]],
    n_configs: int,
) -> Tuple[Optional[float], Optional[float], int, int]:
    """(expected_speedup, slowdown_vs_oracle, cells_present, cells_expected)."""
    speedups: List[float] = []
    slowdowns: List[float] = []
    cells_present = 0
    for test in tests:
        row = cells.row(test)
        cfg, base = row.get(config_key), row.get(BASELINE.key())
        if cfg is not None and base is not None:
            speedups.append(base.median / cfg.median)
            best = row.get(oracle.get(test))
            if best is not None:
                slowdowns.append(cfg.median / best.median)
        cells_present += len(row)
    return (
        geomean(speedups) if speedups else None,
        geomean(slowdowns) if slowdowns else None,
        cells_present,
        len(tests) * n_configs,
    )


def build_index(
    dataset: PerfDataset,
    *,
    audit: Optional[DatasetAudit] = None,
    analysis: Optional[Analysis] = None,
    strategies: Optional[Dict[str, Strategy]] = None,
    recorder=None,
    portfolios: bool = False,
) -> StrategyIndex:
    """Compile a :class:`StrategyIndex` from a dataset.

    The dataset is audited first unless a prior
    :class:`~repro.study.audit.DatasetAudit` is supplied: quarantined
    cells never back a recommendation, and the artifact's coverage
    record includes the quarantine count.  ``analysis`` and
    ``strategies`` allow reuse of an existing Algorithm 1 run (e.g.
    the experiment cache); they must have been built on the *audited*
    dataset.  ``portfolios=True`` additionally compiles the greedy
    K-vs-coverage portfolio of every lattice partition (and its
    pre-serialized default answers) into the artifact's optional
    ``portfolios`` table — off by default so existing artifacts stay
    byte-identical.
    """
    rec = recorder if recorder is not None else get_recorder()
    with rec.span("index.build") as span:
        if audit is None:
            audit = audit_dataset(dataset)
        clean = audit.dataset
        if analysis is None:
            analysis = Analysis(clean)
        if strategies is None:
            strategies = build_strategies(clean, analysis)

        n_configs = len(clean.configs)
        table = analysis.cells
        oracle = {test: table.oracle(test) for test in clean.tests}

        levels: Dict[str, Dict[Tuple[str, ...], IndexEntry]] = {}
        for level, dims in STRATEGY_DIMS.items():
            partitions = analysis.partitions(dims)
            cells: Dict[Tuple[str, ...], IndexEntry] = {}
            with rec.span("index.level", level=level) as level_span:
                for key, config in strategies[level].assignment.items():
                    tests = partitions.get(key, [])
                    speedup, slowdown, present, expected = _entry_metadata(
                        table, tests, config.key(), oracle, n_configs
                    )
                    cells[key] = IndexEntry(
                        level=level,
                        key=key,
                        config=config.key(),
                        expected_speedup=speedup,
                        slowdown_vs_oracle=slowdown,
                        n_tests=len(tests),
                        cells_present=present,
                        cells_expected=expected,
                    )
                level_span.set("entries", len(cells))
            rec.count("index.entries", len(cells))
            levels[level] = cells

        # The recommendation of last resort: ship the baseline.  Its
        # expected speedup is identically 1; its slowdown vs oracle
        # quantifies what giving up entirely costs.
        all_tests = clean.tests
        speedup, slowdown, present, expected = _entry_metadata(
            table, all_tests, BASELINE.key(), oracle, n_configs
        )
        levels["baseline"] = {
            (): IndexEntry(
                level="baseline",
                key=(),
                config=BASELINE.key(),
                expected_speedup=speedup,
                slowdown_vs_oracle=slowdown,
                n_tests=len(all_tests),
                cells_present=present,
                cells_expected=expected,
            )
        }
        rec.count("index.entries", 1)

        coverage = audit.coverage
        meta = {
            "apps": clean.apps,
            "chips": clean.chips,
            "inputs": clean.graphs,
            "n_configs": n_configs,
            "n_tests": len(all_tests),
        }
        index = StrategyIndex(levels, coverage, meta=meta)
        # Pre-serialize every answer the index can give, so the server's
        # hot path is a dict lookup and a socket write — no per-request
        # JSON encoding (ISSUE 6's zero-encode contract).
        with rec.span("index.answers"):
            n_answers = index.compile_answers()
        rec.count("index.answers", n_answers)
        if portfolios:
            with rec.span("index.portfolios"):
                index.portfolios = build_portfolios(
                    clean, analysis=analysis, strategies=strategies
                )
                n_portfolio = index.compile_portfolio_answers()
            rec.count("index.portfolio_curves", index.portfolios.n_curves)
            rec.count("index.portfolio_answers", n_portfolio)
            span.set("portfolio_curves", index.portfolios.n_curves)
        span.set("entries", sum(len(c) for c in levels.values()))
        span.set("answers", n_answers)
    return index


def main(argv=None) -> int:
    """CLI: ``python -m repro index DATASET OUTPUT``."""
    import argparse
    import sys

    from ..cli import metrics_parent, save_run_report
    from ..errors import DatasetError, InsufficientCoverageError
    from ..obs import NULL_RECORDER, Recorder, recording
    from ..study.audit import DEFAULT_COVERAGE_FLOOR, require_coverage

    parser = argparse.ArgumentParser(
        prog="repro-index",
        parents=[metrics_parent()],
        description=(
            "Compile a checksummed strategy-index-v1 artifact from a "
            "study dataset, for python -m repro serve."
        ),
    )
    parser.add_argument(
        "dataset",
        help="input PerfDataset: JSON (.gz ok) or binary columnar (.v3)",
    )
    parser.add_argument("output", help="path for the strategy-index artifact")
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=DEFAULT_COVERAGE_FLOOR,
        metavar="FRACTION",
        help=(
            "refuse to compile below this audited cell-coverage "
            f"fraction (default {DEFAULT_COVERAGE_FLOOR}); degraded "
            "datasets above the floor compile with coverage metadata"
        ),
    )
    parser.add_argument(
        "--portfolios",
        action="store_true",
        help=(
            "also compile the greedy K-vs-coverage portfolio of every "
            "lattice partition into the artifact (enables GET "
            "/v1/portfolio on the server)"
        ),
    )
    args = parser.parse_args(argv)

    rec = Recorder() if args.metrics else NULL_RECORDER
    try:
        dataset = PerfDataset.load(args.dataset)
    except DatasetError as exc:
        print(f"[index] {exc}", file=sys.stderr)
        return 1
    audit = audit_dataset(dataset)
    try:
        require_coverage(audit.coverage, args.min_coverage)
    except InsufficientCoverageError as exc:
        print(f"[index] {exc}", file=sys.stderr)
        return 1
    with recording(rec):
        index = build_index(
            audit.dataset,
            audit=audit,
            recorder=rec,
            portfolios=args.portfolios,
        )
    index.save(args.output)
    print(f"[index] wrote {args.output}: {index.describe()}")
    if args.metrics:
        save_run_report(
            rec,
            args.metrics,
            meta={"dataset": args.dataset, "output": args.output},
        )
        print(f"[index] wrote run report to {args.metrics}", file=sys.stderr)
    return 0
