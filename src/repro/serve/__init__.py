"""Online serving layer: the strategy advisor as a queryable service.

The paper's end product is advice — for any degree of specialisation
over {chip, application, input}, which optimisation configuration to
deploy.  The offline pipeline derives that advice in batch
(:mod:`repro.core.strategies`); this package makes it *servable*:

* :mod:`repro.serve.index` — compiles a checksummed
  ``strategy-index-v1`` artifact from a
  :class:`~repro.study.dataset.PerfDataset`: the precomputed
  Algorithm 1 strategy at every specialisation level, with
  expected-speedup, portability-slowdown and coverage metadata per
  entry, plus a table of pre-serialized response bytes for every
  lattice coordinate so the hot path never JSON-encodes.  Queries fall
  back *up* the specialisation lattice when the most-specialised cell
  is missing or quarantined, and such responses are marked
  ``degraded``.
* :mod:`repro.serve.server` — an asyncio, stdlib-only HTTP JSON API
  over a loaded index (``GET /v1/strategy``, ``POST /v1/predict``,
  ``GET /healthz``, ``GET /metrics``) with bounded concurrency,
  per-request timeouts, predict micro-batching, ``SO_REUSEPORT``
  multi-worker scale-out (``--workers N``) and graceful
  drain-on-signal shutdown.  Every strategy or portfolio answer is
  either the precompiled bytes or, for the long tail the table cannot
  enumerate, rendered per request into the same bytes.
* :mod:`repro.serve.predict` — online single-point pricing through the
  vectorized batch engine, backing ``POST /v1/predict``;
  :meth:`~repro.serve.predict.Predictor.price_many` prices a coalesced
  micro-batch in one locked pass.

See ``docs/serving.md`` for the API reference and artifact format.
"""

from __future__ import annotations

from .admission import AdmissionController, CircuitBreaker
from .index import (
    INDEX_FORMAT,
    IndexEntry,
    PortfolioAnswer,
    StrategyAnswer,
    StrategyIndex,
    build_index,
    render_answer,
    render_portfolio_answer,
)
from .predict import Predictor
from .refine import ObservationStore
from .server import PredictCoalescer, StrategyServer
from .supervisor import AdminListener, FleetSupervisor

__all__ = [
    "AdminListener",
    "AdmissionController",
    "CircuitBreaker",
    "FleetSupervisor",
    "INDEX_FORMAT",
    "IndexEntry",
    "ObservationStore",
    "PortfolioAnswer",
    "PredictCoalescer",
    "Predictor",
    "StrategyAnswer",
    "StrategyIndex",
    "StrategyServer",
    "build_index",
    "render_answer",
    "render_portfolio_answer",
]
