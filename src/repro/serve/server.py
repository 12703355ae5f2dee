"""The strategy advisor as an asyncio HTTP JSON API.

``python -m repro serve INDEX`` loads a ``strategy-index-v1`` artifact
(:mod:`repro.serve.index`) and answers over plain HTTP/1.1 — stdlib
asyncio only, no web framework:

* ``GET /v1/strategy?chip=&app=&input=`` — the precompiled Algorithm 1
  recommendation for any subset of the three dimensions, falling back
  up the specialisation lattice (and marked ``degraded``) when the
  most-specialised cell is missing or quarantined; ``&refine=1`` opts
  into the online explore/exploit mode (:mod:`repro.serve.refine`):
  a fully-specified query whose index answer would be degraded instead
  consults live ``/v1/predict`` observations and, on a hit, returns a
  ``"refined": true`` answer with provenance — non-refined responses
  stay byte-identical to the normal path;
* ``GET /v1/portfolio?chip=&app=&input=&k=&target=`` — the greedy
  "few fit most" configuration portfolio for the queried partition:
  the best K code versions to ship, their fraction-of-oracle coverage
  and the full K-vs-coverage curve; requires an index built with
  ``repro index --portfolios`` (501 otherwise), with the same lattice
  fallback and ``degraded`` marking as ``/v1/strategy``;
* ``POST /v1/predict`` — online pricing of explicit (chip, app, input,
  config) points through the vectorized batch engine; ``config`` may
  be omitted to price whatever the advisor recommends;
* ``GET /healthz`` — liveness plus index shape;
* ``GET /metrics`` — the recorder's counters/gauges/histograms (spans
  are excluded: a long-lived server would grow them without bound).

Operational behaviour:

* **zero-encode answers** — ``GET /v1/strategy`` for coordinates of
  the index's own lattice is served straight from the artifact's
  pre-serialized bytes table (:meth:`StrategyIndex.answer`): a dict
  lookup and a socket write, no per-request JSON encoding.  Unknown
  coordinates, explicit portfolio ``k``/``target`` and pre-table
  artifacts are rendered per request (:func:`render_answer`), tens of
  microseconds each, into the same bytes the table would hold;
* **bounded concurrency** — at most ``max_concurrency`` requests are
  dispatched at once (an :class:`asyncio.Semaphore`); the rest queue;
* **per-request timeout** — a dispatch exceeding ``request_timeout``
  returns 503 and counts ``serve.timeouts``;
* **predict micro-batching** — concurrent ``POST /v1/predict`` items
  are group-committed (up to ``predict_max_batch``) into one vectorized
  :meth:`~repro.serve.predict.Predictor.price_many` call on one pricing
  thread: items arriving while a batch prices ride the next one, so
  predict throughput rides the batch engine's speedup instead of
  paying one thread round-trip per item — while each item's numbers
  stay study-identical;
* **multi-worker** — ``repro serve --workers N`` forks N processes
  sharing one port via ``SO_REUSEPORT``; each worker runs this server
  unchanged, and per-worker recorders are merged through the standard
  ``drain()/merge()`` path into one run report that reconciles exactly
  with the total requests served;
* **supervision** — the fleet parent runs a
  :class:`~repro.serve.supervisor.FleetSupervisor`: a dead worker is
  respawned with exponential backoff under a ``--max-restarts``
  budget (budget exhausted → clean escalation, exit ≠ 0), workers
  ship periodic heartbeat metric deltas so a kill -9 loses at most
  one interval of counters, and ``serve.workers.{restarts,deaths}``
  land in the merged run report;
* **overload shedding** — optional per-endpoint-class admission
  watermarks (:mod:`repro.serve.admission`) refuse excess load as
  ``429 + Retry-After`` before it queues, browning out expensive
  ``/v1/predict`` before cheap precompiled lookups, and a circuit
  breaker turns predict-engine failure bursts into fast-fail 503s
  with half-open probing;
* **index hot-reload** — ``SIGHUP`` (or ``POST /admin/reload`` on a
  loopback-only ``--admin-port``) re-reads the index path, validates
  checksum + format tag, and atomically swaps the new index in; any
  validation failure rolls back to the serving index
  (``serve.reload.*`` counters, generation in ``/healthz``);
* **fault injection** — ``--faults DIR`` arms the standard
  :class:`~repro.faults.FaultPlan` tokens at serve-path points
  (worker crash, slow handler, corrupt reload candidate) so the chaos
  harness (``benchmarks/bench_serve.py --chaos``) and the supervisor
  tests drive every recovery path deterministically;
* **graceful shutdown** — SIGTERM/SIGINT stop the listener, let
  in-flight requests drain, flush the ``--metrics`` sidecar and exit 0.

Every response body is ``json.dumps(payload, sort_keys=True)`` — the
pre-serialized table stores exactly those bytes — so two servers over
the same index give byte-identical answers; the e2e test holds the
server to the offline :mod:`repro.core.strategies` path and the
``strategy-responses.json`` golden pins the encoding itself.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from ..errors import FlushTimeoutError, PredictionError, ServeError
from ..faults import (
    FaultPlan,
    SERVE_HANDLER_SLOW,
    SERVE_RELOAD_CORRUPT,
    SERVE_WORKER_CRASH,
)
from ..obs import NULL_RECORDER
from .admission import LOOKUP, PREDICT, AdmissionController, CircuitBreaker
from .index import (
    StrategyIndex,
    _config_label,
    render_answer,
    render_portfolio_answer,
)
from .predict import Predictor
from .refine import DEFAULT_CAPACITY, ObservationStore

__all__ = ["PredictCoalescer", "StrategyServer", "MAX_BODY_BYTES"]

#: Largest accepted request body; bigger POSTs get 413.
MAX_BODY_BYTES = 1 << 20

#: Paths exempt from admission control: liveness probes must answer
#: even when the data plane is shedding, or the orchestrator mistakes
#: "saturated" for "dead" and kills the worker.
_CONTROL_PLANE_PATHS = frozenset({"/healthz", "/metrics"})

#: Largest accepted request line + headers block.
_MAX_HEADER_BYTES = 16384

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An error with a definite HTTP status, raised by handlers."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        #: When set, the response carries a ``Retry-After`` header.
        self.retry_after = retry_after


class PredictCoalescer:
    """Micro-batches concurrent predict items into one engine call.

    Items submitted via :meth:`price` are group-committed: when no
    batch is pricing, the pending items flush on the next event-loop
    tick; items that arrive while a batch prices wait, and flush
    together as one batch when it ends (or as soon as ``max_batch`` are
    pending).  So a lone item waits for no timer, and under load the
    batch grows to whatever arrived during the previous one.  A batch
    stops counting as pricing when its dispatch returns, whether it
    finished or hit ``flush_timeout``.

    Each batch is one :meth:`~repro.serve.predict.Predictor.price_many`
    call (one lock, one pass; per-item failures come back as
    :class:`~repro.errors.PredictionError` *values*) on the coalescer's
    one pricing thread, not the loop's shared executor: the predictor's
    lock serialises pricing anyway.  Each caller awaits its own future, so
    per-item results — and per-item errors — are preserved exactly;
    coalescing changes *when* pricing happens, never *what* it returns.

    ``window > 0`` opts into a timer instead: the first pending
    item arms a ``window``-second timer and everything pending when it
    fires (or at ``max_batch``) flushes, whether or not a batch is
    pricing.  Everything runs on the event loop thread except the batch
    itself, so no locking is needed here.

    ``flush_timeout`` puts a hard deadline on each flushed batch: a
    single slow or oversized batch would otherwise stall *every*
    coalesced waiter past the request timeout, burning one dispatch
    slot per waiter.  On deadline every waiter gets a
    :class:`~repro.errors.FlushTimeoutError` (a per-item 503) and
    ``serve.predict.flush_timeouts`` counts the batch; the abandoned
    batch finishes on the pricing thread in the background and its
    results are discarded.  ``flush_timeout=0`` disables the deadline.
    """

    def __init__(
        self,
        predictor,
        recorder=None,
        *,
        window: float = 0.0,
        max_batch: int = 32,
        flush_timeout: float = 0.0,
    ) -> None:
        if window < 0:
            raise ServeError("predict window must be non-negative")
        if max_batch < 1:
            raise ServeError("predict max_batch must be positive")
        if flush_timeout < 0:
            raise ServeError("predict flush_timeout must be non-negative")
        self.predictor = predictor
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.window = window
        self.max_batch = max_batch
        self.flush_timeout = flush_timeout
        self._pending: List[tuple] = []
        #: The armed flush: a next-tick callback, or the window timer.
        self._timer: Optional[asyncio.Handle] = None
        #: Batches flushed whose dispatch has not returned yet.
        self._pricing = 0
        self._thread: Optional[ThreadPoolExecutor] = None
        #: The last batch handed to the thread; the thread runs batches
        #: in order, so when this one is done the thread is idle.
        self._last: Optional[Future] = None

    async def price(self, chip: str, app: str, inp: str, config) -> dict:
        """Submit one item; resolves to its result (or raises its error)."""
        loop = asyncio.get_event_loop()
        future = loop.create_future()
        self._pending.append((chip, app, inp, config, future))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            if self.window > 0:
                self._timer = loop.call_later(self.window, self._flush)
            elif not self._pricing:
                self._timer = loop.call_soon(self._flush)
        return await future

    def stop(self) -> None:
        """Shut the pricing thread down.

        Joins the thread when it is idle; a batch still running on it
        (one abandoned at its flush deadline) is not waited for, and
        the thread exits when that batch returns.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            last = self._last
            thread.shutdown(wait=last is None or last.done())

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        if batch:
            self._pricing += 1
            asyncio.ensure_future(self._run(batch))

    async def _run(self, batch: List[tuple]) -> None:
        try:
            await self._price_batch(batch)
        finally:
            self._pricing -= 1
        if not self.window and not self._pricing and self._pending:
            self._flush()

    async def _price_batch(self, batch: List[tuple]) -> None:
        rec = self.recorder
        rec.count("serve.predict.batches")
        rec.observe("serve.predict.batch_size", float(len(batch)))
        if self._thread is None:
            self._thread = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-predict"
            )
        items = [(chip, app, inp, cfg) for chip, app, inp, cfg, _ in batch]
        try:
            self._last = self._thread.submit(self.predictor.price_many, items)
            call = asyncio.wrap_future(self._last)
            if self.flush_timeout > 0:
                results = await asyncio.wait_for(call, self.flush_timeout)
            else:
                results = await call
        except asyncio.TimeoutError:
            rec.count("serve.predict.flush_timeouts")
            deadline_exc = FlushTimeoutError(
                f"coalesced predict batch of {len(batch)} item(s) "
                f"exceeded the {self.flush_timeout}s flush deadline"
            )
            for *_, future in batch:
                if not future.done():
                    future.set_exception(deadline_exc)
            return
        except Exception as exc:  # engine-level failure: fail every item
            for *_, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (*_, future), result in zip(batch, results):
            if future.done():  # caller timed out or was cancelled
                continue
            if isinstance(result, PredictionError):
                future.set_exception(result)
            else:
                future.set_result(result)


class StrategyServer:
    """Serves one loaded :class:`~repro.serve.index.StrategyIndex`.

    The server binds lazily in :meth:`start` (``port=0`` picks a free
    port; the resolved one is in :attr:`port`) and runs until
    :meth:`stop` or a signal installed by :func:`main`.  All asyncio
    primitives are created inside the running loop for 3.9
    compatibility.
    """

    def __init__(
        self,
        index: StrategyIndex,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 64,
        request_timeout: float = 10.0,
        idle_timeout: float = 60.0,
        recorder=None,
        predictor: Optional[Predictor] = None,
        clock: Callable[[], float] = time.perf_counter,
        reuse_port: bool = False,
        worker_id: Optional[int] = None,
        predict_window: float = 0.0,
        predict_max_batch: int = 32,
        observations: Optional[ObservationStore] = None,
        refine_capacity: int = DEFAULT_CAPACITY,
        predict_flush_timeout: float = 0.0,
        admission: Optional[AdmissionController] = None,
        breaker: Optional[CircuitBreaker] = None,
        index_path: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        admin_port: Optional[int] = None,
        incarnation: int = 0,
    ) -> None:
        if max_concurrency < 1:
            raise ServeError("max_concurrency must be positive")
        if request_timeout <= 0:
            raise ServeError("request_timeout must be positive")
        if predict_window < 0:
            raise ServeError("predict_window must be non-negative")
        if predict_max_batch < 1:
            raise ServeError("predict_max_batch must be positive")
        self.index = index
        self.host = host
        self.port = port
        self.max_concurrency = max_concurrency
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.predictor = predictor
        self._clock = clock
        #: Bind with ``SO_REUSEPORT`` so sibling worker processes can
        #: share the listening port (``repro serve --workers N``).
        self.reuse_port = reuse_port
        #: This process's index in a ``--workers`` fleet (``None`` when
        #: single-process); exposed in ``/metrics`` so scrapers cannot
        #: mistake one worker's counters for service totals.
        self.worker_id = worker_id
        self.predict_window = predict_window
        self.predict_max_batch = predict_max_batch
        #: Live /v1/predict observations backing ?refine=1 strategy
        #: answers (bounded LRU; injectable for tests).
        self.observations = (
            observations
            if observations is not None
            else ObservationStore(refine_capacity)
        )
        self.predict_flush_timeout = predict_flush_timeout
        #: Overload shedding + predict circuit breaking; both default
        #: to disabled instances so the hot path has one code shape.
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_concurrency=max_concurrency)
        )
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker()
        )
        #: Where ``SIGHUP`` / ``POST /admin/reload`` re-reads the index
        #: from; ``None`` disables hot reload (in-memory index only).
        self.index_path = index_path
        #: Armed serve-path fault tokens (``--faults DIR``); ``None``
        #: in production means every fault hook is a no-op.
        self.faults = faults
        #: Loopback-only admin port (``POST /admin/reload``); ``None``
        #: binds no admin listener.
        self.admin_port = admin_port
        #: How many times this worker slot has been respawned by the
        #: fleet supervisor (0 for the first spawn / single-process).
        self.incarnation = incarnation
        self.index_generation = 0
        self.reloads = 0
        self.reload_failures = 0
        self._reload_lock: Optional[asyncio.Lock] = None
        self._coalescer: Optional[PredictCoalescer] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._stopping: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._busy: set = set()
        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._stopping = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        if self.predictor is not None:
            self._coalescer = PredictCoalescer(
                self.predictor,
                self.recorder,
                window=self.predict_window,
                max_batch=self.predict_max_batch,
                flush_timeout=self.predict_flush_timeout,
            )
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.admin_port is not None:
            # Admin surface is deliberately loopback-only: reload is an
            # operator action, never an internet-facing endpoint.
            self._admin_server = await asyncio.start_server(
                self._handle_admin, "127.0.0.1", self.admin_port
            )
            self.admin_port = self._admin_server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_shutdown` (or :meth:`stop`) fires."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self._shutdown()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (signal-handler safe)."""
        if self._stopping is not None and not self._stopping.is_set():
            self._stopping.set()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight requests, then close."""
        self.request_shutdown()
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is None:
            return
        # Stop accepting new connections first.
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
            self._admin_server = None
        # Let busy connections finish their current request (bounded by
        # the per-request timeout plus slack), then drop idle keep-alive
        # connections, which would otherwise pin the loop open.
        deadline = self._clock() + self.request_timeout + 1.0
        while self._busy and self._clock() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if self._coalescer is not None:
            self._coalescer.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break
                except _HttpError as exc:
                    # Unparseable request: answer and drop the connection
                    # (the stream position is no longer trustworthy).
                    self.recorder.count("serve.errors")
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, False
                    )
                    break
                if request is None:  # clean EOF between requests
                    break
                method, target, body, keep_alive = request
                self._busy.add(task)
                try:
                    status, payload, headers = await self._dispatch(
                        method, target, body
                    )
                finally:
                    self._busy.discard(task)
                if self._stopping is not None and self._stopping.is_set():
                    keep_alive = False
                await self._write_response(
                    writer, status, payload, keep_alive, extra_headers=headers
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
                self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        Timeouts are split by intent: waiting for the *first* byte of
        a request is normal keep-alive idleness (``idle_timeout``;
        raises :class:`asyncio.TimeoutError`, the caller closes
        silently), while a client that starts a request and then
        trickles it — a slow-loris — gets ``request_timeout`` to
        deliver the rest, after which the server answers 408 and drops
        the connection.  Oversized lines are rejected as 400 even when
        the transport's read buffer gives up before our own counter
        does (``LimitOverrunError`` surfaces as ``ValueError``).
        """
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.idle_timeout
            )
        except ValueError:
            raise _HttpError(400, "request line too long")
        if not line:
            return None
        if len(line) > _MAX_HEADER_BYTES:
            raise _HttpError(400, "request line too long")

        # One cumulative deadline for the whole request: a trickler
        # cannot reset its clock by delivering one byte per read.
        deadline = self._clock() + self.request_timeout

        timed_out = _HttpError(
            408,
            f"timed out reading the request after "
            f"{self.request_timeout}s (slow client)",
        )

        async def _read_more(coro):
            remaining = deadline - self._clock()
            if remaining <= 0:
                coro.close()
                raise timed_out
            try:
                return await asyncio.wait_for(coro, remaining)
            except asyncio.TimeoutError:
                raise timed_out
            except ValueError:
                raise _HttpError(400, "header line too long")

        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {line!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        total = len(line)
        while True:
            hline = await _read_more(reader.readline())
            total += len(hline)
            if total > _MAX_HEADER_BYTES:
                raise _HttpError(400, "headers too large")
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HttpError(400, f"bad Content-Length {length!r}")
            if n < 0:
                raise _HttpError(400, "negative Content-Length")
            if n > MAX_BODY_BYTES:
                raise _HttpError(
                    413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            body = await _read_more(reader.readexactly(n))
        keep_alive = headers.get("connection", "").lower() != "close" and (
            version.upper() != "HTTP/1.0"
            or headers.get("connection", "").lower() == "keep-alive"
        )
        return method, target, body, keep_alive

    async def _write_response(
        self,
        writer,
        status: int,
        payload: Union[dict, bytes],
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # The zero-encode hot path hands pre-serialized bodies straight
        # through; everything else still encodes here.  Both are the
        # same ``json.dumps(..., sort_keys=True)`` bytes by contract.
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        extra = ""
        if extra_headers:
            extra = "".join(
                f"{name}: {value}\r\n"
                for name, value in extra_headers.items()
            )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[dict, bytes], Optional[Dict[str, str]]]:
        """Route one request; never raises."""
        rec = self.recorder
        rec.count("serve.requests")
        self.requests_served += 1
        started = self._clock()
        headers: Optional[Dict[str, str]] = None
        if self.faults is not None:
            # Hard worker death mid-dispatch (chaos harness): the
            # process disappears without unwinding, like an OOM kill.
            self.faults.fire("crash", SERVE_WORKER_CRASH)
        # Admission: refuse work the server cannot finish in time as a
        # cheap 429 *before* it queues at the semaphore.  Expensive
        # predict sheds before cheap precompiled lookups (brownout).
        # Control-plane probes (/healthz, /metrics) are exempt: an
        # orchestrator must be able to tell "saturated but alive" from
        # dead — shedding its health check invites a kill that makes
        # the overload worse.
        path = target.split("?", 1)[0]
        if path in _CONTROL_PLANE_PATHS:
            endpoint_class: Optional[str] = None
        elif path == "/v1/predict":
            endpoint_class = PREDICT
        else:
            endpoint_class = LOOKUP
        if endpoint_class is not None and not self.admission.try_acquire(
            endpoint_class
        ):
            retry = self.admission.retry_after()
            rec.count("serve.shed")
            rec.count(f"serve.shed.{endpoint_class}")
            status, payload = 429, {
                "error": (
                    f"server is shedding {endpoint_class} load; retry "
                    f"in {retry}s"
                ),
                "retry_after": retry,
            }
            headers = {"Retry-After": str(retry)}
            rec.observe(
                "serve.latency_ms", (self._clock() - started) * 1000.0
            )
            rec.count(f"serve.responses.{status // 100}xx")
            return status, payload, headers
        assert self._semaphore is not None
        try:
            async with self._semaphore:
                status, payload = await asyncio.wait_for(
                    self._route(method, target, body), self.request_timeout
                )
        except asyncio.TimeoutError:
            rec.count("serve.timeouts")
            status, payload = 503, {
                "error": (
                    f"request exceeded the {self.request_timeout}s "
                    f"server timeout"
                )
            }
        except _HttpError as exc:
            rec.count("serve.errors")
            status, payload = exc.status, {"error": str(exc)}
            if exc.retry_after is not None:
                headers = {"Retry-After": str(exc.retry_after)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            rec.count("serve.errors")
            status, payload = 500, {"error": f"internal error: {exc}"}
        finally:
            if endpoint_class is not None:
                self.admission.release(
                    endpoint_class, (self._clock() - started) * 1000.0
                )
        rec.observe("serve.latency_ms", (self._clock() - started) * 1000.0)
        rec.count(f"serve.responses.{status // 100}xx")
        return status, payload, headers

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[dict, bytes]]:
        if self.faults is not None:
            # A straggling handler (chaos harness): sleep on the event
            # loop — not the blocking fire() path — so other requests
            # keep flowing and only this one goes slow.
            token = self.faults.consume("slow", SERVE_HANDLER_SLOW)
            if token is not None:
                await asyncio.sleep(float(token.get("param", 0.0)))
        url = urlsplit(target)
        path = url.path
        if path == "/healthz":
            self._require_method(method, "GET")
            return 200, self._healthz()
        if path == "/metrics":
            self._require_method(method, "GET")
            return 200, self._metrics()
        if path == "/v1/strategy":
            self._require_method(method, "GET")
            return 200, self._strategy(url.query)
        if path == "/v1/portfolio":
            self._require_method(method, "GET")
            return 200, self._portfolio(url.query)
        if path == "/v1/predict":
            self._require_method(method, "POST")
            return await self._predict(body)
        raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method.upper() != expected:
            raise _HttpError(405, f"use {expected} for this endpoint")

    # -- hot reload ---------------------------------------------------------

    def request_reload(self) -> None:
        """Schedule an index hot-reload (SIGHUP-handler safe)."""
        asyncio.ensure_future(self.reload_index())

    async def reload_index(self) -> dict:
        """Re-read :attr:`index_path`, validate, and atomically swap.

        The candidate file is read and validated (checksum + format
        tag, the same gauntlet as :meth:`StrategyIndex.load`) *before*
        anything changes; any failure leaves the serving index — and
        its generation — untouched, so a bad deploy rolls back to the
        last good artifact by doing nothing.  On success the swap is a
        single assignment on the event-loop thread (in-flight requests
        hold references to whichever index they started with) and the
        generation counter bumps.
        """
        if self._reload_lock is None:
            self._reload_lock = asyncio.Lock()
        async with self._reload_lock:
            rec = self.recorder
            # ``serve.reload.attempts`` is counted next to each outcome
            # below — never before the off-loop read — so the doctor's
            # ``attempts == success + failures`` reconciliation holds
            # even when a heartbeat drain or a worker kill lands in the
            # executor await window mid-reload.
            generation = self.index_generation
            if not self.index_path:
                self.reload_failures += 1
                rec.count("serve.reload.attempts")
                rec.count("serve.reload.failures")
                return {
                    "reloaded": False,
                    "generation": generation,
                    "error": "server has no index path to reload from",
                }
            # Consume the chaos token on the loop thread (FaultPlan
            # state is not shared with executor threads), then read and
            # validate off-loop: a large candidate index must not stall
            # every in-flight request for the whole read + checksum
            # parse.  Only the final swap below touches loop state.
            corrupt = bool(
                self.faults is not None
                and self.faults.consume("corrupt", SERVE_RELOAD_CORRUPT)
            )
            index_path = self.index_path

            def _read_and_validate() -> StrategyIndex:
                with open(index_path, encoding="utf-8") as f:
                    text = f.read()
                if corrupt:
                    # Chaos harness: garble the candidate mid-deploy so
                    # checksum validation — and rollback — must fire.
                    text = text[: len(text) // 2] + '{"corrupt":'
                return StrategyIndex.loads(text, source=index_path)

            try:
                index = await asyncio.get_running_loop().run_in_executor(
                    None, _read_and_validate
                )
            except (OSError, UnicodeDecodeError, ServeError) as exc:
                self.reload_failures += 1
                rec.count("serve.reload.attempts")
                rec.count("serve.reload.failures")
                print(
                    f"[serve] reload failed, still serving generation "
                    f"{generation}: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
                return {
                    "reloaded": False,
                    "generation": generation,
                    "error": str(exc),
                }
            self.index = index
            self.index_generation += 1
            self.reloads += 1
            rec.count("serve.reload.attempts")
            rec.count("serve.reload.success")
            print(
                f"[serve] reloaded index from {self.index_path!r} "
                f"(generation {self.index_generation}, "
                f"{index.n_entries} entries)",
                file=sys.stderr,
                flush=True,
            )
            return {
                "reloaded": True,
                "generation": self.index_generation,
                "entries": index.n_entries,
            }

    async def _handle_admin(self, reader, writer) -> None:
        """One loopback admin connection: reload / health, then close."""
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, _, _ = request
            path = urlsplit(target).path
            if path == "/admin/reload":
                if method.upper() != "POST":
                    raise _HttpError(405, "use POST for /admin/reload")
                result = await self.reload_index()
                status = 200 if result.get("reloaded") else 409
                await self._write_response(writer, status, result, False)
            elif path == "/admin/health":
                if method.upper() != "GET":
                    raise _HttpError(405, "use GET for /admin/health")
                await self._write_response(writer, 200, self._healthz(), False)
            else:
                raise _HttpError(404, f"unknown admin path {path!r}")
        except _HttpError as exc:
            try:
                await self._write_response(
                    writer, exc.status, {"error": str(exc)}, False
                )
            except ConnectionError:
                pass
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- endpoints ---------------------------------------------------------

    def _healthz(self) -> dict:
        payload = {
            "status": "ok",
            "entries": self.index.n_entries,
            "precompiled_answers": self.index.n_answers,
            "levels": {
                level: len(cells)
                for level, cells in sorted(self.index.levels.items())
            },
            "coverage": self.index.coverage.describe(),
        }
        if self.index.portfolios is not None:
            payload["portfolio_curves"] = self.index.portfolios.n_curves
        payload["refine_cells"] = len(self.observations)
        # Operational provenance: which process answered, how often its
        # slot has been respawned, and what index generation it serves
        # — the chaos harness and the supervisor smoke checks read
        # these to pick kill victims and to assert self-healing.
        payload["pid"] = os.getpid()
        payload["worker_restarts"] = self.incarnation
        payload["index_generation"] = self.index_generation
        payload["reloads"] = {
            "ok": self.reloads,
            "failed": self.reload_failures,
        }
        payload["admission"] = self.admission.stats()
        payload["breaker"] = self.breaker.stats()
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return payload

    def _metrics(self) -> dict:
        snap = self.recorder.snapshot()
        payload = {
            "counters": snap.get("counters", {}),
            "gauges": snap.get("gauges", {}),
            # {name: [count, sum, min, max]}, matching RunReport.
            "histograms": snap.get("histograms", {}),
            "refine": self.observations.stats(),
            "requests_served": self.requests_served,
        }
        if self.worker_id is not None:
            # Per-worker view only: scraping N workers and summing is
            # the way to a service total (the run-report sidecar merges
            # exactly that); a lone scrape must not pose as the total.
            payload["worker"] = self.worker_id
        return payload

    def _strategy(self, query: str) -> bytes:
        rec = self.recorder
        rec.count("serve.requests.strategy")
        params = dict(parse_qsl(query, keep_blank_values=True))
        unknown = set(params) - {"chip", "app", "input", "refine"}
        if unknown:
            raise _HttpError(
                400,
                f"unknown query parameter(s) {sorted(unknown)}; expected "
                f"a subset of chip, app, input, refine",
            )
        for name, value in params.items():
            if not value:
                raise _HttpError(400, f"empty value for parameter {name!r}")
        refine = params.pop("refine", None)
        if refine is not None and refine not in ("0", "1"):
            raise _HttpError(
                400,
                f"parameter 'refine' must be '0' or '1', got {refine!r}",
            )
        key = (
            params.get("chip"), params.get("app"), params.get("input")
        )
        if refine == "1":
            refined = self._refined(key)
            if refined is not None:
                return refined
        return self._answer(
            "serve.answers",
            self.index.answer(key),
            lambda: render_answer(
                self.index, chip=key[0], app=key[1], input=key[2]
            ),
        )

    def _answer(
        self,
        counter: str,
        pre: Optional[Tuple[bytes, bool]],
        render: Callable[[], Tuple[bytes, bool]],
    ) -> bytes:
        """The precompiled ``(body, degraded)`` if any, else a render.

        The answers table holds every coordinate of the index's own
        lattice, pre-serialized at build time, so the common case is a
        dict lookup and a socket write (``<counter>.precompiled``).
        The long tail — coordinates outside the lattice, explicit
        portfolio ``k``/``target``, or an artifact predating the table —
        is rendered per request into the same bytes
        (``<counter>.rendered``).
        """
        rec = self.recorder
        if pre is not None:
            rec.count(counter + ".precompiled")
            body, degraded = pre
        else:
            rec.count(counter + ".rendered")
            body, degraded = render()
        if degraded:
            rec.count("serve.fallbacks")
        return body

    def _refined(
        self, key: Tuple[Optional[str], Optional[str], Optional[str]]
    ) -> Optional[bytes]:
        """An online-refined answer for ``?refine=1``, or ``None``.

        ``None`` sends the request down the normal (precompiled /
        rendered) path.  Refinement applies only when all three
        coordinates are named *and* the index's own answer would be
        degraded (a fallback up the lattice): an exact non-degraded
        index cell is offline ground truth and always outranks live
        observations, while a degraded fallback loses to any live
        evidence for the exact cell.  Counters reconcile as
        ``serve.refine.requests == served + misses + exact``.
        """
        rec = self.recorder
        rec.count("serve.refine.requests")
        chip, app, inp = key
        if not (chip and app and inp):
            # Partial coordinates name a lattice partition, not a cell
            # /v1/predict could ever have priced.
            rec.count("serve.refine.misses")
            return None
        answer = self.index.lookup(chip=chip, app=app, input=inp)
        if not answer.degraded:
            rec.count("serve.refine.exact")
            return None
        hit = self.observations.best(chip, app, inp)
        if hit is None:
            rec.count("serve.refine.misses")
            return None
        config, mean_us, n_obs = hit
        payload = {"query": {"chip": chip, "app": app, "input": inp}}
        payload.update(answer.to_dict())
        payload.update(
            {
                "config": config,
                "label": _config_label(config),
                "served_level": "refined",
                "degraded": False,
                "refined": True,
                "observations": n_obs,
                "expected_speedup": None,
                "slowdown_vs_oracle": None,
                "n_tests": 0,
                "note": (
                    f"refined from {n_obs} live /v1/predict "
                    f"observation(s): mean median {mean_us:.1f} us "
                    f"under [{_config_label(config)}]; index fallback "
                    f"was {answer.served_level} [{answer.config}]"
                ),
            }
        )
        rec.count("serve.refine.served")
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def _portfolio(self, query: str) -> bytes:
        rec = self.recorder
        rec.count("serve.requests.portfolio")
        params = dict(parse_qsl(query, keep_blank_values=True))
        unknown = set(params) - {"chip", "app", "input", "k", "target"}
        if unknown:
            raise _HttpError(
                400,
                f"unknown query parameter(s) {sorted(unknown)}; expected "
                f"a subset of chip, app, input, k, target",
            )
        for name, value in params.items():
            if not value:
                raise _HttpError(400, f"empty value for parameter {name!r}")
        if self.index.portfolios is None:
            raise _HttpError(
                501,
                "this strategy index has no portfolios table; rebuild "
                "the artifact with repro index --portfolios",
            )
        k: Optional[int] = None
        if "k" in params:
            try:
                k = int(params["k"])
            except ValueError:
                raise _HttpError(
                    400,
                    f"parameter 'k' must be a positive integer, got "
                    f"{params['k']!r}",
                )
            if k < 1:
                raise _HttpError(
                    400, f"parameter 'k' must be positive, got {k}"
                )
        target: Optional[float] = None
        if "target" in params:
            try:
                target = float(params["target"])
            except ValueError:
                raise _HttpError(
                    400,
                    f"parameter 'target' must be a fraction in (0, 1], "
                    f"got {params['target']!r}",
                )
            if not 0.0 < target <= 1.0:
                raise _HttpError(
                    400,
                    f"parameter 'target' must be in (0, 1], got {target}",
                )
        key = (
            params.get("chip"), params.get("app"), params.get("input")
        )
        # Only the default-parameter answers were pre-serialized.
        pre = (
            self.index.portfolio_answer(key)
            if k is None and target is None
            else None
        )
        return self._answer(
            "serve.portfolio",
            pre,
            lambda: render_portfolio_answer(
                self.index,
                chip=key[0],
                app=key[1],
                input=key[2],
                k=k,
                target=target,
            ),
        )

    async def _predict(self, body: bytes) -> Tuple[int, dict]:
        rec = self.recorder
        rec.count("serve.requests.predict")
        if self.predictor is None:
            raise _HttpError(
                501, "online prediction is disabled (--no-predict)"
            )
        # Parse and shape-check the body BEFORE consulting the breaker:
        # a malformed request must never consume the half-open probe
        # slot (its 400 carries no outcome to adjudicate the probe).
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        if isinstance(parsed, dict) and "queries" in parsed:
            queries = parsed["queries"]
        elif isinstance(parsed, dict) and parsed:
            queries = [parsed]
        else:
            queries = parsed if isinstance(parsed, list) else None
        if not isinstance(queries, list) or not queries:
            raise _HttpError(
                400,
                'expected {"queries": [{"chip": ..., "app": ..., '
                '"input": ..., "config": ...?}, ...]} or a single such '
                "object",
            )
        if not self.breaker.allow():
            # The engine has been failing repeatedly: fast-fail instead
            # of queueing more work behind it (half-open probes admit
            # one request per reset window to test recovery).
            rec.count("serve.breaker.fast_fails")
            raise _HttpError(
                503,
                "predict engine circuit breaker is open after repeated "
                "failures; retrying after the breaker reset window",
                retry_after=self.breaker.retry_after(),
            )
        # A True allow() while half-open makes this request THE probe.
        # Every path from here must adjudicate it (record_success /
        # record_failure) or abandon it — a request where every item
        # fails local validation, or one cancelled by the server
        # timeout, would otherwise latch the probe and fast-fail every
        # later predict until a restart.
        probing = self.breaker.state == CircuitBreaker.HALF_OPEN
        adjudicated = False
        assert self._coalescer is not None
        # Validate and resolve advisor configs synchronously, then
        # submit every priceable item to the coalescing window at once:
        # items from this request — and from any concurrently parsing
        # requests — ride one vectorized batch-engine call.
        results: List[Optional[dict]] = [None] * len(queries)
        advisors: List[Optional[object]] = [None] * len(queries)
        submitted: List[Tuple[int, "asyncio.Future"]] = []
        errors = 0
        try:
            for i, q in enumerate(queries):
                if not isinstance(q, dict):
                    results[i] = {"error": f"query must be an object, got {q!r}"}
                    errors += 1
                    continue
                try:
                    chip, app, inp = q.get("chip"), q.get("app"), q.get("input")
                    for name, value in (("chip", chip), ("app", app), ("input", inp)):
                        if not isinstance(value, str) or not value:
                            raise PredictionError(
                                f"missing or invalid {name!r} in predict query"
                            )
                    if "config" in q:
                        config = Predictor.parse_config(q["config"])
                    else:
                        # No explicit configuration: price what the advisor
                        # recommends for these exact coordinates.
                        advisors[i] = self.index.lookup(
                            chip=chip, app=app, input=inp
                        )
                        config = Predictor.parse_config(advisors[i].config)
                    submitted.append(
                        (i, asyncio.ensure_future(
                            self._coalescer.price(chip, app, inp, config)
                        ))
                    )
                except PredictionError as exc:
                    results[i] = {"error": str(exc)}
                    errors += 1
            flush_timeouts = 0
            if submitted:
                priced = await asyncio.gather(
                    *(future for _, future in submitted),
                    return_exceptions=True,
                )
                for (i, _), outcome in zip(submitted, priced):
                    # Every branch below records an outcome with the
                    # breaker, so reaching the loop adjudicates a probe.
                    adjudicated = True
                    if isinstance(outcome, FlushTimeoutError):
                        # The coalesced batch blew its flush deadline: a
                        # per-item 503, and the breaker hears about it.
                        results[i] = {"error": str(outcome), "status": 503}
                        errors += 1
                        flush_timeouts += 1
                        self.breaker.record_failure()
                    elif isinstance(outcome, PredictionError):
                        results[i] = {"error": str(outcome)}
                        errors += 1
                        self.breaker.record_failure()
                    elif isinstance(outcome, BaseException):
                        self.breaker.record_failure()
                        raise outcome  # engine failure: 500, as before
                    else:
                        self.breaker.record_success()
                        if advisors[i] is not None:
                            outcome["advisor"] = advisors[i].to_dict()
                        results[i] = outcome
                        rec.count("serve.predictions")
                        try:
                            self.observations.record(
                                outcome["chip"],
                                outcome["app"],
                                outcome["input"],
                                outcome["config"],
                                tuple(outcome["times_us"]),
                            )
                            rec.count("serve.refine.recorded")
                        except (KeyError, TypeError):
                            # A priced outcome without full coordinates
                            # cannot feed ?refine=1; pricing still stands.
                            pass
        finally:
            if probing and not adjudicated:
                self.breaker.abandon_probe()
        rec.count("serve.predictions.errors", errors)
        # Every priced item hit the flush deadline: the whole response
        # is a 503 (clients should back off), with per-item detail.
        status = (
            503 if submitted and flush_timeouts == len(submitted) else 200
        )
        return status, {"results": results, "errors": errors}


def _make_server(
    index: StrategyIndex,
    opts: dict,
    *,
    recorder,
    port: Optional[int] = None,
    reuse_port: bool = False,
    worker_id: Optional[int] = None,
    incarnation: int = 0,
) -> StrategyServer:
    """One configured server from parsed CLI options (``vars(args)``)."""
    predictor = (
        None
        if opts["no_predict"]
        else Predictor(
            scale=opts["predict_scale"],
            repetitions=opts["predict_repetitions"],
        )
    )
    admission = AdmissionController(
        lookup_depth=opts.get("admission_depth") or 0,
        predict_depth=opts.get("admission_predict_depth") or 0,
        latency_watermark_ms=opts.get("latency_watermark_ms") or 0.0,
        max_concurrency=opts["max_concurrency"],
    )
    breaker = CircuitBreaker(
        threshold=opts.get("breaker_threshold") or 0,
        reset_timeout=opts.get("breaker_reset") or 5.0,
    )
    flush_timeout = opts.get("predict_flush_timeout")
    if flush_timeout is None:
        # Auto: flush just inside the request timeout, so coalesced
        # waiters get their per-item 503 instead of a blanket timeout.
        flush_timeout = 0.9 * opts["timeout"]
    faults = FaultPlan(opts["faults"]) if opts.get("faults") else None
    return StrategyServer(
        index,
        host=opts["host"],
        port=opts["port"] if port is None else port,
        max_concurrency=opts["max_concurrency"],
        request_timeout=opts["timeout"],
        idle_timeout=opts["idle_timeout"],
        recorder=recorder,
        predictor=predictor,
        reuse_port=reuse_port,
        worker_id=worker_id,
        predict_window=opts["predict_window_ms"] / 1000.0,
        predict_max_batch=opts["predict_max_batch"],
        refine_capacity=opts.get("refine_capacity", DEFAULT_CAPACITY),
        predict_flush_timeout=flush_timeout,
        admission=admission,
        breaker=breaker,
        index_path=opts.get("index"),
        faults=faults,
        # Workers must not race for one loopback admin port; the fleet
        # parent runs its own admin listener and forwards SIGHUP.
        admin_port=opts.get("admin_port") if worker_id is None else None,
        incarnation=incarnation,
    )


def _worker_main(  # pragma: no cover - forked child, exercised e2e
    worker_id: int, opts: dict, port: int, queue, incarnation: int = 0
) -> None:
    """One ``--workers`` process: serve until SIGTERM/SIGINT, ship metrics.

    Runs the ordinary :class:`StrategyServer` bound with
    ``SO_REUSEPORT`` on the port the parent resolved.  On startup it
    reports readiness through ``queue`` (the parent only advertises the
    listening address once every worker accepts); on shutdown it drains
    its recorder and ships the snapshot home for the parent to
    ``merge()`` into the one run report.

    Between startup and shutdown the worker ships periodic *heartbeat*
    deltas — ``recorder.drain()`` plus the requests served since the
    last beat — so when a worker is killed outright (kill -9, OOM, an
    armed ``crash`` fault) the merged report loses at most one
    heartbeat interval of counters instead of the worker's whole life.
    ``SIGHUP`` triggers an index hot-reload, forwarded by the parent
    across the fleet.
    """
    import signal

    from ..obs import Recorder

    index = StrategyIndex.load(opts["index"])
    recorder = Recorder()
    server = _make_server(
        index,
        opts,
        recorder=recorder,
        port=port,
        reuse_port=True,
        worker_id=worker_id,
        incarnation=incarnation,
    )
    reported = {"requests": 0}

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            loop.add_signal_handler(signal.SIGHUP, server.request_reload)
        except (NotImplementedError, RuntimeError, AttributeError):
            pass  # non-POSIX: reload via the parent's admin endpoint
        queue.put(("ready", worker_id, server.port))

        async def _heartbeat(interval: float) -> None:
            while True:
                await asyncio.sleep(interval)
                snapshot = recorder.drain()
                delta = server.requests_served - reported["requests"]
                reported["requests"] = server.requests_served
                queue.put(("heartbeat", worker_id, snapshot, delta))

        interval = opts.get("heartbeat_interval") or 0.0
        beat = (
            asyncio.ensure_future(_heartbeat(interval))
            if interval > 0
            else None
        )
        try:
            await server.serve_until_stopped()
        finally:
            if beat is not None:
                beat.cancel()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass
    queue.put(
        (
            "metrics",
            worker_id,
            recorder.drain(),
            server.requests_served - reported["requests"],
        )
    )


def _serve_workers(  # pragma: no cover - subprocess-only, exercised e2e
    args, index: StrategyIndex
) -> int:
    """Parent of a ``--workers N`` fleet sharing one ``SO_REUSEPORT`` port.

    The parent is a supervisor, not a server: it spawns the fleet,
    merges heartbeat/final metric deltas from the queue, respawns dead
    workers with exponential backoff under the ``--max-restarts``
    budget (:class:`~repro.serve.supervisor.FleetSupervisor`),
    forwards SIGTERM/SIGINT (drain) and SIGHUP (index hot-reload)
    fleet-wide, and answers ``POST /admin/reload`` on the loopback
    ``--admin-port``.  When the restart budget is exhausted it
    escalates: terminates the fleet, writes whatever metrics it has,
    and exits 2 so the process manager above sees the failure.
    """
    import multiprocessing
    import os
    import signal
    import socket

    from ..cli import save_run_report
    from ..obs import Recorder
    from .supervisor import AdminListener, FleetSupervisor

    if not hasattr(socket, "SO_REUSEPORT"):
        print(
            "[serve] --workers requires SO_REUSEPORT, which this "
            "platform does not provide; run single-process instead",
            file=sys.stderr,
        )
        return 1

    # Resolve the port up front with a placeholder socket that stays
    # bound (but never listens) for the fleet's lifetime: workers bind
    # the same (host, port) with SO_REUSEPORT, and the kernel balances
    # incoming connections across the listening sockets only.
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    admin = None
    try:
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            placeholder.bind((args.host, args.port))
        except OSError as exc:
            print(
                f"[serve] cannot bind {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        port = placeholder.getsockname()[1]

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        queue = ctx.Queue()
        opts = vars(args)

        def _spawn(worker_id: int, incarnation: int):
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, opts, port, queue, incarnation),
            )
            proc.start()
            return proc

        supervisor = FleetSupervisor(
            _spawn,
            args.workers,
            max_restarts=args.max_restarts,
            backoff_base=args.restart_backoff,
        )
        recorder = Recorder()
        per_worker: Dict[int, int] = {}
        state = {"stopping": False}

        def _signal_fleet(signum: int) -> int:
            sent = 0
            for proc in supervisor.processes():
                if proc.is_alive():
                    try:
                        os.kill(proc.pid, signum)
                        sent += 1
                    except (ProcessLookupError, OSError):
                        pass
            return sent

        def _forward(signum, frame):  # noqa: ARG001 - signal signature
            state["stopping"] = True
            supervisor.stop()
            _signal_fleet(signal.SIGTERM)

        def _reload_fleet(signum=None, frame=None):  # noqa: ARG001
            signalled = _signal_fleet(signal.SIGHUP)
            return {"reload": "signalled", "workers": signalled}

        # Install the forwarder BEFORE advertising the address: a
        # SIGTERM/SIGINT racing the startup print would otherwise hit
        # Python's default handler, leaving the workers unsignalled and
        # the parent hung joining them at exit.
        previous = {
            sig: signal.signal(sig, _forward)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        if hasattr(signal, "SIGHUP"):
            previous[signal.SIGHUP] = signal.signal(
                signal.SIGHUP, _reload_fleet
            )
        try:
            if args.admin_port is not None:
                try:
                    admin = AdminListener(
                        args.admin_port, _reload_fleet, supervisor.stats
                    )
                except OSError as exc:
                    print(
                        f"[serve] cannot bind admin port "
                        f"{args.admin_port}: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                admin.start()
            supervisor.start()
            ready: set = set()
            advertised = False
            # After the last worker exits, keep draining until the
            # metrics queue has been quiet this long: a final "metrics"
            # message still in transit through the multiprocessing pipe
            # carries the last heartbeat interval's deltas, and the
            # reconciliation needs them.
            drain_grace = 2.0
            quiet_since: Optional[float] = None
            while True:
                try:
                    message = queue.get(timeout=0.25)
                except Exception:  # queue.Empty
                    message = None
                if message is not None:
                    quiet_since = None
                    kind, wid = message[0], message[1]
                    if kind == "ready":
                        ready.add(wid)
                        if not advertised and len(ready) >= args.workers:
                            advertised = True
                            print(
                                f"[serve] listening on "
                                f"http://{args.host}:{port} "
                                f"({index.n_entries} index entries, "
                                f"{index.n_answers} pre-serialized "
                                f"answers, {args.workers} workers, "
                                f"predict="
                                f"{'off' if args.no_predict else 'on'})",
                                file=sys.stderr,
                                flush=True,
                            )
                    elif kind in ("heartbeat", "metrics"):
                        snapshot, delta = message[2], message[3]
                        recorder.merge(snapshot)
                        per_worker[wid] = per_worker.get(wid, 0) + delta
                if not state["stopping"]:
                    for event in supervisor.poll():
                        tag = event[0]
                        if tag == "death":
                            recorder.count("serve.workers.deaths")
                            print(
                                f"[serve] worker {event[1]} died "
                                f"(exit {event[2]})",
                                file=sys.stderr,
                                flush=True,
                            )
                        elif tag == "backoff":
                            print(
                                f"[serve] respawning worker {event[1]} "
                                f"in {event[2]:.2f}s",
                                file=sys.stderr,
                                flush=True,
                            )
                        elif tag == "respawn":
                            recorder.count("serve.workers.restarts")
                            print(
                                f"[serve] worker {event[1]} respawned "
                                f"(incarnation {event[2]})",
                                file=sys.stderr,
                                flush=True,
                            )
                        elif tag == "escalate":
                            print(
                                f"[serve] restart budget "
                                f"({args.max_restarts}) exhausted after "
                                f"{supervisor.deaths} deaths; shutting "
                                f"the fleet down",
                                file=sys.stderr,
                                flush=True,
                            )
                    if supervisor.escalated:
                        state["stopping"] = True
                        supervisor.stop()
                        _signal_fleet(signal.SIGTERM)
                if state["stopping"] and supervisor.all_exited():
                    now = time.monotonic()
                    if quiet_since is None:
                        quiet_since = now
                    elif now - quiet_since >= drain_grace:
                        break
                else:
                    quiet_since = None
            for slot in supervisor.slots:
                if slot.process is not None:
                    slot.process.join()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            if admin is not None:
                admin.close()
    finally:
        placeholder.close()

    total = sum(per_worker.values())
    if args.metrics:
        recorder.gauge("serve.workers", float(args.workers))
        save_run_report(
            recorder,
            args.metrics,
            meta={
                "index": args.index,
                "requests": total,
                "workers": args.workers,
                "restarts": supervisor.restarts,
                "deaths": supervisor.deaths,
                "per_worker_requests": {
                    str(wid): requests
                    for wid, requests in sorted(per_worker.items())
                },
            },
        )
        print(f"[serve] wrote run report to {args.metrics}", file=sys.stderr)
    if supervisor.escalated:
        print(
            f"[serve] escalated shutdown: {supervisor.deaths} worker "
            f"deaths exhausted the --max-restarts budget "
            f"({total} requests served)",
            file=sys.stderr,
            flush=True,
        )
        return 2
    failed = [
        slot.process.exitcode
        for slot in supervisor.slots
        if slot.process is not None and slot.process.exitcode != 0
    ]
    print(
        f"[serve] shut down cleanly ({total} requests served by "
        f"{args.workers} workers)"
        if not failed
        else f"[serve] workers exited with {failed}",
        file=sys.stderr,
        flush=True,
    )
    return 0 if not failed else 1


def main(argv=None) -> int:
    """CLI: ``python -m repro serve INDEX``."""
    import argparse
    import signal
    import sys

    from ..cli import metrics_parent, save_run_report
    from ..obs import Recorder

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        parents=[metrics_parent()],
        description=(
            "Serve strategy queries from a strategy-index-v1 artifact "
            "over an asyncio HTTP JSON API."
        ),
    )
    parser.add_argument("index", help="strategy-index artifact (repro index)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes sharing the port via SO_REUSEPORT "
            "(default 1: single process); per-worker metrics are "
            "merged into one --metrics run report"
        ),
    )
    parser.add_argument(
        "--max-concurrency",
        type=int,
        default=64,
        help="bound on concurrently dispatched requests (default 64)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request timeout; slower requests get 503 (default 10)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="drop keep-alive connections idle this long (default 60)",
    )
    parser.add_argument(
        "--predict-scale",
        type=float,
        default=0.05,
        help="input scale for online /v1/predict pricing (default 0.05)",
    )
    parser.add_argument(
        "--predict-repetitions",
        type=int,
        default=3,
        help="noisy repetitions per online prediction (default 3)",
    )
    parser.add_argument(
        "--predict-window-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help=(
            "opt-in micro-batching window for POST /v1/predict: "
            "concurrent items arriving within this many milliseconds "
            "coalesce into one batch-engine call (default 0: group "
            "commit, items arriving while a batch prices ride the next)"
        ),
    )
    parser.add_argument(
        "--predict-max-batch",
        type=int,
        default=32,
        metavar="N",
        help="flush a predict micro-batch at this many items (default 32)",
    )
    parser.add_argument(
        "--refine-capacity",
        type=int,
        default=DEFAULT_CAPACITY,
        metavar="N",
        help=(
            "distinct (chip, app, input) cells of live /v1/predict "
            "observations kept (LRU) for ?refine=1 strategy answers "
            f"(default {DEFAULT_CAPACITY})"
        ),
    )
    parser.add_argument(
        "--no-predict",
        action="store_true",
        help="disable POST /v1/predict (strategy queries only)",
    )
    parser.add_argument(
        "--predict-flush-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hard deadline on each coalesced predict batch; on expiry "
            "every waiter gets a per-item 503 and "
            "serve.predict.flush_timeouts counts the batch (default: "
            "0.9 x --timeout; 0 disables)"
        ),
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=8,
        metavar="N",
        help=(
            "global budget of worker respawns for --workers fleets; "
            "once exhausted the fleet escalates to a clean non-zero "
            "shutdown (default 8)"
        ),
    )
    parser.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "base respawn delay after a worker death, doubled per "
            "restart of that slot and capped at 30s (default 0.5)"
        ),
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "how often --workers fleet members ship metric deltas to "
            "the parent; a killed worker loses at most one interval of "
            "counters from the merged run report (default 2.0; 0 "
            "disables heartbeats)"
        ),
    )
    parser.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "bind a loopback-only admin endpoint (POST /admin/reload, "
            "GET /admin/health) on this port (default: no admin "
            "endpoint; SIGHUP also triggers an index hot-reload)"
        ),
    )
    parser.add_argument(
        "--admission-depth",
        type=int,
        default=0,
        metavar="N",
        help=(
            "shed lookup requests as 429 + Retry-After once this many "
            "are pending; predict sheds at --admission-predict-depth "
            "(default half of this) so the expensive endpoint browns "
            "out first (default 0: no admission control)"
        ),
    )
    parser.add_argument(
        "--admission-predict-depth",
        type=int,
        default=0,
        metavar="N",
        help=(
            "pending-depth watermark for /v1/predict admission "
            "(default: half of --admission-depth)"
        ),
    )
    parser.add_argument(
        "--latency-watermark-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help=(
            "shed predict load once the request-latency EWMA crosses "
            "this watermark (lookups shed at 2x it); 0 disables "
            "(default 0)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        metavar="N",
        help=(
            "open the predict circuit breaker after this many "
            "consecutive engine failures, fast-failing 503 until the "
            "half-open probe succeeds (default 0: breaker disabled)"
        ),
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "how long the predict circuit breaker stays open before "
            "admitting a half-open probe (default 5.0)"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="DIR",
        default=None,
        help=(
            "arm serve-path fault injection from a FaultPlan spool "
            "directory (chaos testing: worker crash, slow handler, "
            "corrupt reload candidate)"
        ),
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        print("[serve] --workers must be positive", file=sys.stderr)
        return 1
    try:
        index = StrategyIndex.load(args.index)
    except ServeError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 1

    if args.workers > 1:
        return _serve_workers(args, index)

    # Always record, so /metrics counts; --metrics only adds the report.
    rec = Recorder()
    try:
        server = _make_server(index, vars(args), recorder=rec)
    except ServeError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 1

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX event loop: Ctrl-C still raises
        if hasattr(signal, "SIGHUP"):
            try:
                loop.add_signal_handler(
                    signal.SIGHUP, server.request_reload
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # reload remains available via --admin-port
        print(
            f"[serve] listening on http://{server.host}:{server.port} "
            f"({index.n_entries} index entries, "
            f"{index.n_answers} pre-serialized answers, "
            f"predict={'off' if server.predictor is None else 'on'})",
            file=sys.stderr,
            flush=True,
        )
        if server.admin_port is not None:
            print(
                f"[serve] admin endpoint on "
                f"http://127.0.0.1:{server.admin_port}",
                file=sys.stderr,
                flush=True,
            )
        await server.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass
    if args.metrics:
        save_run_report(
            rec,
            args.metrics,
            meta={"index": args.index, "requests": server.requests_served},
        )
        print(f"[serve] wrote run report to {args.metrics}", file=sys.stderr)
    print(
        f"[serve] shut down cleanly ({server.requests_served} requests "
        f"served)",
        file=sys.stderr,
        flush=True,
    )
    return 0
