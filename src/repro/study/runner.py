"""Study sweep runner: the paper's data-collection phase.

Executes every application on every input *once* to obtain workload
traces, then prices each trace on every chip under every optimisation
configuration, with the study's three noisy timing repetitions.  The
full factorial — 17 applications × 3 inputs × 6 chips × 96
configurations × 3 repetitions — matches the paper's experimental
scope.

Two pricing engines produce bit-identical datasets: the scalar
reference path (:mod:`repro.perfmodel.simulate`, one launch record at
a time) and the vectorized batch engine
(:mod:`repro.perfmodel.batch`, all launches of a trace under a whole
block of one chip's configurations in whole-array NumPy ops).  The
sweep can further be sharded over worker processes (``jobs``): the
chip × configuration grid is split into *shards*, grouped into
*blocks* of one chip's shards; each worker prices whole blocks against
the same traces and sends the priced rows back over the pool's pipes,
and the parent merges them in grid order into the same table that
``jobs=1`` builds in-process through the same loop.
``run_study(store="v3")`` converts that table to a columnar
:class:`~repro.store.ColumnarDataset` at the end; ``store`` picks only
the return type, never how results travel.

The sweep is fault tolerant.  Completed shards can be checkpointed to
disk as they finish (:mod:`repro.study.checkpoint`) so an interrupted
run resumes where it stopped; a dead worker pool is rebuilt and its
unfinished shards re-queued (bounded retries with exponential backoff,
falling back to in-process pricing when the pool keeps dying); and a
:class:`repro.faults.FaultPlan` can inject worker crashes, errors,
interrupts and stragglers at chosen shards to drive every one of those
recovery paths deterministically in tests.

Everything is deterministic: graph generation, functional execution
and the noise model are all seeded — each measurement's seed depends
only on (chip, program, graph, configuration, repetition) — so two
invocations produce identical datasets regardless of engine, job
count, failures or resumption.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..apps.base import Application
from ..apps.registry import all_applications
from ..chips.database import all_chips
from ..chips.model import ChipModel
from ..compiler.options import OptConfig, enumerate_configs
from ..compiler.pipeline import plan_cache
from ..dsl.ast import Program
from ..errors import CheckpointError
from ..faults import FaultPlan
from ..graphs.inputs import StudyInput, study_inputs
from ..obs import NULL_RECORDER, Recorder, RunReport
from ..perfmodel.batch import measure_traces_us_batch
from ..perfmodel.simulate import measure_repeats_us
from ..runtime.trace import Trace
from .checkpoint import StudyCheckpoint, study_fingerprint
from .dataset import PerfDataset, TestCase
from .progress import PhaseTimer

__all__ = ["ENGINES", "run_study", "collect_traces", "StudyConfig"]

#: Pricing engines: the vectorized default and the scalar reference.
ENGINES = ("batch", "scalar")

#: Return types of :func:`run_study`: a dict-backed
#: :class:`PerfDataset` (the default) or a columnar
#: :class:`~repro.store.ColumnarDataset` of the same measurements.
STORES = ("rows", "v3")

#: Default bounded-retry budget for failed shards / dead worker pools.
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF = 0.05


class _ShardTimeout(BaseException):
    """Internal signal: one or more shards exceeded the deadline.

    Derives from BaseException so the ordinary ``except Exception``
    retry paths never swallow it; it is raised and caught entirely
    within :func:`_run_sweep`.
    """

    def __init__(self, tasks: List["Task"]) -> None:
        super().__init__(f"{len(tasks)} shard(s) timed out")
        self.tasks = tasks


class StudyConfig:
    """Parameters of a study run (defaults reproduce the paper scope)."""

    def __init__(
        self,
        apps: Optional[List[Application]] = None,
        inputs: Optional[Dict[str, StudyInput]] = None,
        chips: Optional[List[ChipModel]] = None,
        configs: Optional[List[OptConfig]] = None,
        repetitions: int = 3,
        source: int = 0,
        scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        self.apps = apps if apps is not None else all_applications()
        self.inputs = (
            inputs if inputs is not None else study_inputs(scale=scale, seed=seed)
        )
        self.chips = chips if chips is not None else all_chips()
        self.configs = configs if configs is not None else enumerate_configs()
        self.repetitions = repetitions
        self.source = source


def collect_traces(
    config: StudyConfig,
    progress: Optional[Callable[[str], None]] = None,
    recorder=None,
) -> Dict[tuple, Trace]:
    """Phase 1: run every (application, input) pair functionally.

    Pairs that cannot run — a weight-requiring application on an
    unweighted graph — are skipped, and each skip is reported through
    ``progress`` so a sweep's log accounts for every pair of the
    factorial.  ``recorder`` (a :class:`~repro.obs.Recorder`) counts
    ``study.traces.collected`` / ``study.traces.skipped``.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    traces: Dict[tuple, Trace] = {}
    for inp in config.inputs.values():
        graph = inp.graph
        for app in config.apps:
            if app.requires_weights and not graph.has_weights:
                rec.count("study.traces.skipped")
                if progress:
                    progress(
                        f"skipping {app.name} on {inp.name}: requires edge "
                        f"weights but graph is unweighted"
                    )
                continue
            if progress:
                progress(f"tracing {app.name} on {inp.name}")
            with rec.span("study.trace", app=app.name, input=inp.name):
                result = app.run(graph, source=config.source)
            rec.count("study.traces.collected")
            traces[(app.name, inp.name)] = result.trace
    return traces


def _measure_plans(
    plans: List, traces: List[Trace], repetitions: int, engine: str
) -> List[List[List[float]]]:
    """Price one program's traces under one chip's plans, per trace."""
    if engine == "scalar":
        return [
            [measure_repeats_us(plan, trace, repetitions) for plan in plans]
            for trace in traces
        ]
    return measure_traces_us_batch(
        plans, [trace.arrays() for trace in traces], repetitions
    )


# -- pricing shards and blocks -----------------------------------------------
#
# A shard is one (chip index, configuration index) cell of the pricing
# grid: every trace priced under that chip and configuration.  Shards
# are the unit of checkpointing, of progress and of retry.  A *block*
# is a run of one chip's shards priced together — each trace in one
# plan-axis pass over the block's configurations — and is the unit of
# dispatch: one pool task per block.

#: One shard's task key, and the pricing state every shard needs.
Task = Tuple[int, int]
_State = Tuple[
    Dict[str, Program],
    Dict[tuple, Trace],
    List[ChipModel],
    List[OptConfig],
    int,
    str,
]
#: What pricing one shard of a block gave: its rows, or the exception
#: that failed it (a value, so one failed shard never sinks its block).
_Outcome = Tuple[Task, Union[list, Exception]]


def _shard_key(task: Task) -> str:
    """The fault-injection / logging name of one shard."""
    return f"shard-{task[0]}-{task[1]}"


def _blocks(
    tasks: List[Task],
    jobs: int,
    per_shard: bool,
    faults: Optional[FaultPlan] = None,
) -> List[List[Task]]:
    """Group shards, in grid order, into the pool tasks that price them.

    Each chip's shards are split into ``jobs / gcd(chips, jobs)``
    blocks, so the block count is a multiple of ``jobs`` and, when the
    chips have equal work left, every worker gets the same number of
    blocks.  A shard with a fault armed in ``faults`` starts a new
    block, so no earlier shard shares its task; under ``jobs=1`` its
    faults then fire only after every earlier shard has completed, as
    they would if each shard were its own task.  ``per_shard`` makes
    every shard its own block (the hung-shard watchdog times one shard
    per task).
    """
    if per_shard:
        return [[task] for task in tasks]
    by_chip: Dict[int, List[Task]] = {}
    for task in tasks:
        by_chip.setdefault(task[0], []).append(task)
    pieces = jobs // math.gcd(len(by_chip), jobs)
    armed = {key for _, key in faults.armed()} if faults is not None else ()
    blocks: List[List[Task]] = []
    for shards in by_chip.values():
        size = -(-len(shards) // pieces)
        for i, task in enumerate(shards):
            if i % size == 0 or _shard_key(task) in armed:
                blocks.append([])
            blocks[-1].append(task)
    return blocks


def _price_block(
    block: List[Task],
    state: _State,
    faults: Optional[FaultPlan] = None,
    recorder=NULL_RECORDER,
) -> List[_Outcome]:
    """Price every trace under one block of one chip's shards.

    Faults fire per shard, in block order, before any pricing (blocks
    from :func:`_blocks` have faults armed at their first shard only);
    a shard whose ``error`` fault fires (or a block whose pricing
    raises) comes back as its exception while the rest of the block is
    priced.  A program's traces are priced in one call, which builds
    the block's plan columns once for all of them; rows keep trace
    order.  With an enabled ``recorder`` the block is wrapped in a
    ``study.price_block`` span and the plan-cache hit/miss deltas it
    accrued are counted.
    """
    programs, traces, chips, configs, repetitions, engine = state
    outcomes: Dict[Task, Union[list, Exception]] = {}
    if faults is not None:
        for task in block:
            key = _shard_key(task)
            try:
                faults.fire("slow", key)
                faults.fire("error", key)
                faults.fire("crash", key)
            except Exception as exc:
                outcomes[task] = exc
    live = [task for task in block if task not in outcomes]
    chip = chips[block[0][0]]
    block_configs = [configs[cfg_idx] for _, cfg_idx in live]
    rows: Dict[Task, Union[list, Exception]] = {task: [] for task in live}
    plan_hits, plan_misses = plan_cache.hits, plan_cache.misses
    with recorder.span(
        "study.price_block", chip=chip.short_name, shards=len(live)
    ) as span:
        try:
            by_program: Dict[str, List[tuple]] = {}
            for key in traces:
                by_program.setdefault(key[0], []).append(key)
            priced: Dict[tuple, List[List[float]]] = {}
            for app_name, keys in by_program.items():
                for _ in keys:  # one plan-cache lookup per trace
                    plans = plan_cache.get_block(
                        programs[app_name], chip, block_configs
                    )
                program_traces = [traces[key] for key in keys]
                times = _measure_plans(
                    plans, program_traces, repetitions, engine
                )
                priced.update(zip(keys, times))
            for key in traces:
                for task, times in zip(live, priced[key]):
                    rows[task].append(key + (times,))
        except Exception as exc:
            rows = dict.fromkeys(live, exc)
        span.set("traces", len(traces))
    recorder.count("compiler.plan_cache.hits", plan_cache.hits - plan_hits)
    recorder.count("compiler.plan_cache.misses", plan_cache.misses - plan_misses)
    outcomes.update(rows)
    return [(task, outcomes[task]) for task in block]


def _price_in_process(block: List[Task], state: _State, faults, recorder):
    """Price a block in this process; a failed shard raises its error."""
    for task, result in _price_block(block, state, faults, recorder):
        if isinstance(result, Exception):
            raise result
        yield task, result


# Worker state is installed once per process by the pool initializer
# rather than shipped with every task; a StudyConfig is never pickled
# (its StudyInput builders are closures).

_WORKER_STATE: Optional[_State] = None
_WORKER_FAULTS: Optional[FaultPlan] = None
_WORKER_RECORDER = NULL_RECORDER


def _init_worker(
    programs: Dict[str, Program],
    traces: Dict[tuple, Trace],
    chips: List[ChipModel],
    configs: List[OptConfig],
    repetitions: int,
    engine: str,
    faults: Optional[FaultPlan],
    metrics: bool = False,
) -> None:
    global _WORKER_STATE, _WORKER_FAULTS, _WORKER_RECORDER
    # Each worker runs its own recorder; per-block deltas are drained
    # into the result and merged by the parent on collection.
    _WORKER_RECORDER = Recorder() if metrics else NULL_RECORDER
    _WORKER_STATE = (programs, traces, chips, configs, repetitions, engine)
    _WORKER_FAULTS = faults


def _price_block_in_worker(block: List[Task]):
    """Worker entry point: price one block from the installed state.

    Returns ``(outcomes, obs_delta)``: the block's per-shard outcomes,
    sent back over the pool's pipe, and the worker recorder's drained
    snapshot for this block (``None`` when metrics are disabled)."""
    outcomes = _price_block(
        block, _WORKER_STATE, _WORKER_FAULTS, recorder=_WORKER_RECORDER
    )
    delta = _WORKER_RECORDER.drain() if _WORKER_RECORDER.enabled else None
    return outcomes, delta


def _save_metrics(checkpoint: Optional[StudyCheckpoint], recorder) -> None:
    """Persist the recorder's segments to the checkpoint (if both exist).

    Written after every recorded shard so an interrupt at any point
    leaves the metrics sidecar consistent with the shard files: a
    resumed run's ``skipped_checkpoint`` count equals the persisted
    segments' ``priced`` total.
    """
    if checkpoint is not None and recorder.enabled:
        checkpoint.save_metrics(
            list(recorder.prior_segments) + [recorder.snapshot()]
        )


def _run_sweep(
    config: StudyConfig,
    traces: Dict[tuple, Trace],
    programs: Dict[str, Program],
    engine: str,
    jobs: int,
    timer: PhaseTimer,
    *,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[StudyCheckpoint] = None,
    done: Optional[Dict[Task, list]] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    shard_timeout: Optional[float] = None,
    recorder=NULL_RECORDER,
) -> PerfDataset:
    """Price every shard not in ``done`` and merge the grid in order.

    Shards are priced in blocks (see :func:`_blocks`), and each priced
    shard goes through one completion step: it is counted,
    checkpointed (with the metrics sidecar), ticks the ``pricing``
    phase and fires the ``interrupt`` fault.  With ``jobs == 1`` the
    blocks are priced in-process, in grid order, with faults armed and
    no retries, so an injected ``error`` propagates to the caller.

    With ``jobs > 1`` a worker pool prices them, one pool task per
    block, and each worker gets the traces once, through the pool
    initializer.  The pool survives failures: a shard that fails in its
    block is re-queued alone up to ``retries`` times (exponential
    backoff) and then priced in-process; a dead pool (worker killed
    mid-task) is rebuilt up to ``retries`` times, after which every
    unfinished shard is priced in-process.  The in-process fallback
    runs without fault injection — it is the recovery of last resort,
    not a fault site.

    ``shard_timeout`` makes every pool task a single shard and arms a
    deadline watchdog: a shard still running ``shard_timeout`` seconds
    after it was first observed executing is presumed hung (a
    straggler, a livelocked worker, the ``slow`` fault).  The pool is
    torn down — hung workers are terminated, since a running future
    cannot be cancelled — the overdue shard is counted
    under ``study.shards.timeout`` and re-queued within the ``retries``
    budget; once the budget is exhausted it is *quarantined*
    (``study.shards.quarantined``): excluded from the dataset and never
    checkpointed, so a later ``--resume`` re-prices exactly the
    quarantined shards.
    """
    tasks: List[Task] = [
        (chip_idx, cfg_idx)
        for chip_idx in range(len(config.chips))
        for cfg_idx in range(len(config.configs))
    ]
    state: _State = (
        programs,
        traces,
        config.chips,
        config.configs,
        config.repetitions,
        engine,
    )
    results: Dict[Task, list] = dict(done or {})
    pending = [t for t in tasks if t not in results]
    note_every = max(1, len(tasks) // 10)
    # The phase counts only the shards this run prices, so a resumed
    # run's ETA is not skewed by the shards it loaded for free.
    timer.start("pricing", total=len(pending))

    def complete(task: Task, rows: list) -> None:
        recorder.count("study.shards.priced")
        if checkpoint is not None:
            checkpoint.record(task, rows)
            _save_metrics(checkpoint, recorder)
        results[task] = rows
        timer.tick()
        if len(results) % note_every == 0:
            timer.note(f"priced {len(results)}/{len(tasks)} shards")
        if faults is not None:
            faults.fire("interrupt", _shard_key(task))

    if jobs == 1:
        for block in _blocks(pending, jobs, per_shard=False, faults=faults):
            for task, rows in _price_in_process(block, state, faults, recorder):
                complete(task, rows)
        pending = []

    pool_failures = 0
    # Timeout counts persist across pool rebuilds (unlike the per-pool
    # ``failures`` dict): a shard that hangs every pool it runs in must
    # eventually exhaust its budget and be quarantined.
    timeouts: Dict[Task, int] = {}
    quarantined: List[Task] = []
    poll = max(0.05, shard_timeout / 4) if shard_timeout else None
    while pending:
        if pool_failures > retries:
            timer.note(
                f"worker pool died {pool_failures} times; pricing the "
                f"remaining {len(pending)} shards in-process"
            )
            for block in _blocks(pending, 1, per_shard=False):
                for task, rows in _price_in_process(block, state, None, recorder):
                    recorder.count("study.shards.fallback_inprocess")
                    complete(task, rows)
            pending = []
            break
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=state + (faults, recorder.enabled),
        )
        try:
            futures = {
                pool.submit(_price_block_in_worker, block): block
                for block in _blocks(
                    pending,
                    jobs,
                    per_shard=shard_timeout is not None,
                    faults=faults,
                )
            }
            failures: Dict[Task, int] = {}
            started: Dict[object, float] = {}
            while futures:
                finished, _ = wait(
                    futures, timeout=poll, return_when=FIRST_COMPLETED
                )
                if shard_timeout is not None:
                    now = time.monotonic()
                    overdue = []
                    for fut, block in futures.items():
                        if fut in finished or not fut.running():
                            continue
                        # The deadline clock starts when the shard is
                        # first *observed executing*, not when it was
                        # submitted — queued shards are not hung.
                        if fut not in started:
                            started[fut] = now
                        elif now - started[fut] > shard_timeout:
                            overdue.extend(block)
                    if overdue:
                        raise _ShardTimeout(overdue)
                for fut in finished:
                    block = futures.pop(fut)
                    try:
                        outcomes, delta = fut.result()
                    except BrokenExecutor:
                        raise
                    except Exception as exc:
                        outcomes, delta = [(task, exc) for task in block], None
                    if delta is not None:
                        recorder.merge(delta)
                    for task, rows in outcomes:
                        if isinstance(rows, Exception):
                            n = failures.get(task, 0) + 1
                            failures[task] = n
                            if n <= retries:
                                timer.note(
                                    f"{_shard_key(task)} failed ({rows}); "
                                    f"re-queued (retry {n}/{retries})"
                                )
                                recorder.count("study.shards.retried")
                                time.sleep(backoff * (2 ** (n - 1)))
                                retry = pool.submit(_price_block_in_worker, [task])
                                futures[retry] = [task]
                                continue
                            timer.note(
                                f"{_shard_key(task)} failed {n} times "
                                f"({rows}); pricing in-process"
                            )
                            recorder.count("study.shards.fallback_inprocess")
                            [(_, rows)] = _price_in_process(
                                [task], state, None, recorder
                            )
                        complete(task, rows)
                        pending.remove(task)
            pool.shutdown()
        except _ShardTimeout as signal:
            # A running future cannot be cancelled: tear the pool down
            # and terminate its workers so a hung shard (the ``slow``
            # fault, a livelock) cannot stall the sweep — or block
            # interpreter exit — forever.
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                proc.terminate()
            for task in signal.tasks:
                n = timeouts.get(task, 0) + 1
                timeouts[task] = n
                recorder.count("study.shards.timeout")
                if n > retries:
                    timer.note(
                        f"{_shard_key(task)} exceeded {shard_timeout}s "
                        f"{n} time(s); quarantined (re-price with --resume)"
                    )
                    recorder.count("study.shards.quarantined")
                    quarantined.append(task)
                    pending.remove(task)
                else:
                    timer.note(
                        f"{_shard_key(task)} exceeded {shard_timeout}s; "
                        f"re-queued (timeout {n}/{retries})"
                    )
                    time.sleep(backoff * (2 ** (n - 1)))
        except BrokenExecutor:
            # A worker died without unwinding (crash/OOM/kill): the
            # pool is unusable.  Rebuild it and re-queue every shard
            # that had not completed.
            pool.shutdown(wait=False, cancel_futures=True)
            pool_failures += 1
            recorder.count("study.pool.rebuilds")
            if pool_failures <= retries:
                timer.note(
                    f"worker pool died; re-queuing {len(pending)} shards "
                    f"(restart {pool_failures}/{retries})"
                )
                time.sleep(backoff * (2 ** (pool_failures - 1)))
        except BaseException:
            # Interrupt or unexpected error: don't wait for the queue.
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    if quarantined:
        timer.note(
            f"{len(quarantined)} shard(s) quarantined after repeated "
            f"timeouts: "
            + ", ".join(_shard_key(t) for t in sorted(quarantined))
        )
    if checkpoint is not None:
        checkpoint.quarantined_tasks = sorted(quarantined)

    # Merge in chip -> config -> test order so the dataset's
    # insertion order is independent of completion order.
    # Quarantined shards have no rows: their cells stay absent, the
    # audit reports them as holes, and ``--resume`` re-prices them.
    dataset = PerfDataset()
    for chip_idx, chip in enumerate(config.chips):
        for cfg_idx, opt in enumerate(config.configs):
            rows = results.get((chip_idx, cfg_idx))
            if rows is None:
                continue
            for app_name, input_name, times in rows:
                dataset.add(
                    TestCase(app_name, input_name, chip.short_name), opt, times
                )
    return dataset


def run_study(
    config: Optional[StudyConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    jobs: int = 1,
    engine: str = "batch",
    traces: Optional[Dict[tuple, Trace]] = None,
    checkpoint=None,
    resume: bool = False,
    faults: Optional[FaultPlan] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    shard_timeout: Optional[float] = None,
    recorder=None,
    store: str = "rows",
) -> PerfDataset:
    """Run the full study and return the performance dataset.

    ``store`` picks only the return type: ``"rows"`` (the default)
    returns the dict-backed :class:`PerfDataset`; ``"v3"`` returns
    ``columnar_from_dataset`` of it, a
    :class:`~repro.store.ColumnarDataset` holding the identical
    measurements.  Either way workers send their priced rows back over
    the pool's pipes and the parent merges them in grid order.

    ``shard_timeout`` (seconds, parallel mode only) arms the hung-shard
    watchdog: a shard still executing past the deadline is terminated,
    re-queued within the ``retries`` budget, and finally quarantined —
    the sweep completes with that cell absent instead of hanging.

    ``engine`` selects the pricing path (``"batch"``, the vectorized
    default, or ``"scalar"``, the reference) and ``jobs`` the number of
    worker processes sharding the chip × configuration grid; every
    combination produces the identical dataset.  Precollected
    ``traces`` (from :func:`collect_traces`) skip phase 1.

    ``checkpoint`` (a directory path or
    :class:`~repro.study.checkpoint.StudyCheckpoint`) persists each
    completed shard; with ``resume=True`` a matching checkpoint's
    shards are loaded and skipped instead of re-priced, and a stale
    checkpoint (different study fingerprint) raises
    :class:`~repro.errors.CheckpointError`.  ``faults`` injects
    deterministic failures for testing; ``retries``/``backoff`` bound
    the parallel sweep's recovery from failed shards and dead pools.

    ``recorder`` (a :class:`~repro.obs.Recorder`) collects the run's
    metrics: per-block spans, ``study.shards.*`` counters whose
    ``priced + skipped_checkpoint`` always equals the grid size, cache
    hit/miss deltas, and — on ``resume`` — the metrics segments the
    interrupted run persisted to the checkpoint, loaded into
    ``recorder.prior_segments``.  The default ``None`` uses the no-op
    recorder: no bookkeeping at all.
    """
    if config is None:
        config = StudyConfig()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if store not in STORES:
        raise ValueError(f"unknown store {store!r}; expected one of {STORES}")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError("shard_timeout must be positive")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint directory")
    rec = recorder if recorder is not None else NULL_RECORDER

    timer = PhaseTimer(progress)
    if traces is None:
        timer.start("tracing", total=len(config.apps) * len(config.inputs))

        def _note_trace(message: str) -> None:
            timer.note(message)
            timer.tick()

        traces = collect_traces(
            config, _note_trace if progress else None, recorder=rec
        )
        timer.finish(f"collected {len(traces)} traces")

    programs = {app.name: app.program() for app in config.apps}

    done: Optional[Dict[Task, list]] = None
    ckpt: Optional[StudyCheckpoint] = None
    if checkpoint is not None:
        ckpt = (
            checkpoint
            if isinstance(checkpoint, StudyCheckpoint)
            else StudyCheckpoint(str(checkpoint))
        )
        fingerprint = study_fingerprint(config, engine, traces)
        done = ckpt.open(
            fingerprint,
            len(config.chips),
            len(config.configs),
            resume=resume,
            chips=[chip.short_name for chip in config.chips],
            configs=[cfg.key() for cfg in config.configs],
        )
        if rec.enabled:
            if resume:
                # The interrupted run's metrics segments: kept apart
                # from this run's counters so priced/skipped totals
                # reconcile per run, while the RunReport's
                # total_counter() still sees the whole study.
                rec.prior_segments = ckpt.load_metrics()
            if done:
                rec.count("study.shards.skipped_checkpoint", len(done))
            if ckpt.skipped_shards:
                rec.count(
                    "study.checkpoint.invalid_shards", ckpt.skipped_shards
                )
        if progress and (done or ckpt.skipped_shards):
            total = len(config.chips) * len(config.configs)
            dropped = (
                f" ({ckpt.skipped_shards} invalid shards re-priced)"
                if ckpt.skipped_shards
                else ""
            )
            progress(
                f"resuming: {len(done)}/{total} shards already priced{dropped}"
            )

    rec.gauge(
        "study.shards.total", len(config.chips) * len(config.configs)
    )
    dataset = _run_sweep(
        config,
        traces,
        programs,
        engine,
        jobs,
        timer,
        faults=faults,
        checkpoint=ckpt,
        done=done,
        retries=retries,
        backoff=backoff,
        shard_timeout=shard_timeout,
        recorder=rec,
    )
    if store == "v3":
        from ..store.columnar import columnar_from_dataset

        dataset = columnar_from_dataset(dataset)
    timer.finish(
        f"priced {dataset.n_measurements} measurements "
        f"({len(dataset)} tests, engine={engine}, jobs={jobs})"
    )
    return dataset


def _stderr_progress(message: str) -> None:  # pragma: no cover - CLI helper
    print(f"[study] {message}", file=sys.stderr)


def main() -> None:  # pragma: no cover - CLI entry point
    """CLI: run the full study and save the dataset."""
    import argparse

    from ..cli import metrics_parent

    parser = argparse.ArgumentParser(
        description=run_study.__doc__, parents=[metrics_parent()]
    )
    parser.add_argument(
        "output",
        help="path for the dataset: JSON (.gz ok) or binary columnar (.v3)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the pricing sweep (default: 1)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="batch",
        help="pricing engine (default: batch; scalar is the reference path)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="checkpoint directory for completed shards "
        "(default: OUTPUT.ckpt)",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable shard checkpointing",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint directory, skipping already-"
        "priced shards (rejects checkpoints of a different study)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        help="bounded retries for failed shards / dead worker pools "
        f"(default: {DEFAULT_RETRIES})",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline watchdog for hung shards (parallel mode): a shard "
        "running longer than SECONDS is terminated and re-queued within "
        "the --retries budget, then quarantined (default: no deadline)",
    )
    parser.add_argument(
        "--faults",
        metavar="DIR",
        default=None,
        help="fault-injection spool directory (testing only; see "
        "repro.faults.FaultPlan)",
    )
    args = parser.parse_args()

    ckpt_dir = None if args.no_checkpoint else (
        args.checkpoint or args.output + ".ckpt"
    )
    ckpt = StudyCheckpoint(ckpt_dir) if ckpt_dir else None
    faults = FaultPlan(args.faults) if args.faults else None
    rec = Recorder() if args.metrics else None

    started = time.time()
    try:
        dataset = run_study(
            StudyConfig(scale=args.scale, repetitions=args.repetitions),
            progress=_stderr_progress,
            jobs=args.jobs,
            engine=args.engine,
            checkpoint=ckpt,
            resume=args.resume,
            faults=faults,
            retries=args.retries,
            shard_timeout=args.shard_timeout,
            recorder=rec,
        )
    except KeyboardInterrupt:
        where = f" in {ckpt.directory}" if ckpt else ""
        print(
            f"[study] interrupted; completed shards are checkpointed{where} "
            f"— re-run with --resume to continue",
            file=sys.stderr,
        )
        raise SystemExit(130)
    except CheckpointError as exc:
        print(f"[study] {exc}", file=sys.stderr)
        raise SystemExit(3)
    dataset.save(args.output, faults=faults)
    if rec is not None:
        report = RunReport.from_recorder(
            rec,
            meta={
                "engine": args.engine,
                "jobs": args.jobs,
                "scale": args.scale,
                "repetitions": args.repetitions,
                "resumed": args.resume,
                "dataset": args.output,
            },
        )
        report.save(args.metrics)
        print(f"[study] wrote run report to {args.metrics}", file=sys.stderr)
        print(report.render(), file=sys.stderr)
    if ckpt is not None:
        if ckpt.quarantined_tasks:
            # Quarantined shards are not in the dataset; keep the
            # checkpoint so --resume can re-price exactly those cells.
            print(
                f"[study] {len(ckpt.quarantined_tasks)} quarantined "
                f"shard(s) kept in {ckpt.directory} — re-run with "
                f"--resume to re-price them",
                file=sys.stderr,
            )
        else:
            ckpt.clear()  # the dataset is safely on disk; drop the shards
    print(
        f"wrote {dataset.n_measurements} measurements "
        f"({len(dataset)} tests) in {time.time() - started:.1f}s to {args.output}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
