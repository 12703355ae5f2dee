"""Online single-point pricing for ``POST /v1/predict``.

The offline sweep prices the whole chip × configuration grid at once;
a serving client instead asks "what would *this* configuration cost on
*this* chip for *this* workload, right now?".  :class:`Predictor`
answers through the same vectorized batch engine the study uses
(:mod:`repro.perfmodel.batch`) — same compile cache, same seeded noise
model — so an online prediction for a point the study measured returns
exactly the study's numbers.

Traces are collected lazily, once per (application, input) pair, and
memoised for the lifetime of the predictor: the first prediction
touching a pair pays the functional execution, later ones only pay
pricing.  A small default ``scale`` keeps that first-request cost at
interactive latency.

The predictor serialises predictions behind one lock: the compile
cache and the predictor's own memos are not thread-safe, and
the server prices on a pricing thread off the event loop, so the lock
makes concurrent ``/v1/predict`` requests queue rather than corrupt
shared state.  :meth:`Predictor.price_many` amortises that lock — and
the thread round-trip that precedes it — over a whole coalesced
micro-batch (see :class:`~repro.serve.server.PredictCoalescer`): one
locked pass prices every item — one plan-axis batch per (chip,
application, input) for the points not priced before — and each
item's numbers are exactly what :meth:`Predictor.price` would have
returned alone.  A point's true runtime and its seeded noise draws
depend on nothing but the point, so both are memoised together: a
repeated point costs a chip lookup, its configuration key and a dict
copy, with no hashing of seeds and no noise draws.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..apps.registry import all_applications
from ..chips.database import get_chip
from ..compiler.options import OptConfig
from ..compiler.pipeline import compile_cached
from ..errors import ChipError, InvalidConfigError, PredictionError
from ..graphs.inputs import study_inputs
from ..perfmodel.batch import estimate_runtimes_us_batch, measure_repeats_us_batch
from ..perfmodel.noise import measurement_prefix, measurement_seeds

__all__ = ["Predictor"]


class Predictor:
    """Prices one (chip, app, input, configuration) point on demand."""

    def __init__(
        self,
        scale: float = 0.05,
        repetitions: int = 3,
        seed: int = 7,
        source: int = 0,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        self.scale = scale
        self.repetitions = repetitions
        self.seed = seed
        self.source = source
        self._lock = threading.Lock()
        self._apps = {app.name: app for app in all_applications()}
        self._inputs = None  # built lazily: graph generation is not free
        self._programs: Dict[str, object] = {}
        self._traces: Dict[Tuple[str, str], object] = {}
        self._prefixes: Dict[tuple, int] = {}
        #: Every point priced so far, keyed by (chip, application,
        #: input, configuration key): its true runtime and its seeded
        #: noisy repetitions, both deterministic in the point.
        self._priced: Dict[tuple, Tuple[float, Tuple[float, ...]]] = {}

    @property
    def app_names(self):
        return sorted(self._apps)

    def _input(self, name: str):
        if self._inputs is None:
            self._inputs = study_inputs(scale=self.scale, seed=self.seed)
        try:
            return self._inputs[name]
        except KeyError:
            raise PredictionError(
                f"unknown input {name!r}; known inputs: "
                f"{', '.join(sorted(self._inputs))}"
            ) from None

    def _trace(self, app_name: str, input_name: str):
        key = (app_name, input_name)
        trace = self._traces.get(key)
        if trace is not None:
            return trace
        try:
            app = self._apps[app_name]
        except KeyError:
            raise PredictionError(
                f"unknown application {app_name!r}; known applications: "
                f"{', '.join(self.app_names)}"
            ) from None
        inp = self._input(input_name)
        if app.requires_weights and not inp.graph.has_weights:
            raise PredictionError(
                f"application {app_name!r} requires edge weights but input "
                f"{input_name!r} is unweighted"
            )
        result = app.run(inp.graph, source=self.source)
        self._traces[key] = result.trace
        self._programs.setdefault(app_name, app.program())
        return result.trace

    def price(
        self,
        chip_name: str,
        app_name: str,
        input_name: str,
        config: OptConfig,
    ) -> dict:
        """Price one point; raises :class:`PredictionError` on bad input.

        The returned dict is JSON-ready: the noiseless model estimate
        (``predicted_us``), the seeded noisy repetitions (``times_us``)
        and the trace's launch count.
        """
        with self._lock:
            [result] = self._price_locked(
                [(chip_name, app_name, input_name, config)]
            )
        if isinstance(result, PredictionError):
            raise result
        return result

    def price_many(
        self,
        points: Sequence[Tuple[str, str, str, OptConfig]],
    ) -> List[Union[dict, PredictionError]]:
        """Price a coalesced batch in one locked vectorized pass.

        Each entry of the returned list is either the exact dict
        :meth:`price` would return for that point — same memoised
        traces, same compile cache, same seeded noise, so coalescing a
        request changes nothing about its numbers — or the
        :class:`~repro.errors.PredictionError` that point raised.
        Errors are *values* here: one bad item never aborts the batch.
        """
        with self._lock:
            return self._price_locked(points)

    def _resolve(
        self, chip_name: str, app_name: str, input_name: str, config: OptConfig
    ):
        """A point's memo key, and its (chip, trace, compiled plan).

        A point priced before needs none of the three, so it gets
        ``None`` in their place.
        """
        try:
            chip = get_chip(chip_name)
        except ChipError as exc:
            raise PredictionError(str(exc)) from exc
        key = (chip.short_name, app_name, input_name, config.key())
        if key in self._priced:
            return key, None
        trace = self._trace(app_name, input_name)
        plan = compile_cached(self._programs[app_name], chip, config)
        return key, (chip, trace, plan)

    def _price_locked(
        self, points: Sequence[Tuple[str, str, str, OptConfig]]
    ) -> List[Union[dict, PredictionError]]:
        """Price ``points``; the caller holds ``self._lock``.

        Points not priced before are priced with one plan-axis pass per
        (chip, application, input), and their noise is drawn once.
        """
        resolved: List = []
        for point in points:
            try:
                resolved.append(self._resolve(*point))
            except PredictionError as exc:
                resolved.append(exc)
        blocks: Dict[tuple, tuple] = {}
        for item in resolved:
            if isinstance(item, PredictionError) or item[1] is None:
                continue
            key, (chip, trace, plan) = item
            block = blocks.setdefault(key[:3], (chip, trace, {}))
            block[2][key] = plan
        for chip, trace, plans in blocks.values():
            priced = estimate_runtimes_us_batch(
                list(plans.values()), trace.arrays()
            )
            for (key, plan), true_us in zip(plans.items(), priced):
                self._priced[key] = (
                    true_us, self._draw(chip, trace, plan, key, true_us)
                )
        return [
            item if isinstance(item, PredictionError) else self._answer(item[0])
            for item in resolved
        ]

    def _draw(self, chip, trace, plan, key, true_us) -> Tuple[float, ...]:
        """The seeded noisy repetitions of one point."""
        pkey = (chip.short_name, trace.program, trace.graph)
        prefix = self._prefixes.get(pkey)
        if prefix is None:
            prefix = measurement_prefix(chip, trace.program, trace.graph)
            self._prefixes[pkey] = prefix
        seeds = measurement_seeds(
            chip,
            trace.program,
            trace.graph,
            key[3],
            self.repetitions,
            prefix=prefix,
        )
        times = measure_repeats_us_batch(
            plan, trace, self.repetitions, true_us=true_us, seeds=seeds
        )
        return tuple(float(t) for t in times)

    def _answer(self, key: tuple) -> dict:
        """The response dict of one priced point."""
        true_us, times = self._priced[key]
        return {
            "chip": key[0],
            "app": key[1],
            "input": key[2],
            "config": key[3],
            "predicted_us": float(true_us),
            "times_us": list(times),
            "repetitions": self.repetitions,
        }

    @staticmethod
    def parse_config(value) -> OptConfig:
        """An :class:`OptConfig` from a request's ``config`` field.

        Accepts the dataset key syntax (``"wg+sg"``, ``"baseline"``);
        raises :class:`PredictionError` on anything else.
        """
        if not isinstance(value, str) or not value:
            raise PredictionError(
                f"config must be a non-empty string key such as 'wg+sg' "
                f"or 'baseline' (got {value!r})"
            )
        if value == "baseline":
            return OptConfig.from_names(())
        try:
            return OptConfig.from_names(value.split("+"))
        except InvalidConfigError as exc:
            raise PredictionError(str(exc)) from exc
