"""Measurement-noise model.

The paper times each test three times; its statistical machinery (95 %
CI significance filter, Mann-Whitney U) exists *because* measurements
are noisy, and its Table IX records one case (``fg8`` on MALI) where
noise leaves too few significant samples to decide.  We reproduce that
setting with multiplicative log-normal noise — the standard model for
timing measurements — whose magnitude is a per-chip parameter (MALI,
timed via a calibration loop because OpenCL exposes no device timers,
is by far the noisiest), plus a small additive timer-granularity term.

All noise is deterministic given (chip, program, graph, configuration,
repetition): re-running the study bit-reproduces the dataset.  The
seed of one measurement is ``stable_hash`` of that tuple; for batch
sweeps the (chip, program, graph) prefix of the FNV-1a stream is
hashed once (:func:`measurement_prefix`), each configuration is folded
into it once, and every repetition seed is derived from that
(:func:`measurement_seeds`) — identical seeds, without re-hashing the
prefix or the configuration key per seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..chips.model import ChipModel
from ..util import fnv1a_extend, fnv1a_fold, fnv1a_state, stable_hash

__all__ = [
    "measurement_prefix",
    "measurement_rng",
    "measurement_seeds",
    "noise_from_seed",
    "noisy_measurement_us",
]

#: Additive timer granularity / scheduling jitter bound (microseconds).
_TIMER_JITTER_US = 1.5


def measurement_rng(
    chip: ChipModel, program: str, graph: str, config_key: str, rep: int
) -> np.random.Generator:
    """Deterministic RNG for one timing measurement."""
    seed = stable_hash(chip.short_name, program, graph, config_key, rep)
    return np.random.default_rng(seed)


def measurement_prefix(chip: ChipModel, program: str, graph: str) -> int:
    """FNV-1a state over the configuration-independent seed prefix."""
    return fnv1a_state(chip.short_name, program, graph)


def measurement_seeds(
    chip: ChipModel,
    program: str,
    graph: str,
    config_key: str,
    repetitions: int,
    prefix: Optional[int] = None,
) -> List[int]:
    """All repetition seeds of one (chip, program, graph, config) point.

    Identical to ``[stable_hash(chip.short_name, program, graph,
    config_key, rep) for rep in range(repetitions)]``, but the shared
    prefix is hashed once (or passed in precomputed from
    :func:`measurement_prefix`), ``config_key`` is folded in once, and
    each seed extends that state by its repetition only.
    """
    if prefix is None:
        prefix = measurement_prefix(chip, program, graph)
    point = fnv1a_fold(prefix, config_key)
    return [fnv1a_extend(point, rep) for rep in range(repetitions)]


def noise_from_seed(true_us: float, chip: ChipModel, seed: int) -> float:
    """One simulated timing measurement drawn from an explicit seed."""
    if true_us < 0:
        raise ValueError("true runtime must be non-negative")
    # Generator(PCG64(seed)) is default_rng(seed) without the seed-type
    # dispatch — same PCG64 stream, measurably cheaper to construct,
    # which matters at one generator per (config, repetition).
    rng = np.random.Generator(np.random.PCG64(seed))
    multiplicative = float(np.exp(rng.normal(0.0, chip.noise_sigma)))
    jitter = float(rng.uniform(0.0, _TIMER_JITTER_US))
    return true_us * multiplicative + jitter


def noisy_measurement_us(
    true_us: float,
    chip: ChipModel,
    program: str,
    graph: str,
    config_key: str,
    rep: int,
) -> float:
    """One simulated timing measurement of a run with true cost ``true_us``."""
    seed = stable_hash(chip.short_name, program, graph, config_key, rep)
    return noise_from_seed(true_us, chip, seed)
