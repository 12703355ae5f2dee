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
seed of one measurement is ``stable_hash`` of that tuple, and the
measurement is :func:`noise_from_seed` of it — one fresh
``Generator(PCG64(seed))`` per draw, the reference definition.

Scalar callers fold the (chip, program, graph) prefix of the FNV-1a
stream once (:func:`measurement_prefix`) and derive a point's
repetition seeds from it (:func:`measurement_seeds`).  A study sweep
draws a whole (trace, chip block) at once through the array path:
:func:`block_seeds` hashes every configuration key in one ``uint64``
pass, :func:`pcg64_states` reimplements numpy's ``SeedSequence`` and
the PCG64 seeding step over the whole seed array, and
:func:`noise_from_seeds` draws every measurement through one reused
generator whose state is set per seed.  The array path is ``==`` the
reference for every seed; the tests pin it against numpy's own
seeding, so a numpy release that changes ``SeedSequence`` fails there
rather than in a dataset.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chips.model import ChipModel
from ..util import (
    fnv1a_extend,
    fnv1a_extend_array,
    fnv1a_fold,
    fnv1a_fold_array,
    fnv1a_state,
    stable_hash,
)

__all__ = [
    "block_seeds",
    "measurement_prefix",
    "measurement_seeds",
    "noise_from_seed",
    "noise_from_seeds",
    "noisy_measurement_us",
    "pcg64_states",
]

#: Additive timer granularity / scheduling jitter bound (microseconds).
_TIMER_JITTER_US = 1.5

# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: PCG64's default 128-bit LCG multiplier (``pcg64.h``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init, init * mult, init * mult**2, ...`` modulo 2**32, a column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append((consts[-1] * mult) & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32).reshape(-1, 1)


#: SeedSequence's hash multipliers never depend on the data: the pool
#: mix makes 4 + 12 hashmix calls, and 4 uint64 words take 8 outputs.
_POOL_CONSTS = _hash_constants(_INIT_A, _MULT_A, 17)
_OUTPUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, 9)


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


def block_seeds(
    chip: ChipModel,
    program: str,
    graph: str,
    config_keys: Sequence[str],
    repetitions: int,
) -> np.ndarray:
    """Seeds of a block of configurations, shape ``(keys, repetitions)``.

    Row ``i`` is ``measurement_seeds(chip, program, graph,
    config_keys[i], repetitions)`` as ``uint64``: every key is folded
    into the shared prefix in one array pass, then each repetition
    finishes all of them, as in the scalar fold and extend.
    """
    prefix = measurement_prefix(chip, program, graph)
    points = fnv1a_fold_array(
        np.full(len(config_keys), prefix, dtype=np.uint64), config_keys
    )
    return np.stack(
        [fnv1a_extend_array(points, rep) for rep in range(repetitions)],
        axis=1,
    )


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed.

    numpy's algorithm in ``uint32`` array arithmetic, one row per pool
    or output word and one column per seed.  A seed's two 32-bit words
    (low first) are hash-mixed into a 4-word pool; each pool word in
    turn is hash-mixed into the other three; 8 output words are hashed
    out of the pool and paired into 4 ``uint64`` words.  A seed below
    2**32 has one entropy word, and numpy fills the rest of the pool
    with ``hashmix(0)``, which is what a zero high word gives here.
    Call ``k`` of numpy's running hash multiplier XORs with constant
    ``k`` and multiplies by constant ``k + 1``.
    """

    def hashmix(value, consts):
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ (value >> _XSHIFT)

    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    with np.errstate(over="ignore"):
        pool = hashmix(pool, _POOL_CONSTS[:5])
        k = 4
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            # Three hashmix calls of one word: constants k .. k + 3.
            hashed = hashmix(pool[src], _POOL_CONSTS[k : k + 4])
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
            pool[dst] = mixed ^ (mixed >> _XSHIFT)
            k += 3
        out = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT_CONSTS)
    out = out.astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


def pcg64_states(seeds: np.ndarray) -> Tuple[List[int], List[int]]:
    """The ``(state, inc)`` lists ``np.random.PCG64(seed)`` starts from.

    From each seed's :func:`_seed_sequence_words` ``(s0, s1, i0, i1)``,
    PCG64 seeds its LCG with ``initstate = s0:s1`` and ``initseq =
    i0:i1`` (high word first) by ``pcg_setseq_128_srandom_r``:
    ``inc = initseq << 1 | 1``, then one LCG step from state 0, add
    ``initstate``, and one more step — in Python's exact integers,
    modulo 2**128.
    """
    words = _seed_sequence_words(seeds).tolist()
    states: List[int] = []
    incs: List[int] = []
    for s0, s1, i0, i1 in zip(*words):
        inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        states.append(state)
        incs.append(inc)
    return states, incs


def noise_from_seed(true_us: float, chip: ChipModel, seed: int) -> float:
    """One simulated timing measurement drawn from an explicit seed."""
    if true_us < 0:
        raise ValueError("true runtime must be non-negative")
    # Generator(PCG64(seed)) is default_rng(seed) without the seed-type
    # dispatch — same PCG64 stream, measurably cheaper to construct.
    rng = np.random.Generator(np.random.PCG64(seed))
    multiplicative = float(np.exp(rng.normal(0.0, chip.noise_sigma)))
    jitter = float(rng.uniform(0.0, _TIMER_JITTER_US))
    return true_us * multiplicative + jitter


def noise_from_seeds(
    true_us: np.ndarray, chip: ChipModel, seeds: np.ndarray
) -> np.ndarray:
    """``noise_from_seed(true_us[i], chip, seeds[i])`` of every ``i``.

    One generator is reused: its PCG64 state is set from
    :func:`pcg64_states` per seed, and it draws the same standard
    normal and uniform :func:`noise_from_seed` draws.
    ``normal(0.0, sigma)`` is ``0.0 + sigma * z`` and ``uniform(0.0,
    b)`` is ``0.0 + b * u``; adding ``0.0`` only changes the sign of a
    zero, which neither ``exp`` nor a non-negative jitter can see, so
    the scaling, ``exp`` and the sum run over whole arrays.
    """
    true_us = np.asarray(true_us, dtype=np.float64)
    if (true_us < 0).any():
        raise ValueError("true runtime must be non-negative")
    states, incs = pcg64_states(seeds)
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    lcg = {"state": 0, "inc": 0}
    full_state = {
        "bit_generator": "PCG64",
        "state": lcg,
        "has_uint32": 0,
        "uinteger": 0,
    }
    normal = np.empty(len(states), dtype=np.float64)
    uniform = np.empty(len(states), dtype=np.float64)
    for i, (state, inc) in enumerate(zip(states, incs)):
        lcg["state"] = state
        lcg["inc"] = inc
        bit_generator.state = full_state
        normal[i] = rng.standard_normal()
        uniform[i] = rng.random()
    multiplicative = np.exp(chip.noise_sigma * normal)
    return true_us * multiplicative + _TIMER_JITTER_US * uniform


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
