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
draws a program's traces under a chip block at once through the array
path, with no generator per seed: :func:`block_seeds` hashes every
configuration key in one ``uint64`` pass; :func:`pcg64_states`
reimplements numpy's ``SeedSequence`` and the PCG64 seeding step over
the whole seed array; and :func:`noise_from_seeds` steps each LCG
twice in ``uint64`` words and turns the two outputs into the standard
normal (numpy's ziggurat fast path) and the uniform.  The ziggurat
tables ``wi``/``ki`` are C statics of numpy, read back once at import
by steering a generator to emit chosen words (:func:`_probe`).  A draw
off the fast path (~1.5 %) is taken from :func:`noise_from_seed`
itself.  The array path is ``==`` the reference for every seed; the
tests pin it against numpy's own seeding and draws, so a numpy release
that changes ``SeedSequence`` or the ziggurat fails there rather than
in a dataset.
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
#: PCG64's default 128-bit LCG multiplier (``pcg64.h``), its inverse
#: modulo 2**128, and its (high, low) words.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_PCG_MULT_HIGH = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LOW = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_U32 = np.uint64(32)
_U64 = np.uint64(64)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW52 = np.uint64((1 << 52) - 1)


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


#: A 128-bit integer per element, as its (high, low) ``uint64`` words.
Words128 = Tuple[np.ndarray, np.ndarray]


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High word of the 128-bit product of ``uint64`` words ``a`` and ``b``.

    Built from 32-bit limbs, whose products fit a ``uint64``.
    """
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _add128(a: Words128, b: Words128) -> Words128:
    """``a + b`` modulo 2**128."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]).astype(np.uint64), low


def _pcg64_step(state: Words128, inc: Words128) -> Words128:
    """One LCG step, ``state * M + inc`` modulo 2**128."""
    high, low = state
    product = (
        _mul_hi(low, _PCG_MULT_LOW)
        + low * _PCG_MULT_HIGH
        + high * _PCG_MULT_LOW,
        low * _PCG_MULT_LOW,
    )
    return _add128(product, inc)


def _xsl_rr(state: Words128) -> np.ndarray:
    """PCG64's output of a state: ``rotr64(high ^ low, high >> 58)``."""
    high, low = state
    word = high ^ low
    rot = high >> np.uint64(58)
    return (word >> rot) | (word << ((_U64 - rot) & np.uint64(63)))


def pcg64_states(seeds: np.ndarray) -> Tuple[Words128, Words128]:
    """The ``(state, inc)`` that ``np.random.PCG64(seed)`` starts from.

    Each is a (high, low) pair of ``uint64`` arrays, one element per
    seed.  From each seed's :func:`_seed_sequence_words` ``(s0, s1,
    i0, i1)``, PCG64 seeds its LCG with ``initstate = s0:s1`` and
    ``initseq = i0:i1`` (high word first) by
    ``pcg_setseq_128_srandom_r``: ``inc = initseq << 1 | 1``, then one
    LCG step from state 0, add ``initstate``, and one more step —
    modulo 2**128, in ``uint64`` words.
    """
    s0, s1, i0, i1 = _seed_sequence_words(seeds)
    one = np.uint64(1)
    inc = ((i0 << one) | (i1 >> np.uint64(63)), (i1 << one) | one)
    return _pcg64_step(_add128(inc, (s0, s1)), inc), inc


# -- numpy's ziggurat tables -----------------------------------------------
#
# ``Generator.standard_normal`` takes one 64-bit output ``r``: ``idx =
# r & 0xff``, ``sign = (r >> 8) & 1``, ``rabs = (r >> 9) & (2**52 - 1)``,
# and returns ``z = (-1)**sign * rabs * wi[idx]`` when ``rabs < ki[idx]``
# (the fast path).  Otherwise it draws more outputs (the tail at
# ``idx == 0``, the wedge test elsewhere).  numpy keeps ``wi``/``ki`` as
# C statics, so they are read back here, once per process, by steering
# a generator to emit a chosen word.


def _probe(rng: np.random.Generator, word: int) -> Tuple[float, bool]:
    """``standard_normal()`` of ``rng`` steered to output ``word`` next.

    With ``inc = 1`` and ``state = (word - 1) * M**-1``, one LCG step
    gives ``state == word``: its high word is 0, so the XSL-RR output is
    ``word``.  Also returns whether the draw took the fast path, i.e.
    consumed that output only (the state after it is still ``word``).
    ``rng`` must draw from a PCG64.
    """
    bit_generator = rng.bit_generator
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((word - 1) * _PCG_MULT_INV) & _MASK128, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    z = rng.standard_normal()
    return z, bit_generator.state["state"]["state"] == word


def _ziggurat_word(idx: int, rabs: int) -> int:
    """The output word whose draw reads ``idx``, sign 0 and ``rabs``."""
    return (rabs << 9) | idx


def _ziggurat_tables() -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ``wi`` and verified lower bounds of its ``ki``.

    ``wi[i]`` is the draw at ``rabs == 1``.  ``ki[i]`` is, to within 1,
    ``2**52 * wi[i - 1] / wi[i]`` (``wi[255]`` for ``i == 0``); one
    less than that floor is kept when the draw at ``rabs`` just below
    it takes the fast path — ``rabs < ki`` is monotone in ``rabs``, so
    every smaller ``rabs``, ``rabs == 1`` included, does too — and 0
    otherwise (numpy's ``ki[1]`` is 0), which sends every draw of that
    index to the fallback.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    wi = np.array([_probe(rng, _ziggurat_word(i, 1))[0] for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        ratio = 2.0**52 * wi[idx - 1] / wi[idx] if wi[idx] > 0 else 0.0
        bound = int(min(ratio, 2.0**52)) - 1 if ratio > 0 else 0
        if bound > 1 and _probe(rng, _ziggurat_word(idx, bound - 1))[1]:
            ki[idx] = bound
    return wi, ki


#: ``wi`` and fast-path bounds ``ki`` of this process's numpy.
_ZIGGURAT_WI, _ZIGGURAT_KI = _ziggurat_tables()


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

    Each seed's generator is stepped twice from :func:`pcg64_states` in
    ``uint64`` arithmetic.  The first output gives the standard normal
    ``z`` by numpy's ziggurat fast path, the second the uniform ``u =
    (r2 >> 11) * 2**-53``.  ``normal(0.0, sigma)`` is ``0.0 + sigma *
    z`` and ``uniform(0.0, b)`` is ``0.0 + b * u``; adding ``0.0`` only
    changes the sign of a zero, which neither ``exp`` nor a
    non-negative jitter can see.  A draw off the fast path (about
    1.5 %) would consume more outputs, so it is taken from
    :func:`noise_from_seed` itself.
    """
    true_us = np.asarray(true_us, dtype=np.float64)
    if (true_us < 0).any():
        raise ValueError("true runtime must be non-negative")
    seeds = np.asarray(seeds, dtype=np.uint64)
    state, inc = pcg64_states(seeds)
    state = _pcg64_step(state, inc)
    first = _xsl_rr(state)
    second = _xsl_rr(_pcg64_step(state, inc))
    idx = (first & np.uint64(0xFF)).astype(np.intp)
    rabs = (first >> np.uint64(9)) & _LOW52
    normal = rabs.astype(np.float64) * _ZIGGURAT_WI[idx]
    normal = np.where(first & np.uint64(0x100), -normal, normal)
    uniform = (second >> np.uint64(11)).astype(np.float64) * 2.0**-53
    multiplicative = np.exp(chip.noise_sigma * normal)
    times = true_us * multiplicative + _TIMER_JITTER_US * uniform
    for i in np.flatnonzero(rabs >= _ZIGGURAT_KI[idx]).tolist():
        times[i] = noise_from_seed(float(true_us[i]), chip, int(seeds[i]))
    return times


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
