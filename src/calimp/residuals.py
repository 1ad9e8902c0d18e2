"""Random residuals for stochastic imputation.

Residuals are mean-zero normal draws with the regression's residual
standard deviation, constrained to each cell's admissible interval by
acceptance/rejection sampling (with an inverse-CDF fallback that leaves
the truncated law unchanged when the interval sits far in the tail).  A
drawn vector is then re-centered by the smallest adjustment keeping every
cell inside its interval while its weighted sum becomes exactly zero.

Each drawing cell has its own stream, defined by :func:`cell_rng` from the
seed, the column and the record.  :func:`cell_streams` gives the same
streams for many records of a column: it runs numpy's ``SeedSequence``
hash for all of them at once as array arithmetic, and per drawing cell
only finishes the PCG64 seeding of one reused generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import truncnorm

from .adjust import AdjustmentProblem, adjustment_stats, zero_sum_interval_adjust
from .fm import Interval

DEFAULT_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class ResidualDraw:
    value: float
    attempts: int
    fallback_used: bool


def cell_rng(seed: int, variable_index: int, record_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one cell of one variable."""
    return np.random.default_rng([seed, variable_index, record_index])


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _int_words(n: int) -> list[int]:
    """``n`` as SeedSequence takes an integer: its 32-bit words, low first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg_seeds(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` on
    many entropy lists at once: word ``i`` of every list is
    ``entropy[i]``, a ``uint32`` array of one value or of one value per
    list.  Row ``k`` of the result holds the four words ``PCG64`` seeds
    itself from for list ``k``."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state joins its uint32 words in pairs, low word first.
    state = np.empty((pool[0].size, 2 * _POOL_SIZE), "<u4")
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8")


def cell_streams(seed: int, variable_index: int, records) -> Callable[[int], np.random.Generator]:
    """``stream(k)``: a generator in the state of ``cell_rng(seed,
    variable_index, records[k])``.

    The seed hashing runs once over all records as array arithmetic;
    ``stream(k)`` only finishes the 128-bit PCG64 seeding of cell ``k``
    (about 2.5 µs against about 15 µs for :func:`cell_rng`).  Every call
    returns the same generator, so one is valid until the next call.
    """
    records = np.asarray(records).ravel()
    if records.size and records.min() < 0:
        raise ValueError("expected non-negative integer")
    records = records.astype(np.uint64)
    prefix = [np.array([w], np.uint32) for w in _int_words(seed) + _int_words(variable_index)]
    # SeedSequence gives a record below 2**32 one entropy word, else two.
    low, high = records.astype(np.uint32), (records >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    seeds = np.empty((records.size, _POOL_SIZE), np.uint64)
    for rows, words in ((~wide, (low,)), (wide, (low, high))):
        if rows.any():
            seeds[rows] = _pcg_seeds(prefix + [w[rows] for w in words])
    rng = np.random.Generator(np.random.PCG64(0))

    def stream(k: int) -> np.random.Generator:
        s_hi, s_lo, i_hi, i_lo = seeds[k].tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        return rng

    return stream


def draw_ar_residual(sigma: float, interval: Interval, rng: np.random.Generator) -> ResidualDraw:
    """One normal residual truncated to ``interval``, for ``sigma > 0`` and
    an interval that is not a point (callers settle those cases without a
    stream).

    Plain rejection against N(0, sigma^2) up to ``DEFAULT_MAX_ATTEMPTS``
    proposals; afterwards the value is drawn by inverting the truncated CDF
    instead, which preserves the distribution exactly.
    """
    lo, hi = interval.lower, interval.upper
    if not sigma > 0.0 or interval.is_point():
        raise ValueError(f"needs sigma > 0 and a non-point interval, got {sigma} and [{lo}, {hi}]")

    for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
        x = float(rng.normal(0.0, sigma))
        if lo <= x <= hi:
            return ResidualDraw(x, attempt, False)

    a = lo / sigma
    b = hi / sigma
    u = float(rng.uniform())
    x = float(truncnorm.ppf(u, a, b, loc=0.0, scale=sigma))
    if not np.isfinite(x) or not (lo <= x <= hi):
        # Numerically degenerate far-tail interval: land on the closer side.
        x = float(min(max(0.0 if lo <= 0.0 <= hi else (lo if abs(lo) < abs(hi) else hi), lo), hi))
    return ResidualDraw(x, DEFAULT_MAX_ATTEMPTS, True)


def benchmarked_residuals(
    sigma: float,
    lower,
    upper,
    weights,
    stream: Callable[[int], np.random.Generator] | None,
    feasibility_scale: float = 1.0,
) -> tuple[np.ndarray, dict]:
    """Interval-respecting residual vector with weighted sum exactly zero.

    Cell ``i`` may take residuals in ``[lower[i], upper[i]]``.  With
    ``sigma == 0`` every draw is 0, so the re-centering is the smallest
    zero-sum adjustment into the intervals and ``stream`` is not read (it
    may be ``None``); otherwise a point interval's
    draw is its value, and only the remaining cells draw, in position
    order, each from the generator ``stream(i)``.  Returns the vector and
    a small dict of sampling statistics, with the re-centering's
    :func:`~calimp.adjust.adjustment_stats` merged in.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    attempts = 0
    fallbacks = 0
    if sigma == 0.0:
        draws = np.zeros(lower.size)
    else:
        draws = lower.copy()
        for i in np.flatnonzero(lower != upper).tolist():
            d = draw_ar_residual(sigma, Interval(float(lower[i]), float(upper[i])), stream(i))
            draws[i] = d.value
            attempts += d.attempts
            fallbacks += int(d.fallback_used)

    problem = AdjustmentProblem(
        predictions=draws,
        lower=lower,
        upper=upper,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )
    adjustment = zero_sum_interval_adjust(
        problem, target_sum=0.0, feasibility_scale=feasibility_scale
    )
    stats = {"attempts": attempts, "fallbacks": fallbacks, **adjustment_stats(problem, adjustment)}
    return draws + adjustment, stats
