"""Random residuals for stochastic imputation.

Residuals are mean-zero normal draws with the regression's residual
standard deviation, truncated to each cell's admissible interval.  A
drawn vector is then re-centered by the smallest adjustment keeping every
cell inside its interval while its weighted sum becomes a target, zero
unless the intervals cannot reach it.

:func:`benchmarked_residuals` draws all of a step's cells at once by
inverting the truncated normal CDF at one uniform per cell
(:func:`truncated_normal`).  A cell's uniform is defined by
:func:`cell_uniform` from the seed, the column and the record, so it does
not depend on which other cells draw; :func:`cell_uniforms` gives the
uniforms of many records of a column by running numpy's ``SeedSequence``
hash for all of them at once as array arithmetic.  The chain draws
with the same function, at uniforms made from raw words of its own
generator (:func:`generator_uniforms`).  :func:`draw_ar_residual` is the
scalar form of the formula, for one cell at one raw word.  Both forms load
``scipy.special`` on their first call, through :func:`_special`, so that
importing calimp loads no scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .adjust import AdjustmentProblem, adjustment_stats, zero_sum_interval_adjust
from .fm import Interval


@functools.cache
def _special():
    """``scipy.special``'s ``log_ndtr`` and ``ndtri_exp``, imported once, on
    the first draw."""
    from scipy.special import log_ndtr, ndtri_exp

    return log_ndtr, ndtri_exp


def _uniform(word):
    """The top 52 bits of a 64-bit ``word`` as the midpoint of their
    interval of (0, 1); with 53 bits, ``k + 0.5`` would round to 2**53 at
    the top and give 1.0."""
    return ((word >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def generator_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniforms strictly inside (0, 1), one from each of the next
    ``size`` raw 64-bit words of ``rng``'s bit generator, by
    :func:`_uniform`'s mapping."""
    return _uniform(rng.bit_generator.random_raw(size))


def cell_uniform(seed: int, variable_index: int, record_index: int) -> float:
    """The uniform of one cell of one variable, strictly inside (0, 1):
    from the first 64-bit word of ``SeedSequence([seed, variable_index,
    record_index])``'s state."""
    word = np.random.SeedSequence([seed, variable_index, record_index]).generate_state(1, np.uint64)
    return float(_uniform(word)[0])


#: The former name of :func:`cell_uniform`; ``perfbench/spans.py`` traces it.
cell_rng = cell_uniform


# numpy's SeedSequence hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1


def _int_words(n: int) -> list[int]:
    """``n`` as SeedSequence takes an integer: its 32-bit words, low first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _first_state_words(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` and ``generate_state(1, uint64)`` on
    many entropy lists at once: word ``i`` of every list is
    ``entropy[i]``, a ``uint32`` array of one value or of one value per
    list.  Element ``k`` of the result is list ``k``'s state word."""
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
    state = np.empty((pool[0].size, 2), "<u4")
    hash_const = _INIT_B
    for i in range(2):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8")[:, 0]


def cell_uniforms(seed: int, variable_index: int, records) -> np.ndarray:
    """``cell_uniform(seed, variable_index, r)`` for every record ``r`` of
    ``records``, bit for bit.  The seed hashing runs once over all records
    as ``uint32`` array arithmetic (about 0.06 µs a record, against about
    15 µs for one ``SeedSequence``)."""
    records = np.asarray(records).ravel()
    if records.size and records.min() < 0:
        raise ValueError("expected non-negative integer")
    records = records.astype(np.uint64)
    prefix = [np.array([w], np.uint32) for w in _int_words(seed) + _int_words(variable_index)]
    # SeedSequence gives a record below 2**32 one entropy word, else two.
    low, high = records.astype(np.uint32), (records >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    words = np.empty(records.size, np.uint64)
    for rows, entropy in ((~wide, (low,)), (wide, (low, high))):
        if rows.any():
            words[rows] = _first_state_words(prefix + [w[rows] for w in entropy])
    return _uniform(words)


def truncated_normal(sigma: float, lower: np.ndarray, upper: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """N(0, sigma^2) truncated to ``[lower, upper]`` at ``uniforms`` by the
    exact inverse CDF, elementwise, for ``sigma > 0`` and intervals that
    are not points: the array form of :func:`draw_ar_residual`'s formula.
    A result that is not finite or misses its interval (a numerically
    degenerate far-tail interval) lands on the interval's side closer to
    0, or on 0 when the interval holds it."""
    log_ndtr, ndtri_exp = _special()
    # A bound that overflows in units of sigma, or -inf - -inf below, gives
    # a NaN that lands, as on floats in the scalar form.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = lower / sigma, upper / sigma
        flip = b > -a  # a + b > 0, without inf - inf on (-inf, inf)
        a, b, u = np.where(flip, -b, a), np.where(flip, -a, b), np.where(flip, 1.0 - uniforms, uniforms)
        log_b = log_ndtr(b)
        d = log_ndtr(a) - log_b
    y_minus_1 = (1.0 - u) * np.expm1(d)
    log_y = np.where(y_minus_1 > -0.5, np.log1p(y_minus_1), np.log(u * -np.expm1(d) + np.exp(d)))
    x = np.where(flip, -sigma, sigma) * ndtri_exp(log_b + log_y)
    bad = ~np.isfinite(x) | (x < lower) | (x > upper)
    if bad.any():
        lo, hi = lower[bad], upper[bad]
        side = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.where(np.abs(lo) < np.abs(hi), lo, hi))
        x[bad] = np.minimum(np.maximum(side, lo), hi)
    return x


def draw_ar_residual(sigma: float, interval: Interval, rng: np.random.Generator) -> float:
    """One N(0, sigma^2) residual truncated to ``interval``, for ``sigma > 0``
    and an interval that is not a point: the exact inverse CDF at one
    uniform from one raw word of ``rng``, by :func:`_uniform`'s mapping.
    Only the step chain of the tests and ``perfbench/spans.py`` read it;
    the chain draws with :func:`truncated_normal`.

    In units of sigma, ``[a, b]`` with ``a + b > 0`` is reflected to
    ``[-b, -a]``, so ``y = Phi(x) / Phi(b)`` does not cancel; ``log y`` is
    ``log1p(y - 1)`` near 1 and the log of a sum of two positive terms
    below, so both ends keep a few ulps.  A result that is not finite or
    misses the interval lands as in :func:`truncated_normal`.
    """
    lo, hi, sigma = float(interval.lower), float(interval.upper), float(sigma)
    if not sigma > 0.0 or interval.is_point():
        raise ValueError(f"needs sigma > 0 and a non-point interval, got {sigma} and [{lo}, {hi}]")
    log_ndtr, ndtri_exp = _special()
    u = ((rng.bit_generator.random_raw() >> 12) + 0.5) * 2.0**-52
    a, b, scale = lo / sigma, hi / sigma, sigma
    if a + b > 0.0:
        a, b, scale, u = -b, -a, -sigma, 1.0 - u
    log_b = float(log_ndtr(b))
    d = float(log_ndtr(a)) - log_b  # log(Phi(a) / Phi(b)); on floats, -inf - -inf is NaN without a warning
    y_minus_1 = (1.0 - u) * math.expm1(d)
    log_y = math.log1p(y_minus_1) if y_minus_1 > -0.5 else math.log(u * -math.expm1(d) + math.exp(d))
    x = scale * float(ndtri_exp(log_b + log_y))
    if not (math.isfinite(x) and lo <= x <= hi):
        x = 0.0 if lo <= 0.0 <= hi else (lo if abs(lo) < abs(hi) else hi)
    return x


def benchmarked_residuals(
    sigma: float,
    lower,
    upper,
    weights,
    uniforms,
    target_sum: float = 0.0,
) -> tuple[np.ndarray, dict]:
    """Interval-respecting residual vector with weighted sum ``target_sum``
    (0 unless given).

    Cell ``i`` may take residuals in ``[lower[i], upper[i]]``.  With
    ``sigma == 0`` every draw is 0, so the re-centering is the smallest
    adjustment into the intervals with that weighted sum, and
    ``uniforms`` is not read (it may be ``None``); otherwise a point
    interval's draw is its value, and every other cell ``i`` draws at
    ``uniforms[i]`` by :func:`truncated_normal`.  Returns the vector and a small dict of
    sampling statistics (``attempts``, the drawing cells, and
    ``fallbacks``, always 0), with the re-centering's
    :func:`~calimp.adjust.adjustment_stats` merged in.  A ``target_sum``
    the intervals cannot reach raises
    :class:`~calimp.errors.InfeasibleAdjustmentError`; ``pipeline.impute``
    passes the weighted sum nearest 0 that they reach.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if sigma == 0.0:
        draws, drawing = np.zeros(lower.size), 0
    else:
        draws = lower.copy()
        cells = np.flatnonzero(lower != upper)
        draws[cells] = truncated_normal(sigma, lower[cells], upper[cells], np.asarray(uniforms, dtype=float)[cells])
        drawing = int(cells.size)

    problem = AdjustmentProblem(
        predictions=draws,
        lower=lower,
        upper=upper,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )
    adjustment = zero_sum_interval_adjust(problem, target_sum=target_sum)
    stats = {"attempts": drawing, "fallbacks": 0, **adjustment_stats(problem, adjustment)}
    return draws + adjustment, stats
