"""The per-record kernels give the bits of their row-axis forms.

``edits.record_scale``, ``edits.violated``, ``edits.reads_flagged``,
``edits.violation_matrix`` and ``fm.read_bounds`` reduce down the
records axis of column-major arrays (``violation_matrix`` one block of
records at a time); ``_oracles`` keeps the expressions that reduced
along each record's row.  Max, min and any are exact, so
the outputs must match byte for byte, on C- and F-ordered inputs alike.

Two cases of ``read_bounds`` are left to value equality.  The sign of a
NaN bound (a NaN constant over a coefficient) follows numpy's loop.  And
an extreme bound that ties +0.0 with -0.0 may come back with either sign:
a reduction returns one by its order, and numpy's row-axis reduction
takes rows of eight or more in SIMD lanes, an order that depends on the
machine.  The library meets neither: its constants are finite and come
out of matrix products, which give +0.0 for an exact zero, so a zero
lower bound is always -0.0 and a zero upper bound +0.0.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from calimp import edits as E
from calimp import fm
from calimp.edits import DEFAULT_TOL, Edit, EditKind, EditSystem

from _oracles import boolean_reads_flagged, row_record_scale, row_violation_matrix, where_read_bounds, where_violated

SPECIAL = [0.0, -0.0, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.5, 1e300, -1e300]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_infinity=False, width=64))
finite = st.one_of(st.sampled_from([v for v in SPECIAL if v == v]), st.floats(allow_nan=False, allow_infinity=False))
nonzero = finite.filter(lambda c: c != 0.0)


def laid_out(draw, shape, elements):
    """An array of ``shape`` in C or F order."""
    a = draw(arrays(np.float64, shape, elements=elements))
    return np.asfortranarray(a) if draw(st.booleans()) else np.ascontiguousarray(a)


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), k=st.integers(0, 10), row=st.booleans())
def test_record_scale_matches_row_reduction(data, n, k, row):
    values = laid_out(data.draw, (k,) if row else (n, k), floats)
    same_bits(E.record_scale(values), row_record_scale(values))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), k=st.integers(0, 10), form=st.sampled_from(["column", "matrix", "scalar"]))
def test_violated_matches_where_rule(data, n, k, form):
    resid = laid_out(data.draw, (n, k), floats)
    is_eq = data.draw(arrays(np.bool_, (k,)))
    margin = {"column": (n, 1), "matrix": (n, k), "scalar": ()}[form]
    margin = laid_out(data.draw, margin, finite) if margin else data.draw(finite)
    with np.errstate(all="ignore"):
        same_bits(np.asarray(E.violated(resid, is_eq, margin)), where_violated(resid, is_eq, margin))


@given(r=floats, eq=st.booleans(), m=finite)
def test_violated_on_scalars(r, eq, m):
    # The derivation's checks call it on one constant at a time.
    assert bool(E.violated(r, eq, m)) == bool(where_violated(r, eq, m))


def random_system(draw, p):
    rows = draw(st.lists(arrays(np.float64, (p,), elements=st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -3.0, 1e-3])),
                         min_size=1, max_size=6))
    names = [f"v{j}" for j in range(p)]
    out = []
    for coeffs in rows:
        if not coeffs.any():
            coeffs[draw(st.integers(0, p - 1))] = 1.0
        terms = {names[j]: float(c) for j, c in enumerate(coeffs) if c}
        kind = draw(st.sampled_from([EditKind.EQUALITY, EditKind.INEQUALITY]))
        out.append(Edit(terms, draw(st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e-9])), kind))
    return EditSystem(tuple(out), tuple(names))


@st.composite
def checked_records(draw):
    """An edit system over p <= 5 columns and up to 12 records to check
    against it, NaN marking unknowns."""
    p = draw(st.integers(1, 5))
    elements = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 5e-324, 1.0, -1.0, 1e9]), st.floats(-1e6, 1e6))
    return random_system(draw, p), laid_out(draw, (draw(st.integers(0, 12)), p), elements)


#: Two records ``[-1, 1e-9, 1e-9, 1e-9, 1e-9]`` leave ``v0 + v1 + v3 - v4 +
#: 1 = 0`` (beside an all-ones edit) a residual of 1e-9, at its margin: a
#: one-row block rounds it to 1.0000000827e-09 and the two-row product to
#: 9.999999717e-10, so only the whole-matrix verdict is "holds".
AT_MARGIN = (
    EditSystem((Edit({f"v{j}": 1.0 for j in range(5)}, 0.0, EditKind.EQUALITY),
                Edit({"v0": 1.0, "v1": 1.0, "v3": 1.0, "v4": -1.0}, 1.0, EditKind.EQUALITY)),
               tuple(f"v{j}" for j in range(5))),
    np.array([[-1.0, 1e-9, 1e-9, 1e-9, 1e-9]] * 2),
)


@pytest.mark.parametrize("block", [E.CHECK_BLOCK, 1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(case=checked_records())
@example(case=AT_MARGIN)
def test_violation_matrix_and_unknown_mask_match(block, case):
    # Blocks of 1-3 records split up to 12 into several, the last short.
    # Each block gives the bits of the row-axis oracle on that block.  A
    # block's product may round a residual otherwise than the whole
    # matrix's (BLAS takes a one-row block by another path), so against
    # the whole-matrix oracle only the verdicts of residuals farther from
    # their margin than such a rounding must agree.
    system, values = case
    n, p = values.shape
    columns = [f"v{j}" for j in range(p)]
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(E, "CHECK_BLOCK", block)
        got = E.violation_matrix(system, values, columns)
        blocks = [row_violation_matrix(system, values[i : i + block], columns) for i in range(0, n, block)]
        whole = row_violation_matrix(system, values, columns)
    assert got.flags.f_contiguous
    same_bits(got, np.concatenate(blocks) if blocks else whole)
    A, b, is_eq = E.system_matrices(system, columns)
    X = np.where(np.isnan(values), 0.0, values)
    resid = X @ A.T + b
    margin = DEFAULT_TOL * row_record_scale(X[:, A.any(axis=0)])[:, None]
    rounding = 4 * p * np.finfo(float).eps * (np.abs(X) @ np.abs(A).T + np.abs(b))
    clear = (np.abs(resid - margin) > rounding) & (np.abs(resid + margin) > rounding)
    assert np.array_equal(got[clear], whole[clear])
    flags = np.isnan(values)
    same_bits(E.reads_flagged(flags, A), boolean_reads_flagged(flags, A))


def zero_tie_of_two_signs(rows, select, extreme):
    """Records whose zero ``extreme`` over ``rows[i][select]`` ties +0.0
    with -0.0."""
    return np.array([
        x == 0.0 and len(set(np.signbit(rows[i][select & (rows[i] == 0.0)]).tolist())) > 1
        for i, x in enumerate(extreme)
    ], dtype=bool)


def same_bits_but_nan_sign(got, want, exempt=None):
    """NaN in the same places, and the bits of every other entry outside
    ``exempt``: the sign numpy gives a NaN quotient follows its loop, SIMD
    or scalar, so it follows the layout.  ``read_bounds`` never meets one:
    its constants are finite."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    keep = ~nan if exempt is None else ~nan & ~exempt
    same_bits(got[keep], want[keep])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), k=st.integers(0, 12), margins=st.booleans())
def test_read_bounds_matches_where_reads(data, n, k, margins):
    const = laid_out(data.draw, (n, k), floats)
    coef = data.draw(arrays(np.float64, (k,), elements=nonzero))
    scale = mass = None
    if margins:
        scale = data.draw(arrays(np.float64, (n,), elements=st.floats(1.0, 1e12)))
        mass = data.draw(arrays(np.float64, (k,), elements=st.floats(1e-3, 1e3)))
    with np.errstate(all="ignore"):
        got = fm.read_bounds(const, coef, scale, mass)
        want = where_read_bounds(const, coef, scale, mass)
        rows = [want[2]]
        if margins:
            rows.append(want[2] - np.outer(DEFAULT_TOL * scale, mass / coef))
        exempt = np.zeros(n, dtype=bool)
        for r in rows:
            exempt |= zero_tie_of_two_signs(r, coef > 0, np.max(r, axis=1, where=coef > 0, initial=-np.inf))
            exempt |= zero_tie_of_two_signs(r, coef < 0, np.min(r, axis=1, where=coef < 0, initial=np.inf))
    same_bits_but_nan_sign(got[2], want[2])
    for g, w in zip(got[:2], want[:2]):
        assert np.array_equal(g, w, equal_nan=True)
        same_bits_but_nan_sign(g, w, exempt)


def test_a_zero_tie_of_two_signs_keeps_its_value():
    # Eight upper bounds whose least ties +0.0 with -0.0: either sign may
    # come back, on either layout.
    const = np.array([[0.0, 0.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0]])
    got, want = fm.read_bounds(const, -np.ones(8)), where_read_bounds(const, -np.ones(8))
    assert got[1] == want[1] == 0.0 and got[0] == want[0] == -np.inf
