"""Independent oracles shared by the module tests and the acceptance suite.

These deliberately avoid the library's own elimination/solver code paths:
feasibility is decided by complete lattice enumeration, regression
calibration by solving the augmented normal equations directly, and
random imputation instances are built truth-first so feasibility is a
construction guarantee rather than an assumption.
"""

from __future__ import annotations

import math

import numpy as np

from calimp import fm
from calimp.edits import Edit, EditKind, EditSystem, reduce_system
from calimp.errors import InfeasibleSystemError
from calimp.pipeline import DataMatrix


class GridOracle:
    """Complete lattice-enumeration feasibility check for one system.

    All variables live in a box covered by the lattice.  For a candidate
    target value the oracle reports:

    * ``relaxed(v)``  - some lattice completion satisfies every inequality
      up to the lattice-resolution margin.  A true feasible point implies
      a relaxed lattice witness, so ``v in interval  =>  relaxed(v)``.
    * ``strict(v)``   - some lattice completion satisfies every inequality
      with margin to spare, which certifies true feasibility, so
      ``strict(v)  =>  v in interval``.
    """

    def __init__(self, edits: list[Edit], names: list[str], target: str, step: float = 1.0, box: float = 7.0):
        self.target = target
        others = [n for n in names if n != target]
        axis = np.arange(-box, box + 1e-9, step)
        if others:
            mesh = np.meshgrid(*[axis] * len(others), indexing="ij")
            lattice = np.column_stack([m.ravel() for m in mesh])
        else:
            lattice = np.zeros((1, 0))
        A = np.zeros((len(edits), len(others)))
        at = np.zeros(len(edits))
        b = np.zeros(len(edits))
        margin = np.zeros(len(edits))
        for k, edit in enumerate(edits):
            assert edit.kind is EditKind.INEQUALITY
            for v, c in edit.coeffs.items():
                if v == target:
                    at[k] = c
                else:
                    A[k, others.index(v)] = c
            b[k] = edit.constant
            margin[k] = 0.5 * step * sum(abs(c) for v, c in edit.coeffs.items() if v != target)
        self.base = lattice @ A.T + b  # (points, edits)
        self.at = at
        self.margin = margin

    def relaxed(self, value: float, slack: float = 0.0) -> bool:
        """``slack`` widens every margin, for intervals computed in an
        order whose rounding may put an endpoint an ulp outside."""
        resid = self.base + value * self.at
        return bool(np.any(np.all(resid >= -self.margin - slack, axis=1)))

    def strict(self, value: float) -> bool:
        resid = self.base + value * self.at
        return bool(np.any(np.all(resid >= self.margin, axis=1)))


def random_inequality_system(rng: np.random.Generator, max_vars: int = 5, max_extra: int = 8):
    """Small random inequality system with integer data, boxed to [-6, 6]."""
    n_vars = int(rng.integers(2, max_vars + 1))
    names = [f"v{j}" for j in range(n_vars)]
    edits: list[Edit] = []
    for name in names:
        edits.append(Edit({name: 1.0}, 6.0, EditKind.INEQUALITY))
        edits.append(Edit({name: -1.0}, 6.0, EditKind.INEQUALITY))
    n_extra = int(rng.integers(1, max_extra + 1))
    for _ in range(n_extra):
        k = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = rng.choice(n_vars, size=k, replace=False)
        coeffs = {}
        for j in chosen:
            c = int(rng.integers(-3, 4))
            if c != 0:
                coeffs[names[j]] = float(c)
        if not coeffs:
            continue
        edits.append(Edit(coeffs, float(rng.integers(-6, 7)), EditKind.INEQUALITY))
    return names, edits


def augmented_design_fit(y_obs, X_obs, X_mis, total_all):
    """Calibrated regression solved the long way round, as one least-squares
    problem on the augmented design (observed rows plus the summed
    missing-rows equation), for the unweighted case."""
    y_obs = np.asarray(y_obs, dtype=float)
    X_obs = np.asarray(X_obs, dtype=float)
    X_mis = np.asarray(X_mis, dtype=float)
    n, p = X_obs.shape
    m = X_mis.shape[0]
    target_mis = total_all - y_obs.sum()
    Z = np.zeros((n + 1, p + 2))
    Z[:n, 0] = 1.0
    Z[:n, 2:] = X_obs
    Z[n, 1] = m
    Z[n, 2:] = X_mis.sum(axis=0)
    y = np.concatenate([y_obs, [target_mis]])
    coef, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    return coef  # [beta0, beta1, slopes...]


def random_imputation_instance(rng: np.random.Generator, max_records: int = 500, max_cols: int = 6):
    """Random feasible instance: data first, edits derived from the data.

    One balance edit ties two item columns to an always-observed sum
    column; random-coefficient inequalities are drawn within that triple
    (the shape of typical accounting edits), per-column bound edits get
    slack around the realized range, and everything is nonnegative.
    Missingness hits the two item columns and any column outside the
    triple.  Keeping the sum column observed makes the sequential
    benchmarked scheme provably feasible: cells pinned through the balance
    are pinned to their true values, so every column's calibration target
    stays reachable.  The true table witnesses edits and totals.
    """
    r = int(rng.integers(30, max_records + 1))
    n = int(rng.integers(3, max_cols + 1))
    names = [f"c{j}" for j in range(n)]
    base = rng.lognormal(mean=2.0, sigma=0.5, size=(r, n)) * rng.uniform(1.0, 5.0, size=n)
    ia, ib, ic = (int(j) for j in rng.choice(n, size=3, replace=False))
    base[:, ia] = base[:, ia] + float(rng.uniform(0.0, 2.0)) * base[:, ib]
    base[:, ic] = base[:, ia] + base[:, ib]

    edits: list[Edit] = []
    edits.append(Edit({names[ia]: 1.0, names[ib]: 1.0, names[ic]: -1.0}, 0.0, EditKind.EQUALITY))
    for j in range(n):
        edits.append(Edit({names[j]: 1.0}, 0.0, EditKind.INEQUALITY))
    # Random order/ratio edits inside the balance triple, slack-buffered.
    for _ in range(int(rng.integers(1, 4))):
        j, k = (int(v) for v in rng.choice([ia, ib, ic], size=2, replace=False))
        coeffs = {names[j]: float(rng.choice([1.0, 2.0, 3.0])), names[k]: float(rng.choice([-1.0, -0.5, -2.0]))}
        vals = base[:, j] * coeffs[names[j]] + base[:, k] * coeffs[names[k]]
        slack = 0.25 * (vals.max() - vals.min()) + 1.0
        edits.append(Edit(coeffs, float(-vals.min() + slack), EditKind.INEQUALITY))
    # Constant range edits on a few columns (state-independent intervals).
    for j in range(n):
        if rng.random() < 0.4:
            top = float(base[:, j].max())
            edits.append(Edit({names[j]: -1.0}, top * float(rng.uniform(1.1, 2.0)), EditKind.INEQUALITY))

    mask = np.zeros((r, n), dtype=bool)
    maskable = [ia, ib] + [j for j in range(n) if j not in (ia, ib, ic)]
    for j in maskable:
        rate = float(rng.uniform(0.05, 0.3))
        rows = rng.choice(r, size=max(1, int(rate * r)), replace=False)
        mask[rows, j] = True
    # Keep at least a handful of complete response rows per column.
    for j in range(n):
        obs = np.flatnonzero(~mask[:, j])
        if obs.size < 8:
            mask[: max(0, 8 - obs.size), j] = False

    weights = rng.uniform(0.5, 2.0, size=r) if rng.integers(2) else np.ones(r)
    totals = {names[j]: float(np.sum(weights * base[:, j])) for j in range(n)}
    values = base.copy()
    values[mask] = np.nan
    system = EditSystem(tuple(edits), tuple(names))
    data = DataMatrix(values=values, mask=mask, columns=tuple(names), weights=weights)
    truth = base
    return data, system, totals, truth


class PerRecordIntervals:
    """The per-record interval derivation that ``impute`` compiles per pattern.

    Each record missing the target is reduced with ``reduce_system``, gets
    its interval from ``fm.admissible_interval`` and later its companions
    from ``fm.resolve_companions``, one record at a time.  It has the
    interface of ``pipeline._PatternCompiler``, so a test can substitute it
    and compare whole imputations.
    """

    def __init__(self, edits: EditSystem, columns):
        self.edits = edits
        self.col_idx = {name: j for j, name in enumerate(columns)}

    def intervals(self, current, rows, target):
        intervals, records = [], []
        for i in rows:
            row_state = {
                v: float(current[i, self.col_idx[v]])
                for v in self.edits.variables
                if not math.isnan(current[i, self.col_idx[v]])
            }
            try:
                reduced = reduce_system(self.edits, row_state, origin=int(i))
                interval, rec = fm.admissible_interval(reduced, target)
            except InfeasibleSystemError as err:
                raise InfeasibleSystemError(
                    f"record {i}, variable {target!r}: {err}", witness=err.witness
                ) from err
            intervals.append(interval)
            records.append(rec)
        return _PerRecordResult(rows, intervals, records)


class _PerRecordResult:
    def __init__(self, rows, intervals, records):
        self.rows = rows
        self.records = records
        self.lower = np.array([iv.lower for iv in intervals])
        self.upper = np.array([iv.upper for iv in intervals])

    def stats(self) -> dict:
        bounded = int(np.count_nonzero(np.isfinite(self.lower) & np.isfinite(self.upper)))
        return {
            "count": int(self.lower.size),
            "degenerate": int(np.count_nonzero(self.lower == self.upper)),
            "bounded": bounded,
            "unbounded": int(self.lower.size) - bounded,
        }

    def write_companions(self, current, final, col_idx) -> int:
        written = 0
        for value, i, rec in zip(final, self.rows, self.records):
            for var, val in fm.resolve_companions(rec, {rec.target: float(value)}).items():
                j = col_idx[var]
                if math.isnan(current[i, j]):
                    current[i, j] = val
                    written += 1
        return written
