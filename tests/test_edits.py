import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calimp.edits import (
    DEFAULT_TOL,
    Edit,
    EditKind,
    EditSystem,
    check_record,
    format_edit_rules,
    parse_edit_rules,
    reduce_system,
    violation_matrix,
)
from calimp.errors import EditSyntaxError, InfeasibleRecordError

EXAMPLE_RULES = """\
# three-variable system
x1 + x2 = x3
x1 >= x2
x3 >= 3*x2
x1 >= 0
x2 >= 0
x3 >= 0
"""


def test_parse_balance_edit():
    system = parse_edit_rules("net + tax = gross")
    (edit,) = system.edits
    assert edit.kind is EditKind.EQUALITY
    assert edit.coeffs == {"net": 1.0, "tax": 1.0, "gross": -1.0}
    assert edit.constant == 0.0


def test_parse_ratio_edit():
    (edit,) = parse_edit_rules("gross >= 3*tax").edits
    assert edit.kind is EditKind.INEQUALITY
    assert edit.coeffs == {"gross": 1.0, "tax": -3.0}
    assert edit.constant == 0.0


def test_parse_nonnegativity():
    (edit,) = parse_edit_rules("x >= 0").edits
    assert edit.coeffs == {"x": 1.0}
    assert edit.constant == 0.0
    assert edit.kind is EditKind.INEQUALITY


def test_parse_le_flips_direction():
    (edit,) = parse_edit_rules("2*u <= t").edits
    assert edit.coeffs == {"t": 1.0, "u": -2.0}


def test_parse_le_lists_its_right_side_first():
    # A system orders its variables by first appearance in the parsed
    # coefficients, and a "<=" rule is read as rhs - lhs >= 0.
    system = parse_edit_rules("a + 2*b <= c + 3\nd - a >= b")
    assert list(system.edits[0].coeffs.items()) == [("c", 1.0), ("a", -1.0), ("b", -2.0)]
    assert system.edits[0].constant == 3.0
    assert system.variables == ("c", "a", "b", "d")


def test_parse_constant_and_implicit_product():
    (edit,) = parse_edit_rules("3u + 4 >= 2").edits
    assert edit.coeffs == {"u": 3.0}
    assert edit.constant == 2.0


def test_strict_inequality_rejected():
    with pytest.raises(EditSyntaxError, match="strict"):
        parse_edit_rules("x > 0")
    with pytest.raises(EditSyntaxError, match="strict"):
        parse_edit_rules("x < 1")


def test_syntax_error_reports_position():
    with pytest.raises(EditSyntaxError) as info:
        parse_edit_rules("# fine\nx1 + = 3")
    assert info.value.line == 2
    assert info.value.column is not None


def test_unknown_token_rejected():
    with pytest.raises(EditSyntaxError, match="unknown token"):
        parse_edit_rules("x ? 3")


@pytest.mark.parametrize(
    "rule, column",
    [("1e400*x >= 0", 1), ("x >= 1e400", 6), ("x + 2 >= 3*y - 1" + "0" * 400, 16)],
)
def test_literal_that_overflows_is_rejected_where_it_stands(rule, column):
    # A number beyond the float range would parse to an infinite
    # coefficient or constant, which no record can meet or print.
    with pytest.raises(EditSyntaxError, match="overflows a float") as info:
        parse_edit_rules("x >= 0\n" + rule)
    assert (info.value.line, info.value.column) == (2, column)


@pytest.mark.parametrize(
    "rule, what",
    [
        ("1e308*x + 1e308*x >= 0", "coefficient of 'x'"),
        ("1e308*x >= -1e308*x", "coefficient of 'x'"),
        ("x >= 1e308 + 1e308", "constant"),
        ("x + 1e308 = -1e308", "constant"),
    ],
)
def test_merged_term_that_overflows_is_rejected(rule, what):
    # Finite literals whose merged coefficient or constant is not finite:
    # the error names it and points at the relation, where the sides merge.
    with pytest.raises(EditSyntaxError, match=f"the {what} overflows a float") as info:
        parse_edit_rules(rule)
    assert info.value.line == 1
    assert info.value.column == min(rule.index(op) for op in ("=", ">=") if op in rule) + 1


def test_largest_finite_numbers_still_parse():
    system = parse_edit_rules("1e308*x >= 1e308\nx - 1e308*y + 1e308*y >= -1.7e308")
    assert system.edits[0].coeffs == {"x": 1e308} and system.edits[0].constant == -1e308
    assert system.edits[1].coeffs == {"x": 1.0} and system.edits[1].constant == 1.7e308


def test_variable_order_is_first_appearance():
    system = parse_edit_rules(EXAMPLE_RULES)
    assert system.variables == ("x1", "x2", "x3")
    assert len(system) == 6


def test_check_record_examples():
    system = parse_edit_rules(EXAMPLE_RULES)
    assert check_record(system, {"x1": 10, "x2": 5, "x3": 15}) == []
    # 4 < 5 breaks the order edit and 9 < 3*5 breaks the ratio edit; every
    # violated index is reported, in edit order.
    assert check_record(system, {"x1": 4, "x2": 5, "x3": 9}) == [1, 2]
    assert check_record(system, {"x1": 0, "x2": 0, "x3": 0}) == []


def test_check_record_missing_variable():
    system = parse_edit_rules(EXAMPLE_RULES)
    with pytest.raises(ValueError, match="missing value"):
        check_record(system, {"x1": 1.0, "x2": 0.5})


def test_check_record_relative_tolerance():
    system = parse_edit_rules("a + b = c")
    row = {"a": 1e7, "b": 2e7, "c": 3e7 + 0.005}
    assert check_record(system, row) == []  # within 1e-9 of the row scale
    past = {"a": 1e7, "b": 2e7, "c": 3e7 + 0.05}
    assert check_record(system, past) == [0]  # past it: the margin is 0.03


def test_reduce_system_example_1():
    system = parse_edit_rules(EXAMPLE_RULES)
    reduced = reduce_system(system, {"x1": 10.0})
    got = [(edit.coeffs, edit.constant, edit.kind) for edit in reduced.edits]
    assert got == [
        ({"x2": 1.0, "x3": -1.0}, 10.0, EditKind.EQUALITY),
        ({"x2": -1.0}, 10.0, EditKind.INEQUALITY),
        ({"x3": 1.0, "x2": -3.0}, 0.0, EditKind.INEQUALITY),
        ({"x2": 1.0}, 0.0, EditKind.INEQUALITY),
        ({"x3": 1.0}, 0.0, EditKind.INEQUALITY),
    ]


def test_reduce_system_fully_observed_consistent_row_is_empty():
    system = parse_edit_rules(EXAMPLE_RULES)
    reduced = reduce_system(system, {"x1": 10.0, "x2": 5.0, "x3": 15.0})
    assert reduced.edits == ()


def test_reduce_system_contradiction_raises():
    system = parse_edit_rules(EXAMPLE_RULES)
    with pytest.raises(InfeasibleRecordError) as info:
        reduce_system(system, {"x1": 1.0, "x2": 5.0, "x3": 6.0}, origin=7)
    assert info.value.record == 7
    assert info.value.edit_index == 1  # x1 >= x2 fails


def test_reduce_system_pair_example():
    system = parse_edit_rules(
        "x1 + x2 + x3 + x4 = x5\n" + "\n".join(f"x{j} >= 0" for j in range(1, 6))
    )
    reduced = reduce_system(system, {"x1": 10.0, "x2": 15.0})
    balance = reduced.edits[0]
    assert balance.coeffs == {"x3": 1.0, "x4": 1.0, "x5": -1.0}
    assert balance.constant == 25.0
    assert {tuple(e.coeffs) for e in reduced.edits[1:]} == {("x3",), ("x4",), ("x5",)}


@st.composite
def small_systems(draw):
    n_vars = draw(st.integers(2, 4))
    names = [f"v{j}" for j in range(n_vars)]
    n_edits = draw(st.integers(1, 5))
    edits = []
    for _ in range(n_edits):
        coeffs = {}
        for name in names:
            c = draw(st.integers(-3, 3))
            if c:
                coeffs[name] = float(c)
        if not coeffs:
            coeffs[names[0]] = 1.0
        const = float(draw(st.integers(-5, 5)))
        kind = draw(st.sampled_from([EditKind.EQUALITY, EditKind.INEQUALITY]))
        edits.append(Edit(coeffs, const, kind))
    from calimp.edits import EditSystem

    return EditSystem(tuple(edits), tuple(names))


@settings(max_examples=100, deadline=None)
@given(small_systems())
def test_print_parse_round_trip(system):
    reparsed = parse_edit_rules(format_edit_rules(system))
    assert len(reparsed.edits) == len(system.edits)
    for ours, theirs in zip(system.edits, reparsed.edits):
        assert ours.kind is theirs.kind
        assert theirs.coeffs == ours.coeffs
        assert theirs.constant == ours.constant


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-4, 4).filter(bool),
    st.integers(-4, 4),
    st.integers(-4, 4).filter(bool),
    st.sampled_from([">=", "<="]),
    st.integers(-6, 6),
    st.integers(-6, 6),
)
def test_canonical_inequality_matches_source_relation(a, b, c, rel, x, y):
    source = f"{a}*x {'+' if b >= 0 else '-'} {abs(b)} {rel} {c}*y"
    (edit,) = parse_edit_rules(source).edits
    lhs, rhs = a * x + b, c * y
    holds = lhs >= rhs if rel == ">=" else lhs <= rhs
    assert (edit.residual({"x": float(x), "y": float(y)}) >= 0) == holds


@st.composite
def consistent_instances(draw):
    """A random system together with a row that satisfies it exactly."""
    n_vars = draw(st.integers(2, 4))
    names = [f"v{j}" for j in range(n_vars)]
    row = {name: float(draw(st.integers(-5, 5), label=name)) for name in names}
    edits = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {}
        for name in names:
            coef = draw(st.integers(-3, 3))
            if coef:
                coeffs[name] = float(coef)
        if not coeffs:
            coeffs[names[0]] = 1.0
        resid = sum(c * row[v] for v, c in coeffs.items())
        kind = draw(st.sampled_from([EditKind.EQUALITY, EditKind.INEQUALITY]))
        slack = 0.0 if kind is EditKind.EQUALITY else float(draw(st.integers(0, 4)))
        edits.append(Edit(coeffs, -resid + slack, kind))
    from calimp.edits import EditSystem

    return EditSystem(tuple(edits), tuple(names)), row


@settings(max_examples=100, deadline=None)
@given(consistent_instances(), st.data())
def test_reduction_agrees_with_full_check_on_consistent_rows(instance, data):
    system, row = instance
    assert check_record(system, row) == []
    observed = {
        name: value
        for name, value in row.items()
        if data.draw(st.booleans(), label=f"obs_{name}")
    }
    reduced = reduce_system(system, observed)  # consistent rows never raise
    scale = max(1.0, max(abs(v) for v in row.values()))
    for edit in reduced.edits:
        assert edit.is_satisfied(row, 1e-9, scale)


def test_violation_matrix_matches_check_record():
    system = parse_edit_rules(EXAMPLE_RULES)
    rows = np.array([[10.0, 5.0, 15.0], [4.0, 5.0, 9.0], [0.0, 0.0, 0.0]])
    flags = violation_matrix(system, rows, ["x1", "x2", "x3"])
    for i in range(rows.shape[0]):
        row = dict(zip(["x1", "x2", "x3"], rows[i]))
        assert sorted(np.flatnonzero(flags[i])) == check_record(system, row)

    # ``z`` is listed but no edit references it, so it does not widen the
    # margin: a >= b is broken by 1e-7 at scale 1 + 1e-7, not 1e6.
    listed = EditSystem((Edit({"a": 1.0, "b": -1.0}, 0.0, EditKind.INEQUALITY),), ("a", "b", "z"))
    rows = np.array([[1.0, 1.0 + 1e-7, 1e6], [1.0, 1.0, 1e6]])
    flags = violation_matrix(listed, rows, listed.variables)
    assert flags[:, 0].tolist() == [True, False]
    for i in range(rows.shape[0]):
        row = dict(zip(listed.variables, rows[i]))
        assert check_record(listed, row) == np.flatnonzero(flags[i]).tolist()


@st.composite
def partially_observed(draw):
    """A system whose edits may leave a listed variable unreferenced, and a
    matrix over a permutation of its variables with NaN for unknown values.

    Values are small integers or 1e6 and edit constants carry an offset of
    0, 1e-11 or 1e-7, so every residual sits far from its margin and the
    brute force decides the same way whatever the summation order.
    """
    names = [f"v{j}" for j in range(draw(st.integers(2, 4)))]
    edits = []
    for _ in range(draw(st.integers(1, 4))):
        used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        coeffs = {v: float(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))) for v in used}
        const = draw(st.integers(-5, 5)) + draw(st.sampled_from([0.0, 1e-11, -1e-11, 1e-7, -1e-7]))
        kind = draw(st.sampled_from([EditKind.EQUALITY, EditKind.INEQUALITY]))
        edits.append(Edit(coeffs, const, kind))
    system = EditSystem(tuple(edits), tuple(names))
    columns = draw(st.permutations(names))
    cell = st.one_of(st.integers(-5, 5).map(float), st.just(1e6), st.just(-1e6), st.just(math.nan))
    rows = draw(st.lists(st.lists(cell, min_size=len(names), max_size=len(names)), min_size=1, max_size=6))
    return system, columns, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(partially_observed())
def test_violation_matrix_matches_brute_force(instance):
    system, columns, X = instance
    flags = violation_matrix(system, X, columns)
    referenced = {v for edit in system.edits for v in edit.coeffs}
    for i in range(X.shape[0]):
        row = {name: X[i, j] for j, name in enumerate(columns) if not math.isnan(X[i, j])}
        scale = max([1.0] + [abs(x) for v, x in row.items() if v in referenced])
        for k, edit in enumerate(system.edits):
            if any(v not in row for v in edit.coeffs):
                expected = False
            else:
                r = edit.residual(row)
                margin = DEFAULT_TOL * scale
                expected = abs(r) > margin if edit.kind is EditKind.EQUALITY else r < -margin
            assert flags[i, k] == expected, (i, k)
