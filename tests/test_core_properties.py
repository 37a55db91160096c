"""Property-based invariants for the symbolic kernel.

Grids are generated over dyadic rationals (multiples of 1/64) so that sums,
rescalings by powers of two, and shifts are exact in float arithmetic and the
argmax comparisons carry no rounding slack.
"""

from hypothesis import given
from hypothesis import strategies as st

from decisionflow.core import (
    FilteredMatrix,
    FilterPolicy,
    WeightMatrix,
    apply_mask,
    parse_constraint,
    row_utilities,
    select_action,
    solve_symbolic,
    sparsify_weights,
)
from test_core import constraint_lines

dyadic = st.integers(min_value=0, max_value=64).map(lambda k: k / 64)
signed_dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: k / 64)


@st.composite
def grids(draw, cell=dyadic, min_rows=1, max_rows=7, min_cols=0, max_cols=10):
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(min_cols, max_cols))
    return [[draw(cell) for _ in range(m)] for _ in range(n)]


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["threshold", "top_k", "none"]))
    if kind == "threshold":
        return FilterPolicy.threshold(draw(st.integers(0, 64)) / 64)
    if kind == "top_k":
        return FilterPolicy.top_k(draw(st.integers(1, 10)))
    return FilterPolicy.none()


@st.composite
def paired_grids(draw):
    grid = draw(grids())
    n, m = len(grid), len(grid[0]) if grid else 0
    other = [[draw(dyadic) for _ in range(m)] for _ in range(n)]
    return grid, other


@given(grids(), policies())
def test_sparsify_is_idempotent(grid, policy):
    once = sparsify_weights(WeightMatrix(grid), policy)
    twice = sparsify_weights(once, policy)
    assert twice.entries == once.entries


@given(grids(), policies())
def test_sparsify_shrinks_support(grid, policy):
    w = WeightMatrix(grid)
    out = sparsify_weights(w, policy)
    for wrow, orow in zip(w.entries, out.entries):
        for wv, ov in zip(wrow, orow):
            assert ov == wv or ov == 0.0


@given(paired_grids())
def test_mask_annihilates_zeros_and_preserves_ones(pair):
    wgrid, rgrid = pair
    mask = [[1.0 if v > 0.5 else 0.0 for v in row] for row in wgrid]
    out = apply_mask(WeightMatrix(mask), rgrid)
    for mrow, rrow, orow in zip(mask, rgrid, out.entries):
        for mv, rv, ov in zip(mrow, rrow, orow):
            assert ov == (rv if mv == 1.0 else 0.0)


@given(grids(cell=signed_dyadic, min_cols=1), st.integers(-3, 3))
def test_positive_rescaling_preserves_argmax(grid, exponent):
    scale = 2.0**exponent
    feasible = frozenset(range(len(grid)))
    base = select_action(row_utilities(FilteredMatrix(grid)), feasible)
    scaled = [[v * scale for v in row] for row in grid]
    assert select_action(row_utilities(FilteredMatrix(scaled)), feasible) == base


@given(grids(cell=signed_dyadic, min_cols=1), st.data())
def test_constant_row_shift_preserves_argmax(grid, data):
    m = len(grid[0])
    delta = [data.draw(signed_dyadic) for _ in range(m)]
    feasible = frozenset(range(len(grid)))
    base = select_action(row_utilities(FilteredMatrix(grid)), feasible)
    shifted = [[v + d for v, d in zip(row, delta)] for row in grid]
    assert select_action(row_utilities(FilteredMatrix(shifted)), feasible) == base


@given(grids(cell=signed_dyadic))
def test_all_zero_column_does_not_change_utilities(grid):
    base = row_utilities(FilteredMatrix(grid))
    widened = [list(row) + [0.0] for row in grid]
    assert row_utilities(FilteredMatrix(widened)) == base


@given(grids(min_rows=2), st.data())
def test_selected_action_is_always_feasible(grid, data):
    n = len(grid)
    excluded = data.draw(
        st.sets(st.integers(0, n - 1), min_size=0, max_size=n - 1)
    )
    lines = constraint_lines(excluded, n, data.draw(st.randoms(use_true_random=False)))
    constraints = [parse_constraint(line) for line in lines]
    sol = solve_symbolic(grid, WeightMatrix(grid), data.draw(policies()), constraints)
    feasible = frozenset(range(n)) - excluded
    assert sol.answer in feasible
    assert sol.feasible == feasible
