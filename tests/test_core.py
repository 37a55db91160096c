"""Kernel unit tests with frozen expected values and independent oracles."""

import math
import random
import string
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisionflow.core import (
    AttributeTable,
    Constraint,
    DecisionProblem,
    FilteredMatrix,
    FilterPolicy,
    WeightMatrix,
    apply_mask,
    canonical_name,
    feasible_actions,
    parse_constraint,
    row_utilities,
    select_action,
    solve_symbolic,
    sparsify_weights,
)
from decisionflow.errors import InfeasibleError, ShapeError


def pairwise_sum(values):
    """Independent summation oracle: recursive pairwise addition."""
    vals = list(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return vals[0]
    mid = len(vals) // 2
    return pairwise_sum(vals[:mid]) + pairwise_sum(vals[mid:])


def oracle_solve(relevance, weights, policy, excluded, n):
    """Exhaustive enumeration over feasible one-hot assignments.

    Re-derives the kept-entry set with its own loops, takes the excluded
    actions as drawn rather than from the constraints, then scans candidates
    in ascending index order keeping strict improvements, which reproduces
    the lowest-index tie-break.
    """
    m = len(weights[0]) if weights else 0
    keep = [[False] * m for _ in range(n)]
    if policy.kind == "threshold":
        for i in range(n):
            for j in range(m):
                keep[i][j] = abs(weights[i][j]) > policy.epsilon
    elif policy.kind == "top_k":
        for i in range(n):
            remaining = list(range(m))
            for _ in range(min(policy.k, m)):
                best = None
                for j in remaining:
                    if best is None or abs(weights[i][j]) > abs(weights[i][best]):
                        best = j
                keep[i][best] = True
                remaining.remove(best)
    else:
        keep = [[True] * m for _ in range(n)]

    best_i = None
    best_u = None
    for i in range(n):
        if i in excluded:
            continue
        u = math.fsum(
            weights[i][j] * relevance[i][j] for j in range(m) if keep[i][j]
        )
        if best_i is None or u > best_u:
            best_i, best_u = i, u
    return best_i, best_u


def constraint_lines(excluded, n, rng):
    """Constraint text that rules out exactly `excluded` of n actions: a
    `<= 0` line for each excluded action or pair of them, shuffled in with
    the vacuous `<= 1` and domain lines."""
    variables = [f"x{i + 1}" for i in range(n)]
    lines = [" + ".join(variables) + " <= 1", ", ".join(variables) + " in {0, 1}"]
    order = sorted(excluded)
    rng.shuffle(order)
    while order:
        group = [order.pop()]
        if order and rng.random() < 0.5:
            group.append(order.pop())
        lines.append(" + ".join(f"x{i + 1}" for i in group) + " <= 0")
    rng.shuffle(lines)
    return lines


def random_instance(rng):
    n = rng.randint(2, 7)
    m = rng.randint(0, 10)
    relevance = [[round(rng.random(), 3) for _ in range(m)] for _ in range(n)]
    weights = [[round(rng.random(), 3) for _ in range(m)] for _ in range(n)]
    kind = rng.choice(["threshold", "top_k", "none"])
    if kind == "threshold":
        policy = FilterPolicy.threshold(round(rng.random(), 2))
    elif kind == "top_k":
        policy = FilterPolicy.top_k(rng.randint(1, 10))
    else:
        policy = FilterPolicy.none()
    # leave at least one action feasible
    excluded = set(rng.sample(range(n), rng.randint(0, n - 1)))
    constraints = [parse_constraint(line)
                   for line in constraint_lines(excluded, n, rng)]
    return relevance, weights, policy, constraints, excluded, n


class TestSparsify:
    def test_threshold_drops_small_entries(self):
        w = WeightMatrix([[0.9, 0.2], [0.4, 0.4]])
        out = sparsify_weights(w, FilterPolicy.threshold(0.3))
        assert out.entries == ((0.9, 0.0), (0.4, 0.4))

    def test_threshold_boundary_is_strict(self):
        w = WeightMatrix([[0.3]])
        out = sparsify_weights(w, FilterPolicy.threshold(0.3))
        assert out.entries == ((0.0,),)

    def test_top_k_tie_keeps_lowest_column(self):
        w = WeightMatrix([[0.5, 0.5]])
        out = sparsify_weights(w, FilterPolicy.top_k(1))
        assert out.entries == ((0.5, 0.0),)

    def test_top_k_larger_than_row_keeps_all(self):
        w = WeightMatrix([[0.1, 0.2, 0.3]])
        out = sparsify_weights(w, FilterPolicy.top_k(5))
        assert out.entries == w.entries

    def test_none_is_identity(self):
        w = WeightMatrix([[0.1, 0.9], [0.0, 0.2]])
        assert sparsify_weights(w, FilterPolicy.none()) is w


class TestMaskAndUtilities:
    def test_mask_elementwise(self):
        w = WeightMatrix([[1.0, 0.0], [0.0, 1.0]])
        out = apply_mask(w, [[0.6, 0.1], [0.9, 0.9]])
        assert out.entries == ((0.6, 0.0), (0.0, 0.9))

    def test_mask_shape_mismatch_names_both_shapes(self):
        w = WeightMatrix([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ShapeError) as err:
            apply_mask(w, [[0.5, 0.5], [0.5, 0.5]])
        assert "(2, 3)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_case_study_utilities(self):
        # weighted case-study grid: row sums must hit the published utilities
        filtered = FilteredMatrix([[0.54, 0.085], [0.81, 0.81]])
        utilities = row_utilities(filtered)
        assert utilities[0] == pytest.approx(0.625, abs=1e-9)
        assert utilities[1] == pytest.approx(1.62, abs=1e-9)

    def test_empty_attribute_axis_gives_zeros(self):
        filtered = FilteredMatrix([(), ()])
        assert row_utilities(filtered) == (0.0, 0.0)

    def test_row_utilities_matches_pairwise_summation_oracle(self):
        rng = random.Random(20240517)
        grid = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(5)]
        utilities = row_utilities(FilteredMatrix(grid))
        for got, row in zip(utilities, grid):
            assert got == pytest.approx(pairwise_sum(row), abs=1e-12)


class TestFeasibility:
    def test_exclusion_removes_action(self):
        assert feasible_actions([parse_constraint("x2 <= 0")], 3) == {0, 2}

    def test_zero_limit_cardinality_excludes_its_set(self):
        c = parse_constraint("x1 + x2 <= 0")
        assert feasible_actions([c], 3) == {2}

    def test_positive_cardinality_is_vacuous(self):
        c = parse_constraint("x1 + x2 <= 1")
        assert feasible_actions([c], 2) == {0, 1}

    def test_markers_are_noops(self):
        cs = [parse_constraint("x1, x2 in {0, 1}"),
              parse_constraint("the patient must consent")]
        assert feasible_actions(cs, 2) == {0, 1}

    def test_empty_constraints_everything_feasible(self):
        assert feasible_actions([], 4) == {0, 1, 2, 3}


class TestSelect:
    def test_argmax(self):
        assert select_action([0.625, 1.62], {0, 1}) == 1

    def test_tie_goes_to_lowest_index(self):
        assert select_action([1.0, 1.0], {0, 1}) == 0

    def test_feasibility_restricts_argmax(self):
        assert select_action([5.0, 1.0], {1}) == 1

    def test_empty_feasible_set_raises(self):
        with pytest.raises(InfeasibleError):
            select_action([1.0, 2.0], frozenset())


def read_constraint(text):
    c = parse_constraint(text)
    return c.source_text, c.excludes


class TestParseConstraint:
    """Text in, (source_text, excludes) out: only a `<= 0` line rules
    actions out, and every line keeps its text."""

    def test_constraint_is_its_text_and_what_it_rules_out(self):
        assert [f.name for f in fields(Constraint)] == ["source_text", "excludes"]

    def test_pairwise_cardinality(self):
        assert read_constraint("x1 + x2 <= 1") == ("x1 + x2 <= 1", set())

    def test_single_variable_zero_limit(self):
        assert read_constraint("x3 <= 0") == ("x3 <= 0", {2})
        assert read_constraint("x1 + x3 + x1 <= 00") == ("x1 + x3 + x1 <= 00", {0, 2})

    def test_binary_domain(self):
        assert read_constraint("x1, x2 in {0, 1}") == ("x1, x2 in {0, 1}", set())

    def test_unrecognized_text_is_opaque_not_an_error(self):
        assert read_constraint("allocate the ventilator fairly") == (
            "allocate the ventilator fairly", set())

    @pytest.mark.parametrize("text", ["x0 <= 1", "x1 + x0 <= 1",
                                      "x1 <= " + "9" * 5000,
                                      "x" + "9" * 5000 + " <= 1",
                                      "x0 <= 0", "x1 + x0 <= 0",
                                      "x1 <= " + "0" * 5000,
                                      "x" + "9" * 5000 + " <= 0"],
                             ids=["x0", "x1+x0", "long_limit", "long_index",
                                  "x0_limit_0", "x1+x0_limit_0",
                                  "long_limit_0", "long_index_limit_0"])
    def test_unreadable_cardinality_is_opaque_not_an_error(self, text):
        # the text is 1-based, so x0 names no variable; int() refuses a
        # number of more than 4300 digits
        assert read_constraint(text) == (text, set())

    def test_source_text_round_trip(self):
        assert read_constraint("  x1 + x2 + x5 <= 0 ") == (
            "x1 + x2 + x5 <= 0", {0, 1, 4})
        assert read_constraint("x1 + x2 + x5 <= 2\n") == ("x1 + x2 + x5 <= 2", set())


class TestSolveSymbolic:
    def test_case_study_end_to_end(self):
        relevance = [[0.6, 0.1], [0.9, 0.9]]
        weights = WeightMatrix([[0.9, 0.85], [0.9, 0.9]])
        sol = solve_symbolic(
            relevance,
            weights,
            FilterPolicy.threshold(0.3),
            [parse_constraint("x1 + x2 <= 1"), parse_constraint("x1, x2 in {0, 1}")],
        )
        assert sol.answer == 1
        assert sol.utilities[0] == pytest.approx(0.625, abs=1e-9)
        assert sol.utilities[1] == pytest.approx(1.62, abs=1e-9)
        assert sol.feasible == {0, 1}

    def test_matches_enumeration_oracle_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(200):
            relevance, weights, policy, constraints, excluded, n = random_instance(rng)
            sol = solve_symbolic(relevance, WeightMatrix(weights), policy, constraints)
            want_i, want_u = oracle_solve(relevance, weights, policy, excluded, n)
            assert sol.answer == want_i
            assert sol.utilities[want_i] == want_u

    def test_infeasibility_propagates(self):
        with pytest.raises(InfeasibleError):
            solve_symbolic(
                [[1.0], [1.0]],
                WeightMatrix([[1.0], [1.0]]),
                FilterPolicy.none(),
                [parse_constraint("x1 + x2 <= 0")],
            )


class TestTypes:
    def test_weight_matrix_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            WeightMatrix([[-0.1]])

    def test_weight_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightMatrix([[float("nan")]])

    def test_ragged_grid_rejected(self):
        with pytest.raises(ShapeError):
            FilteredMatrix([[1.0, 2.0], [3.0]])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FilterPolicy.threshold(-0.5)
        with pytest.raises(ValueError):
            FilterPolicy.top_k(0)
        with pytest.raises(ValueError):
            FilterPolicy(kind="threshold", epsilon=0.3, k=2)

    @pytest.mark.parametrize("kind,value", [
        ("top_k", 2.7), ("top_k", 2.0), ("top_k", True), ("top_k", "2"),
        ("threshold", True), ("threshold", "0.3"), ("threshold", None),
        ("threshold", float("nan")), ("threshold", float("inf")),
        ("threshold", 10**400),
    ])
    def test_policy_parameter_types(self, kind, value):
        field = "k" if kind == "top_k" else "epsilon"
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            FilterPolicy(kind=kind, **{field: value})

    def test_int_epsilon_is_stored_as_a_float(self):
        policy = FilterPolicy.threshold(1)
        assert type(policy.epsilon) is float
        assert policy == FilterPolicy.threshold(1.0)
        assert policy.label() == "epsilon=1.0"

    def test_problem_needs_two_distinct_actions(self):
        with pytest.raises(ValueError, match="^actions must be a list of at "
                           "least 2 non-empty strings$"):
            DecisionProblem("p", "scenario", ("only one",))
        with pytest.raises(ValueError,
                           match="^actions repeats the label 'same'$"):
            DecisionProblem("p", "scenario", ("same", "other", "same"))

    @pytest.mark.parametrize("actions,rule", [
        ("ab", "a sequence of labels, not a string"),
        ("", "a sequence of labels, not a string"),
        ((1, 2), "non-empty strings"),
        (["a", None], "non-empty strings"),
        ((b"a", b"b"), "non-empty strings"),
        (("a", " "), "non-empty strings"),
    ])
    def test_problem_actions_are_label_strings(self, actions, rule):
        with pytest.raises(ValueError, match=rule):
            DecisionProblem("p", "scenario", actions)

    def test_attribute_table_mentioned(self):
        table = AttributeTable(
            actions=("a", "b"),
            attributes=("Severity", "Survival probability"),
            cells=(("not mentioned", "severe bleeding"),
                   ("Not  Mentioned.", "mentioned")),
        )
        assert table.mentioned == ((False, True), (False, True))
        assert table.columns == {"severity": 0, "survival probability": 1}

    def test_attribute_table_rejects_duplicate_canonical_names(self):
        with pytest.raises(ValueError):
            AttributeTable(
                actions=("a", "b"),
                attributes=("Severity", "severity!"),
                cells=(("x", "y"), ("x", "y")),
            )

    def test_canonical_name_folds_case_punctuation_whitespace(self):
        assert canonical_name("  Survival-Probability ") == "survival probability"
        assert canonical_name("SURVIVAL   PROBABILITY") == "survival probability"


# canonical_name as first written, before its ASCII path: the oracle
_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


def canonical_name_oracle(text):
    return " ".join(text.casefold().translate(_PUNCT_TO_SPACE).split())


# every ASCII character, and non-ASCII ones that casefold, split or both
# differently from their ASCII look-alikes
CANONICAL_ALPHABET = [chr(i) for i in range(128)] + [
    "ß", "É", "\xa0", "\x85", "İ", "ﬁ"]


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.text(alphabet=st.sampled_from(CANONICAL_ALPHABET), max_size=24))
def test_canonical_name_matches_its_oracle(text):
    assert canonical_name(text) == canonical_name_oracle(text)
