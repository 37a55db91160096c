"""Deterministic symbolic kernel: decision types, filtering, and selection.

Everything in this module is pure and total over validated inputs. Actions are
modeled as a one-hot choice among n candidates; relevance and weight grids are
n x m (action x attribute). No randomness, no I/O.
"""

from __future__ import annotations

import math
import re
import string
import sys
from dataclasses import dataclass

from .errors import InfeasibleError, ShapeError

Grid = tuple[tuple[float, ...], ...]

CARDINALITY_RE = re.compile(r"^\s*x\d+\s*(?:\+\s*x\d+\s*)*<=\s*\d+\s*$")
VAR_INDEX_RE = re.compile(r"x(\d+)")

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
# the casefold path's fold of each ASCII byte, padded to bytes.translate's 256
_ASCII_FOLD = bytes(range(128)).decode().casefold().translate(_PUNCT_TABLE).encode().ljust(256)


def canonical_name(text: str) -> str:
    """Case-fold, strip punctuation, and collapse whitespace.

    Used wherever attribute or variable names are compared.
    """
    folded = (text.encode().translate(_ASCII_FOLD).decode() if text.isascii()
              else text.casefold().translate(_PUNCT_TABLE))
    return " ".join(folded.split())


def finite_float(value) -> float | None:
    """value as a float if it is a finite int or float, else None; a bool is
    not a number."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    return None


def _as_grid(rows, *, what: str) -> Grid:
    grid = tuple(tuple(float(v) for v in row) for row in rows)
    if grid:
        width = len(grid[0])
        for i, row in enumerate(grid):
            if len(row) != width:
                raise ShapeError(f"{what} row {i} has length {len(row)}, expected {width}")
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"{what}[{i}][{j}] is not finite: {v!r}")
    return grid


def grid_shape(grid: Grid) -> tuple[int, int]:
    return (len(grid), len(grid[0]) if grid else 0)


@dataclass(frozen=True)
class Constraint:
    """One constraint line: its text, which the prompts show as written, and
    the 0-based indices of the actions it rules out of the one-hot choice."""

    source_text: str
    excludes: frozenset[int] = frozenset()


def parse_constraint(text: str) -> Constraint:
    """Read one constraint line; never raises.

    Only a cardinality line with limit 0 rules actions out: ``x1 + x3 <= 0``
    excludes {0, 2} (variables are 1-based in text, 0-based here). Every
    other line rules nothing out: a limit of 1 or more is vacuous for a
    one-hot choice, and so are ``x1, x2 in {0, 1}``, prose, a line naming
    ``x0`` and a number that int() refuses.
    """
    text = text.strip()
    if CARDINALITY_RE.match(text):
        lhs, rhs = text.split("<=")
        try:  # int() refuses a number of more than 4300 digits
            if int(rhs) == 0:
                indices = [int(tok) for tok in VAR_INDEX_RE.findall(lhs)]
                if 0 not in indices:  # x0 names no variable
                    return Constraint(text, frozenset(i - 1 for i in indices))
        except ValueError:
            pass
    return Constraint(text)


@dataclass(frozen=True)
class DecisionProblem:
    """One decision instance: a scenario and the candidate actions."""

    problem_id: str
    scenario: str
    actions: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    bias_directive: str | None = None

    def __post_init__(self):
        if type(self.actions) is not tuple:  # a tuple is kept as it is
            if isinstance(self.actions, str):
                raise ValueError("actions must be a sequence of labels, not a string")
            object.__setattr__(self, "actions", tuple(self.actions))
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))
        actions = self.actions
        if len(actions) < 2:
            raise ValueError("a decision problem needs at least two actions")
        try:
            if not all(map(str.strip, actions)):
                raise ValueError("action labels must be non-empty")
        except TypeError:  # str.strip of a label that is not a string
            raise ValueError("action labels must be strings") from None
        if len(set(actions)) != len(actions):
            raise ValueError("action labels must be distinct")

    @property
    def n_actions(self) -> int:
        return len(self.actions)


NOT_MENTIONED = "not mentioned"


@dataclass(frozen=True)
class AttributeTable:
    """Verbal relevance grid: one row per action, one column per attribute.

    Two readings are worked out once, on construction, and are not fields:
    ``columns`` maps each attribute's canonical name to its column, and
    ``mentioned[i][j]`` is false where cell (i, j) canonicalises to
    "not mentioned".
    """

    actions: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))
        columns = {canonical_name(a): j for j, a in enumerate(self.attributes)}
        if len(columns) != len(self.attributes):
            raise ValueError("attribute names must be distinct after canonicalization")
        if len(self.cells) != len(self.actions):
            raise ShapeError(
                f"table has {len(self.cells)} rows for {len(self.actions)} actions"
            )
        for i, row in enumerate(self.cells):
            if len(row) != len(self.attributes):
                raise ShapeError(
                    f"table row {i} has {len(row)} cells for {len(self.attributes)} attributes"
                )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "mentioned", tuple(
            tuple(canonical_name(cell) != NOT_MENTIONED for cell in row)
            for row in self.cells))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.actions), len(self.attributes))


@dataclass(frozen=True)
class WeightMatrix:
    """Attribute importance per action; entries are finite and non-negative."""

    entries: Grid

    def __post_init__(self):
        grid = _as_grid(self.entries, what="weight matrix")
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                if v < 0:
                    raise ValueError(f"weight[{i}][{j}] is negative: {v}")
        object.__setattr__(self, "entries", grid)

    @property
    def shape(self) -> tuple[int, int]:
        return grid_shape(self.entries)

    @classmethod
    def ones(cls, n: int, m: int) -> "WeightMatrix":
        return cls(tuple(tuple(1.0 for _ in range(m)) for _ in range(n)))

    def support_size(self) -> int:
        return sum(1 for row in self.entries for v in row if v != 0.0)


@dataclass(frozen=True)
class FilteredMatrix:
    """Element-wise product of sparsified weights and grounded relevance."""

    entries: Grid

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_grid(self.entries, what="filtered matrix"))


@dataclass(frozen=True)
class FilterPolicy:
    """How weights are sparsified: magnitude threshold, per-row top-k, or none."""

    kind: str
    epsilon: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == "threshold":
            epsilon = finite_float(self.epsilon)
            if epsilon is None or epsilon < 0:
                raise ValueError("threshold filter needs a finite number "
                                 f"epsilon >= 0, not {self.epsilon!r}")
            object.__setattr__(self, "epsilon", epsilon)
            if self.k is not None:
                raise ValueError("threshold filter does not take k")
        elif self.kind == "top_k":
            if type(self.k) is not int or self.k < 1:
                raise ValueError(
                    f"top_k filter needs an integer k >= 1, not {self.k!r}")
            if self.epsilon is not None:
                raise ValueError("top_k filter does not take epsilon")
        elif self.kind == "none":
            if self.epsilon is not None or self.k is not None:
                raise ValueError("none filter takes no epsilon or k")
        else:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    @classmethod
    def threshold(cls, epsilon: float) -> "FilterPolicy":
        return cls(kind="threshold", epsilon=epsilon)

    @classmethod
    def top_k(cls, k: int) -> "FilterPolicy":
        return cls(kind="top_k", k=k)

    @classmethod
    def none(cls) -> "FilterPolicy":
        return cls(kind="none")

    def label(self) -> str:
        if self.kind == "threshold":
            return f"epsilon={self.epsilon!r}"
        if self.kind == "top_k":
            return f"top{self.k}"
        return "none"


@dataclass(frozen=True)
class DecisionOutcome:
    """Final product of one run: chosen action, utilities, and the trace.

    A run that abstains raises instead, so every outcome has an answer.
    trace holds JSON-compatible stage events in execution order; the
    structured rationale is its S4 ``rationale`` event, and a baseline's
    reasoning stays in its completion text.
    """

    answer: int
    utilities: tuple[float, ...]
    trace: tuple[dict, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(float(u) for u in self.utilities))
        object.__setattr__(self, "trace", tuple(self.trace))
        n = len(self.utilities)
        if not 0 <= self.answer < n:
            raise ValueError(f"answer {self.answer} out of range for {n} actions")


def sparsify_weights(weights: WeightMatrix, policy: FilterPolicy) -> WeightMatrix:
    """Zero out low-importance entries according to the policy.

    threshold keeps an entry iff |entry| > epsilon (strict). top_k keeps the k
    largest-magnitude entries of each row, ties at the boundary resolved in
    favor of the lowest column index. none is the identity.
    """
    if policy.kind == "none":
        return weights
    if policy.kind == "threshold":
        eps = policy.epsilon
        return WeightMatrix(
            tuple(
                tuple(v if abs(v) > eps else 0.0 for v in row)
                for row in weights.entries
            )
        )
    # top_k: rank columns by (magnitude desc, index asc), keep the first k
    kept_rows = []
    for row in weights.entries:
        order = sorted(range(len(row)), key=lambda j: (-abs(row[j]), j))
        keep = set(order[: policy.k])
        kept_rows.append(tuple(v if j in keep else 0.0 for j, v in enumerate(row)))
    return WeightMatrix(tuple(kept_rows))


def apply_mask(weights: WeightMatrix, relevance) -> FilteredMatrix:
    """Element-wise product of sparsified weights and a numeric relevance grid."""
    grid = _as_grid(relevance, what="relevance grid")
    if grid_shape(grid) != weights.shape:
        raise ShapeError(
            f"weight shape {weights.shape} does not match relevance shape {grid_shape(grid)}"
        )
    return FilteredMatrix(
        tuple(
            tuple(w * r for w, r in zip(wrow, rrow))
            for wrow, rrow in zip(weights.entries, grid)
        )
    )


def row_utilities(filtered: FilteredMatrix) -> tuple[float, ...]:
    """Per-action utility: the sum of that action's filtered relevance row."""
    return tuple(math.fsum(row) for row in filtered.entries)


def feasible_actions(constraints, n: int) -> frozenset[int]:
    """The indices into range(n) of the actions no constraint `excludes`."""
    return frozenset(range(n)).difference(*(c.excludes for c in constraints))


def select_action(utilities, feasible) -> int:
    """Feasible action with the highest utility; ties go to the lowest index."""
    best = None
    for i in sorted(feasible):
        if not 0 <= i < len(utilities):
            continue
        if best is None or utilities[i] > utilities[best]:
            best = i
    if best is None:
        raise InfeasibleError("no feasible action to select from")
    return best


@dataclass(frozen=True)
class SymbolicSolution:
    """solve_symbolic output, intermediates included for tracing."""

    answer: int
    utilities: tuple[float, ...]
    sparsified: WeightMatrix
    filtered: FilteredMatrix
    feasible: frozenset[int]


def solve_symbolic(relevance, weights: WeightMatrix, policy: FilterPolicy, constraints) -> SymbolicSolution:
    """Sparsify, mask, aggregate, and select in one deterministic pass."""
    sparsified = sparsify_weights(weights, policy)
    filtered = apply_mask(sparsified, relevance)
    utilities = row_utilities(filtered)
    feasible = feasible_actions(constraints, len(utilities))
    answer = select_action(utilities, feasible)
    return SymbolicSolution(
        answer=answer,
        utilities=utilities,
        sparsified=sparsified,
        filtered=filtered,
        feasible=feasible,
    )
