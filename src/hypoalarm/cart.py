"""Cost-weighted binary classification tree over the two alarm predictors.

Splits minimize a Gini impurity in which each class is weighted by the
cost of misclassifying it (altered priors), so the rare alarm class can
dominate split selection and leaf assignment without resampling.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

CLASS_N = "N"  # no alarm
CLASS_H = "H"  # impending hypoglycemia

#: Feature order also fixes split tie-breaking: the earlier feature wins.
FEATURES = ("x_t", "rate")


class TreeDocumentError(ValueError):
    """A tree document does not match the expected schema."""


def finite_number(value) -> bool:
    """An int or float within the float range; not a bool, NaN or ±inf."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class CostMatrix:
    """Misclassification costs: `cost_fn` for a missed alarm (predicting N
    when the truth is H), `cost_fp` for a false alarm."""

    cost_fn: float = 15.0
    cost_fp: float = 1.0

    def __post_init__(self):
        for name in ("cost_fn", "cost_fp"):
            value = getattr(self, name)
            if not (finite_number(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class Leaf:
    label: str  # CLASS_N or CLASS_H
    n_n: int    # training instances of class N routed here
    n_h: int


@dataclass
class Split:
    feature: str  # one of FEATURES
    threshold: float
    left: "TreeNode"   # feature < threshold
    right: "TreeNode"  # feature >= threshold


TreeNode = Split | Leaf


@dataclass(frozen=True)
class SplitCandidate:
    feature: str
    threshold: float  # midpoint of two consecutive distinct observed values
    impurity_decrease: float


def _gini_and_mass(n_n, n_h, costs):
    # cost-weighted Gini and class mass of nodes with these counts, scalars or arrays
    mass = costs.cost_fp * n_n + costs.cost_fn * n_h
    p_h = costs.cost_fn * n_h / mass
    return 2.0 * p_h * (1.0 - p_h), mass


def weighted_gini(n_n: int, n_h: int, costs: CostMatrix) -> float:
    """Two-class Gini impurity with cost-weighted class masses, in [0, 0.5]."""
    if n_n + n_h < 1:
        raise ValueError("empty node")
    return _gini_and_mass(n_n, n_h, costs)[0]


def leaf_class(n_n: int, n_h: int, costs: CostMatrix) -> str:
    """Cost-minimizing class for a node; ties go to H, the safe alarm."""
    if n_n + n_h < 1:
        raise ValueError("empty node")
    return CLASS_H if costs.cost_fn * n_h >= costs.cost_fp * n_n else CLASS_N


def best_split(X, y, costs: CostMatrix) -> SplitCandidate | None:
    """Exhaustive search over midpoints of consecutive distinct values.

    Returns the candidate with the largest strictly positive decrease in
    cost-weighted Gini impurity, or None when no such candidate exists.
    Ties prefer the earlier feature in FEATURES, then the lowest threshold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = y.size
    if n < 2:
        return None
    tot_h = int(y.sum())
    tot_n = n - tot_h
    if tot_h == 0 or tot_n == 0:
        return None
    parent_gini, parent_mass = _gini_and_mass(tot_n, tot_h, costs)

    best: SplitCandidate | None = None
    for fi in range(X.shape[1]):
        col = X[:, fi]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        hs = y[order]
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        if cut.size == 0:
            continue
        left_h = np.cumsum(hs)[cut]
        left_n = (cut + 1) - left_h
        g_l, m_l = _gini_and_mass(left_n, left_h, costs)
        g_r, m_r = _gini_and_mass(tot_n - left_n, tot_h - left_h, costs)
        decrease = parent_gini - (m_l * g_l + m_r * g_r) / parent_mass
        j = int(np.argmax(decrease))
        if decrease[j] > 0.0 and (best is None or decrease[j] > best.impurity_decrease):
            lo, hi = xs[cut[j]], xs[cut[j] + 1]
            threshold = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 can overflow
            if not threshold > lo:  # midpoint of adjacent floats can round down
                threshold = hi
            best = SplitCandidate(FEATURES[fi], float(threshold), float(decrease[j]))
    return best


def grow_tree(X, y, costs: CostMatrix, max_depth: int | None = None) -> TreeNode:
    """Grow a tree; nodes stop at purity, when unsplittable, or at `max_depth`.

    A node `max_depth` edges below the root becomes a leaf labeled by
    `leaf_class` over its own rows; None grows every path to purity.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if y.size == 0:
        raise ValueError("cannot grow a tree from zero instances")
    if X.ndim != 2 or X.shape[0] != y.size or not 1 <= X.shape[1] <= len(FEATURES):
        raise ValueError("X must have shape (n, n_features<=2) aligned with y")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return _grow(X, y, costs, max_depth)


def _grow(X, y, costs: CostMatrix, max_depth: int | None, depth: int = 0) -> TreeNode:
    cand = None if depth == max_depth else best_split(X, y, costs)
    if cand is None:
        n_h = int(y.sum())
        return Leaf(leaf_class(y.size - n_h, n_h, costs), y.size - n_h, n_h)
    left = X[:, FEATURES.index(cand.feature)] < cand.threshold
    return Split(cand.feature, cand.threshold,
                 _grow(X[left], y[left], costs, max_depth, depth + 1),
                 _grow(X[~left], y[~left], costs, max_depth, depth + 1))


def tree_depth(node: TreeNode) -> int:
    """Maximum number of edges on any root-to-leaf path."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def predict_batch(tree: TreeNode, X) -> np.ndarray:
    """Class label of each row of `X` (columns x_t, rate): the row sets are
    routed down the tree, one mask per split; `feature >= threshold` goes
    right."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(FEATURES):
        raise ValueError(f"X must have shape (n, {len(FEATURES)})")
    if not np.isfinite(X).all():
        raise ValueError("predictors must be finite")
    labels = np.empty(X.shape[0], dtype="<U1")
    _route(tree, X, np.arange(X.shape[0]), labels)
    return labels


def _route(node: TreeNode, X, rows, labels) -> None:
    if isinstance(node, Leaf):
        labels[rows] = node.label
        return
    left = X[rows, FEATURES.index(node.feature)] < node.threshold
    _route(node.left, X, rows[left], labels)
    _route(node.right, X, rows[~left], labels)


def predict(tree: TreeNode, x_t: float, rate: float) -> str:
    """Class label of one instance."""
    return str(predict_batch(tree, [[x_t, rate]])[0])


def serialize_tree(tree: TreeNode) -> dict:
    """JSON-ready document; inverse of `parse_tree`."""
    if isinstance(tree, Leaf):
        return {"class": tree.label, "n_N": tree.n_n, "n_H": tree.n_h}
    return {
        "feature": tree.feature,
        "threshold": tree.threshold,
        "left": serialize_tree(tree.left),
        "right": serialize_tree(tree.right),
    }


_LEAF_KEYS = {"class", "n_N", "n_H"}
_SPLIT_KEYS = {"feature", "threshold", "left", "right"}


def parse_tree(doc, path: str = "$") -> TreeNode:
    """Validate and load a document produced by `serialize_tree`.

    Schema violations raise TreeDocumentError naming the offending path.
    """
    if not isinstance(doc, dict):
        raise TreeDocumentError(f"{path}: expected an object")
    keys = set(doc)
    if "class" in keys:
        if keys != _LEAF_KEYS:
            raise TreeDocumentError(f"{path}: leaf must have exactly keys {sorted(_LEAF_KEYS)}")
        if doc["class"] not in (CLASS_N, CLASS_H):
            raise TreeDocumentError(f"{path}: unknown class {doc['class']!r}")
        for key in ("n_N", "n_H"):
            count = doc[key]
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise TreeDocumentError(f"{path}: {key} must be a non-negative integer")
        return Leaf(doc["class"], doc["n_N"], doc["n_H"])
    if keys & _SPLIT_KEYS:
        missing = _SPLIT_KEYS - keys
        if missing:
            raise TreeDocumentError(f"{path}: missing {sorted(missing)}")
        if keys != _SPLIT_KEYS:
            raise TreeDocumentError(f"{path}: split must have exactly keys {sorted(_SPLIT_KEYS)}")
        if doc["feature"] not in FEATURES:
            raise TreeDocumentError(f"{path}: unknown feature {doc['feature']!r}")
        threshold = doc["threshold"]
        if not finite_number(threshold):
            raise TreeDocumentError(f"{path}: threshold must be a finite number")
        return Split(
            doc["feature"],
            float(threshold),
            parse_tree(doc["left"], path + ".left"),
            parse_tree(doc["right"], path + ".right"),
        )
    raise TreeDocumentError(f"{path}: neither a split nor a leaf")


def format_tree(tree: TreeNode, indent: str = "") -> str:
    """Readable if/then rendering of the routing rules."""
    if isinstance(tree, Leaf):
        return f"{indent}-> {tree.label}  (n_N={tree.n_n}, n_H={tree.n_h})"
    return "\n".join([
        f"{indent}if {tree.feature} < {tree.threshold:.6g}:",
        format_tree(tree.left, indent + "    "),
        f"{indent}else:  # {tree.feature} >= {tree.threshold:.6g}",
        format_tree(tree.right, indent + "    "),
    ])
