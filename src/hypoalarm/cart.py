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


def _gini_and_mass(n_n, n_h, costs):
    # cost-weighted Gini and class mass of nodes with these counts, scalars or arrays
    mass = costs.cost_fp * n_n + costs.cost_fn * n_h
    p_h = costs.cost_fn * n_h / mass
    return 2.0 * p_h * (1.0 - p_h), mass


def leaf_class(n_n: int, n_h: int, costs: CostMatrix) -> str:
    """Cost-minimizing class for a node; ties go to H, the safe alarm."""
    if n_n + n_h < 1:
        raise ValueError("empty node")
    return CLASS_H if costs.cost_fn * n_h >= costs.cost_fp * n_n else CLASS_N


def _checked_predictors(X) -> np.ndarray:
    """`X` as floats of shape (n, len(FEATURES)), all finite, each `-0.0`
    made `0.0`; ValueError otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(FEATURES):
        raise ValueError(f"X must have shape (n, {len(FEATURES)})")
    if not np.isfinite(X).all():
        raise ValueError("predictors must be finite")
    return X + 0.0


def _checked_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """`_checked_predictors(X)` and `y` as one bool label per row of `X`,
    from labels 0 or 1; ValueError otherwise."""
    X = _checked_predictors(X)
    y = np.asarray(y, dtype=int)
    if y.shape != X.shape[:1]:
        raise ValueError("y must hold one label per row of X")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(bool)  # a label gather moves one byte a row


def _best_cut(X, y, order, costs: CostMatrix):
    """The split kernel. Row `order[f]` lists a node's rows sorted by
    feature f, with no `-0.0` among them, and `y` holds 0/1 labels. Returns
    (feature index, rows left of the cut, threshold, impurity decrease, H
    rows left of the cut) of the best split, or None.

    Candidates come from the node's class changes, the positions c at which
    sorted rows c and c+1 differ in class. A change between two distinct
    values gives the cut after row c; a change inside a run of equal values
    gives the cuts at both ends of the run, less the node's edges. The cuts
    of both features, in feature order, are scored in one pass, and the
    first maximum wins: ties go to the earlier feature, then the lower cut.

    These are exactly the boundary cuts, the cuts between two value groups
    that are not both pure and of the same class: such a cut has a class
    change inside the lower group, at the seam, or inside the upper group.
    Only a boundary cut can win (Fayyad & Irani, Machine Learning 1992;
    Elomaa & Rousu, Machine Learning 1999, for Gini). A child's weighted
    impurity `mass * gini` is `2ab/(a+b)` with `a = cost_fn * n_H` and
    `b = cost_fp * n_N`. Along a run of pure groups of one class, moving
    the cut moves rows of that class between the children with both `b`
    fixed, and the node holds both classes, so the decrease is strictly
    convex along the run: a cut inside it scores strictly less than one of
    the cuts that bound it, boundary cuts or the node's edge (decrease 0).
    In floats a skipped cut could tie or win only when the decreases shrink
    to the formula's rounding error (about 1e-16). `CostMatrix` allows
    that at a cost ratio near 1e6, in a node holding a single row of one
    class; the pipeline's 15:1 ratio stays far from it. No part of the
    result depends on the order of tied rows.

    Cost: one gather of the node's labels and one scan of them for changes.
    Feature values are read only at the changes, and a feature's whole
    sorted value column only when a change falls inside a run of equal
    values. The H count left of each cut comes from the lengths of the
    alternating class runs between changes, so the rest of the work grows
    with the number of changes, not of rows.
    """
    hs = y[order]
    n = order.shape[1]
    tot_h = int(np.count_nonzero(hs[0]))
    tot_n = n - tot_h
    if tot_h == 0 or tot_n == 0:
        return None
    parent_gini, parent_mass = _gini_and_mass(tot_n, tot_h, costs)
    cuts, left_hs = [], []
    for fi, (rows, h) in enumerate(zip(order, hs)):
        changes = (h[:-1] != h[1:]).nonzero()[0]
        # class runs: run r holds rows last[r]+1 .. last[r+1], all of class h_run[r]
        last = np.concatenate(([-1], changes, [n - 1]))
        h_run = (np.arange(changes.size + 1) & 1) ^ int(h[0])
        h_upto = np.cumsum((last[1:] - last[:-1]) * h_run)  # H rows up to the end of run r
        lo, hi = X[rows[changes], fi], X[rows[changes + 1], fi]
        tied = lo == hi
        if tied.any():  # a change inside a run of equal values: cut at the run's ends
            xs = X[rows, fi]
            ties = lo[tied]
            cut = np.unique(np.concatenate((changes[~tied], np.searchsorted(xs, ties) - 1,
                                            np.searchsorted(xs, ties, "right") - 1)))
            cut = cut[(cut >= 0) & (cut < n - 1)]
            run = np.searchsorted(changes, cut)
            cuts.append(cut)
            left_hs.append(h_upto[run] - (last[run + 1] - cut) * h_run[run])
        else:
            cuts.append(changes)
            left_hs.append(h_upto[:-1])
    cut, left_h = np.concatenate(cuts), np.concatenate(left_hs)
    if cut.size == 0:
        return None
    left_n = (cut + 1) - left_h
    g_l, m_l = _gini_and_mass(left_n, left_h, costs)
    g_r, m_r = _gini_and_mass(tot_n - left_n, tot_h - left_h, costs)
    decrease = parent_gini - (m_l * g_l + m_r * g_r) / parent_mass
    j = int(np.argmax(decrease))
    if not decrease[j] > 0.0:
        return None
    fi = int(j >= cuts[0].size)  # the second feature's cuts follow the first's
    rows = order[fi]
    lo, hi = X[rows[cut[j]], fi], X[rows[cut[j] + 1], fi]
    threshold = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 can overflow
    if not threshold > lo:  # midpoint of adjacent floats can round down
        threshold = hi
    return fi, int(cut[j]) + 1, float(threshold), float(decrease[j]), int(left_h[j])


def grow_tree(X, y, costs: CostMatrix, max_depth: int | None = None, *,
              _presort=None) -> TreeNode:
    """Grow a tree; nodes stop at purity, when unsplittable, or at `max_depth`.

    A node `max_depth` edges below the root becomes a leaf labeled by
    `leaf_class` over its own rows; None grows every path to purity.
    Each feature is sorted once per tree. Each node scores only the
    boundary cuts of `_best_cut`, found from its class changes. A child
    that cannot split (one class, or at `max_depth`) is a leaf counted
    from the cut and is never partitioned; a child that can split takes
    its split feature's sorted rows as a slice of its parent's and the
    other feature's by a mask. Each `-0.0` counts as `0.0`: the tree
    depends only on the multiset of its training rows and never holds a
    `-0.0` threshold. `X` needs one finite column per name in FEATURES
    and `y` one 0/1 label per row, or ValueError is raised.

    `_presort`, passed only by `cross_validate`, is its sort of `X` kept to
    a fold's training rows (row f by feature f), used unchecked as the sort.
    With it, `X` and `y` are taken as `_checked_rows` returns them, since
    `cross_validate` checks them once for all its folds.
    """
    if _presort is None:
        X, y = _checked_rows(X, y)
    if y.size == 0:
        raise ValueError("cannot grow a tree from zero instances")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    order = np.argsort(X, axis=0).T if _presort is None else _presort
    return _grow(X, y, order, int(np.count_nonzero(y[order[0]])), costs, max_depth)


def _leaf(n_n: int, n_h: int, costs: CostMatrix) -> Leaf:
    return Leaf(leaf_class(n_n, n_h, costs), n_n, n_h)


def _grow(X, y, order, n_h: int, costs: CostMatrix, max_depth: int | None,
          depth: int = 0) -> TreeNode:
    # order[f]: this node's rows of X and y, sorted by feature f; n_h of them are H
    n = order.shape[1]
    found = _best_cut(X, y, order, costs) if 0 < n_h < n else None  # a pure root is a leaf
    if found is None:
        return _leaf(n - n_h, n_h, costs)
    fi, n_left, threshold, _, left_h = found
    other = order[1 - fi]
    children = []
    for rows, child_h, side in ((order[fi, :n_left], left_h, np.less),
                                (order[fi, n_left:], n_h - left_h, np.greater_equal)):
        if 0 < child_h < rows.size and depth + 1 != max_depth:  # the child can split
            child = np.empty((2, rows.size), dtype=order.dtype)
            child[fi], child[1 - fi] = rows, np.compress(side(X[:, fi][other], threshold), other)
            children.append(_grow(X, y, child, child_h, costs, max_depth, depth + 1))
        else:
            children.append(_leaf(rows.size - child_h, child_h, costs))
    return Split(FEATURES[fi], threshold, *children)


def tree_depth(node: TreeNode) -> int:
    """Maximum number of edges on any root-to-leaf path."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def alarms(tree: TreeNode, X) -> np.ndarray:
    """Whether `tree` alarms (class H) on each row of `X` (columns x_t,
    rate): the row sets are routed down the tree, one mask per split;
    `feature >= threshold` goes right."""
    X = _checked_predictors(X)
    alarm = np.zeros(X.shape[0], dtype=bool)
    _route(tree, X, np.arange(X.shape[0]), alarm)
    return alarm


def _route(node: TreeNode, X, rows, alarm) -> None:
    if isinstance(node, Leaf):
        alarm[rows] = node.label == CLASS_H
        return
    left = X[rows, FEATURES.index(node.feature)] < node.threshold
    _route(node.left, X, rows[left], alarm)
    _route(node.right, X, rows[~left], alarm)


def predict(tree: TreeNode, x_t: float, rate: float) -> str:
    """Class label of one instance."""
    return CLASS_H if alarms(tree, [[x_t, rate]])[0] else CLASS_N


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
