import json
import math

import numpy as np
import pytest

from hypoalarm import (
    CostMatrix,
    Leaf,
    Split,
    TreeDocumentError,
    best_split,
    grow_tree,
    leaf_class,
    parse_tree,
    predict,
    predict_batch,
    serialize_tree,
    tree_depth,
    weighted_gini,
)

from oracle_utils import (
    brute_force_best_split,
    brute_force_tree,
    loop_predict,
    node_counts,
    oracle_prune,
)

COSTS = CostMatrix(15.0, 1.0)


def random_dataset(rng, n=None, duplicates=False):
    n = n or int(rng.integers(2, 60))
    X = rng.uniform(2.0, 16.0, size=(n, 2))
    X[:, 1] = rng.uniform(-0.05, 0.12, size=n)
    if duplicates:
        X = np.round(X, 1)
    y = rng.integers(0, 2, size=n)
    return X, y


class TestWeightedGini:
    def test_pure_node_is_zero(self):
        assert weighted_gini(5, 0, COSTS) == 0.0
        assert weighted_gini(0, 7, COSTS) == 0.0

    def test_weights_equalize_at_the_cost_ratio(self):
        assert weighted_gini(15, 1, COSTS) == 0.5

    def test_worked_value(self):
        # p_H = 15*2 / (15*2 + 1*10) = 0.75 -> 2 * 0.75 * 0.25
        assert weighted_gini(10, 2, COSTS) == 0.375

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            weighted_gini(0, 0, COSTS)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_n, n_h = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            if n_n + n_h == 0:
                continue
            g = weighted_gini(n_n, n_h, COSTS)
            assert 0.0 <= g <= 0.5


class TestLeafClass:
    def test_pure_negative(self):
        assert leaf_class(100, 0, COSTS) == "N"

    def test_tie_goes_to_alarm(self):
        assert leaf_class(15, 1, COSTS) == "H"

    def test_worked_value(self):
        assert leaf_class(100, 3, COSTS) == "N"  # 45 < 100

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            leaf_class(0, 0, COSTS)

    def test_assignment_minimizes_expected_cost(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n_n, n_h = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            if n_n + n_h == 0:
                continue
            label = leaf_class(n_n, n_h, COSTS)
            cost_as_n = COSTS.cost_fn * n_h
            cost_as_h = COSTS.cost_fp * n_n
            expected = cost_as_h if label == "H" else cost_as_n
            assert expected <= min(cost_as_n, cost_as_h)


class TestBestSplit:
    def test_perfect_separation(self):
        X = np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
        y = np.array([1, 1, 0, 0])
        cand = best_split(X, y, COSTS)
        assert cand.feature == "x_t"
        assert cand.threshold == 2.5
        assert cand.impurity_decrease == weighted_gini(2, 2, COSTS)

    def test_uniform_labels_yield_nothing(self):
        X = np.array([[1.0, 0], [2.0, 0], [3.0, 0]])
        assert best_split(X, np.zeros(3, dtype=int), COSTS) is None
        assert best_split(X, np.ones(3, dtype=int), COSTS) is None

    def test_single_instance_yields_nothing(self):
        assert best_split(np.array([[1.0, 0.0]]), np.array([1]), COSTS) is None

    def test_constant_features_yield_nothing(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert best_split(X, y, COSTS) is None

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_brute_force(self, duplicates):
        rng = np.random.default_rng(7 if duplicates else 3)
        features = ("x_t", "rate")
        for _ in range(80):
            X, y = random_dataset(rng, duplicates=duplicates)
            rows = [(float(a), float(b), int(c)) for (a, b), c in zip(X, y)]
            expected = brute_force_best_split(rows, COSTS.cost_fn, COSTS.cost_fp)
            got = best_split(X, y, COSTS)
            if expected is None:
                assert got is None
            else:
                assert got.feature == features[expected[0]]
                assert got.threshold == expected[1]
                assert got.impurity_decrease == pytest.approx(expected[2], rel=1e-12)


def _walk(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Split):
            stack.append(node.left)
            stack.append(node.right)


class TestGrowTree:
    def test_single_instance_single_leaf(self):
        tree = grow_tree(np.array([[5.0, 0.1]]), np.array([1]), COSTS)
        assert tree == Leaf("H", 0, 1)

    def test_perfectly_separable_grows_depth_one(self):
        X = np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
        y = np.array([1, 1, 0, 0])
        tree = grow_tree(X, y, COSTS)
        assert isinstance(tree, Split) and tree_depth(tree) == 1
        assert tree.left == Leaf("H", 0, 2)
        assert tree.right == Leaf("N", 2, 0)

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(np.empty((0, 2)), np.array([], dtype=int), COSTS)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(np.array([[np.nan, 0.0], [1.0, 0.0]]), np.array([0, 1]), COSTS)

    def test_midpoint_of_huge_values_stays_finite(self):
        tree = grow_tree([[1.7e308, 0.0], [1.79e308, 0.0]], [0, 1], CostMatrix())
        assert isinstance(tree, Split) and tree_depth(tree) == 1
        assert math.isfinite(tree.threshold) and 1.7e308 < tree.threshold <= 1.79e308
        assert (tree.left, tree.right) == (Leaf("N", 1, 0), Leaf("H", 0, 1))

    def test_determinism_under_shuffling(self):
        rng = np.random.default_rng(5)
        X, y = random_dataset(rng, n=50, duplicates=True)
        reference = serialize_tree(grow_tree(X, y, COSTS))
        for _ in range(5):
            perm = rng.permutation(len(y))
            assert serialize_tree(grow_tree(X[perm], y[perm], COSTS)) == reference

    def test_split_soundness_and_leaf_counts(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            X, y = random_dataset(rng)
            tree = grow_tree(X, y, COSTS)
            assert node_counts(tree) == (int((y == 0).sum()), int((y == 1).sum()))
            for node in _walk(tree):
                if isinstance(node, Split):
                    for child in (node.left, node.right):
                        assert sum(node_counts(child)) >= 1
                else:
                    assert node.n_n + node.n_h >= 1
                    assert node.label == leaf_class(node.n_n, node.n_h, COSTS)


def chain_tree(n_splits):
    """x_t thresholds 1..n, each right child a leaf, a final leaf at the end."""
    node = Leaf("H", 0, 1)
    for i in range(n_splits, 0, -1):
        node = Split("x_t", float(i), node, Leaf("N", 2, 0))
    return node


class TestPrune:
    """The pruning oracle that depth-limited growth is checked against."""

    def test_shallow_tree_unchanged(self):
        tree = chain_tree(2)
        assert oracle_prune(tree, 3, COSTS) == tree

    def test_deep_chain_collapses(self):
        tree = chain_tree(5)
        pruned = oracle_prune(tree, 3, COSTS)
        assert tree_depth(pruned) == 3
        # the two deepest splits merged into one leaf holding their counts
        node = pruned
        for _ in range(3):
            assert isinstance(node, Split)
            node = node.left
        assert node == Leaf("H", node_counts(tree.left.left.left)[0],
                            node_counts(tree.left.left.left)[1])

    def test_depth_bound_holds_on_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            X, y = random_dataset(rng)
            pruned = oracle_prune(grow_tree(X, y, COSTS), 3, COSTS)
            assert tree_depth(pruned) <= 3

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            oracle_prune(Leaf("N", 1, 0), 0, COSTS)

    def test_original_not_mutated(self):
        tree = chain_tree(5)
        before = serialize_tree(tree)
        oracle_prune(tree, 2, COSTS)
        assert serialize_tree(tree) == before


def depth_limit_cases(rng):
    """Random (X, y): plain and rounded-duplicate values, single-class sets
    and single instances."""
    for _ in range(40):
        yield random_dataset(rng)
        yield random_dataset(rng, duplicates=True)
    for label in (0, 1):
        X, _ = random_dataset(rng, duplicates=True)
        yield X, np.full(len(X), label)
        yield X[:1], np.array([label])
    X, _ = random_dataset(rng, n=400, duplicates=True)
    yield X, (X[:, 0] < rng.uniform(4.0, 8.0)).astype(int) ^ (rng.random(400) < 0.1)


class TestDepthLimitedGrowth:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_equals_grow_then_prune(self, depth):
        rng = np.random.default_rng(20 + depth)
        for X, y in depth_limit_cases(rng):
            limited = grow_tree(X, y, COSTS, depth)
            assert serialize_tree(limited) == \
                serialize_tree(oracle_prune(grow_tree(X, y, COSTS), depth, COSTS))
            assert tree_depth(limited) <= depth
            assert node_counts(limited) == (int((y == 0).sum()), int((y == 1).sum()))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_brute_force_tree(self, depth):
        rng = np.random.default_rng(30 + depth)
        for costs in (COSTS, CostMatrix(1.0, 1.0), CostMatrix(1.0, 4.0)):
            for _ in range(15):
                for duplicates in (False, True):
                    X, y = random_dataset(rng, duplicates=duplicates)
                    rows = [(float(a), float(b), int(c)) for (a, b), c in zip(X, y)]
                    assert grow_tree(X, y, costs, depth) == brute_force_tree(rows, costs, depth)

    def test_none_grows_to_purity(self):
        rng = np.random.default_rng(25)
        X, y = random_dataset(rng, n=200)
        tree = grow_tree(X, y, COSTS, None)
        assert tree_depth(tree) > 4
        assert serialize_tree(tree) == serialize_tree(grow_tree(X, y, COSTS))

    @pytest.mark.parametrize("depth", [0, -1])
    def test_bad_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="max_depth"):
            grow_tree(np.array([[5.0, 0.1]]), np.array([1]), COSTS, depth)


class TestPredict:
    def test_high_bg_root_rule(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0))
        assert predict(tree, 8.0, 0.081) == "N"

    def test_single_leaf(self):
        assert predict(Leaf("H", 0, 1), 12.0, -0.5) == "H"

    def test_boundary_goes_right(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0))
        assert predict(tree, 6.45, 0.0) == "N"

    def test_rate_feature_routing(self):
        tree = Split("rate", 0.05, Leaf("N", 5, 0), Leaf("H", 0, 5))
        assert predict(tree, 99.0, 0.049) == "N"
        assert predict(tree, 0.0, 0.05) == "H"

    @pytest.mark.parametrize("x_t,rate", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_rejected(self, x_t, rate):
        with pytest.raises(ValueError):
            predict(Leaf("N", 1, 0), x_t, rate)


def threshold_rows(tree):
    """For each split: rows at its threshold and one float either side, on
    the split's feature, with the other predictor at 0."""
    rows = []
    for node in _walk(tree):
        if isinstance(node, Split):
            col = 0 if node.feature == "x_t" else 1
            for value in (np.nextafter(node.threshold, -np.inf), node.threshold,
                          np.nextafter(node.threshold, np.inf)):
                row = [0.0, 0.0]
                row[col] = value
                rows.append(row)
    return np.array(rows).reshape(-1, 2)


class TestPredictBatch:
    def test_matches_per_row_walk_on_random_trees(self):
        rng = np.random.default_rng(30)
        for case in range(40):
            X, y = random_dataset(rng, duplicates=bool(case % 2))
            tree = grow_tree(X, y, COSTS, None if case % 3 else 3)
            queries = np.vstack([X, random_dataset(rng, n=50)[0], threshold_rows(tree)])
            got = predict_batch(tree, queries)
            assert got.shape == (len(queries),)
            assert list(got) == [loop_predict(tree, a, b) for a, b in queries]
            assert [predict(tree, a, b) for a, b in queries[:10]] == list(got[:10])

    def test_threshold_goes_right(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10),
                     Split("rate", 0.05, Leaf("N", 5, 0), Leaf("H", 0, 5)))
        X = [[6.45, 0.05], [6.45, 0.049], [np.nextafter(6.45, 0.0), 0.05]]
        assert list(predict_batch(tree, X)) == ["H", "N", "H"]

    def test_empty_rows(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0))
        assert predict_batch(tree, np.empty((0, 2))).shape == (0,)
        assert predict_batch(Leaf("N", 1, 0), np.empty((0, 2))).shape == (0,)

    def test_single_leaf_labels_every_row(self):
        assert list(predict_batch(Leaf("H", 0, 1), [[12.0, -0.5], [3.0, 0.2]])) == ["H", "H"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", [0, 1])
    def test_non_finite_row_rejected(self, bad, col):
        X = np.array([[5.0, 0.01], [6.0, 0.02], [7.0, 0.03]])
        X[1, col] = bad
        with pytest.raises(ValueError, match="predictors must be finite"):
            predict_batch(Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0)), X)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            predict_batch(Leaf("N", 1, 0), np.zeros(shape))


class TestSerialization:
    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X, y = random_dataset(rng)
            tree = grow_tree(X, y, COSTS)
            doc = json.loads(json.dumps(serialize_tree(tree)))
            again = parse_tree(doc)
            assert again == tree
            assert serialize_tree(again) == serialize_tree(tree)

    def test_threshold_precision_survives_json(self):
        tree = Split("x_t", 6.449999999123456789, Leaf("H", 0, 1), Leaf("N", 1, 0))
        again = parse_tree(json.loads(json.dumps(serialize_tree(tree))))
        assert again.threshold == tree.threshold

    def test_unknown_feature_rejected_with_path(self):
        doc = {"feature": "x_t", "threshold": 1.0,
               "left": {"feature": "bogus", "threshold": 2.0,
                        "left": {"class": "N", "n_N": 1, "n_H": 0},
                        "right": {"class": "H", "n_N": 0, "n_H": 1}},
               "right": {"class": "N", "n_N": 1, "n_H": 0}}
        with pytest.raises(TreeDocumentError, match=r"\$\.left: unknown feature"):
            parse_tree(doc)

    def test_missing_child_rejected(self):
        doc = {"feature": "x_t", "threshold": 1.0,
               "left": {"class": "N", "n_N": 1, "n_H": 0}}
        with pytest.raises(TreeDocumentError, match="missing"):
            parse_tree(doc)

    def test_extra_keys_rejected(self):
        with pytest.raises(TreeDocumentError):
            parse_tree({"class": "N", "n_N": 1, "n_H": 0, "color": "green"})

    def test_bad_counts_rejected(self):
        with pytest.raises(TreeDocumentError, match="n_N"):
            parse_tree({"class": "N", "n_N": -1, "n_H": 0})
        with pytest.raises(TreeDocumentError, match="n_H"):
            parse_tree({"class": "N", "n_N": 1, "n_H": 1.5})

    def test_non_object_rejected(self):
        with pytest.raises(TreeDocumentError, match=r"\$:"):
            parse_tree([1, 2, 3])

    def test_unknown_class_rejected(self):
        with pytest.raises(TreeDocumentError, match="unknown class"):
            parse_tree({"class": "X", "n_N": 1, "n_H": 0})


class TestCostMatrix:
    def test_defaults(self):
        costs = CostMatrix()
        assert costs.cost_fn == 15.0 and costs.cost_fp == 1.0

    @pytest.mark.parametrize("fn,fp", [(0, 1), (-1, 1), (1, 0), (math.nan, 1)])
    def test_non_positive_rejected(self, fn, fp):
        with pytest.raises(ValueError):
            CostMatrix(fn, fp)

    def test_cost_monotone_alarm_set(self):
        # growing cost_fn can only add leaves to the alarm side
        rng = np.random.default_rng(11)
        for _ in range(40):
            X, y = random_dataset(rng)
            tree = grow_tree(X, y, COSTS)
            leaves = [n for n in _walk(tree) if isinstance(n, Leaf)]
            previous = None
            for cost_fn in (1.0, 5.0, 15.0, 50.0):
                flagged = {i for i, leaf in enumerate(leaves)
                           if leaf_class(leaf.n_n, leaf.n_h, CostMatrix(cost_fn, 1.0)) == "H"}
                if previous is not None:
                    assert previous <= flagged
                previous = flagged
