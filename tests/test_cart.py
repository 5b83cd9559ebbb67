import hashlib
import json
import math
import re

import numpy as np
import pytest

from hypoalarm import (
    CostMatrix,
    DecisionInstance,
    cross_validate,
    grow_tree,
    leaf_class,
    parse_tree,
    alarms,
    predict,
    serialize_tree,
)

from hypoalarm import cart
from hypoalarm.cart import (FEATURES, Leaf, Split, TreeDocumentError, _best_cut,
                            _checked_rows, _gini_and_mass, tree_depth)
from oracle_utils import (
    best_split,
    boundary_scan_best_cut,
    brute_force_best_split,
    brute_force_tree,
    full_scan_best_cut,
    loop_leaf_counts,
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
        assert _gini_and_mass(5, 0, COSTS)[0] == 0.0
        assert _gini_and_mass(0, 7, COSTS)[0] == 0.0

    def test_weights_equalize_at_the_cost_ratio(self):
        assert _gini_and_mass(15, 1, COSTS)[0] == 0.5

    def test_worked_value(self):
        # p_H = 15*2 / (15*2 + 1*10) = 0.75 -> 2 * 0.75 * 0.25
        assert _gini_and_mass(10, 2, COSTS)[0] == 0.375

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_n, n_h = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            if n_n + n_h == 0:
                continue
            g = _gini_and_mass(n_n, n_h, COSTS)[0]
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


def signed_zero_rows():
    """x_t of -5e-324, -0.0 and 0.0, labels H, N, N: the best threshold sits
    between the H row and the zeros, and it is 0.0 whichever zero sorts first."""
    return np.array([[-5e-324, 0.0], [-0.0, 0.0], [0.0, 0.0]]), np.array([1, 0, 0])


class TestBestSplit:
    def test_signed_zeros_give_a_positive_zero_threshold(self):
        X, y = signed_zero_rows()
        for rows in (X, X[[0, 2, 1]]):  # either zero first; y is the same
            cand = best_split(rows, y, COSTS)
            assert (cand.feature, math.copysign(1.0, cand.threshold)) == ("x_t", 1.0)
        assert math.copysign(1.0, X[1, 0]) == -1.0  # the caller's -0.0 stays

    def test_perfect_separation(self):
        X = np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
        y = np.array([1, 1, 0, 0])
        cand = best_split(X, y, COSTS)
        assert cand.feature == "x_t"
        assert cand.threshold == 2.5
        assert cand.impurity_decrease == _gini_and_mass(2, 2, COSTS)[0]

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

    @pytest.mark.parametrize("X,y", [
        ([[math.nan, 0.0], [1.0, 0.0], [2.0, 0.0]], [0, 1, 1]),
        ([[math.inf, 0.0], [1.0, 0.0]], [0, 1]),
        ([[0.0, 0.0], [1.0, 0.0]], [0, 2]),
        ([[0.0], [1.0]], [0, 1]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0, 1]),
        ([[0.0, 0.0], [1.0, 0.0]], [0, 1, 1]),
    ], ids=["nan", "inf", "label_2", "one_column", "three_columns", "misaligned"])
    def test_bad_input_rejected_by_both_growers(self, X, y):
        for grower in (best_split, grow_tree):
            with pytest.raises(ValueError):
                grower(X, y, COSTS)

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
        for X, y in (random_dataset(rng, n=50, duplicates=True), signed_zero_rows()):
            kept = X.tobytes()
            # json.dumps tells a -0.0 threshold from 0.0, which == does not
            reference = json.dumps(serialize_tree(grow_tree(X, y, COSTS)))
            perms = [rng.permutation(len(y)) for _ in range(5)] + [np.arange(len(y))[::-1]]
            for perm in perms:
                assert json.dumps(serialize_tree(grow_tree(X[perm], y[perm], COSTS))) == reference
            assert X.tobytes() == kept
        tree = grow_tree(*signed_zero_rows(), COSTS)
        assert math.copysign(1.0, tree.threshold) == 1.0

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


def tie_heavy_dataset(rng, n):
    """(X, y) with what a boundary-cut search can get wrong: values on a
    coarse grid (tie groups holding both classes), labels in long pure
    blocks along x_t, signed zeros, and at times a constant column or a
    single class."""
    step = rng.choice([1.0, 0.25, 1e-3])
    X = rng.integers(-3, int(rng.choice([4, 12, n + 4])), size=(n, 2)) * step
    if rng.random() < 0.5:
        blocks = int(rng.integers(1, 6))
        y = (np.floor(X[:, 0] / step) // blocks % 2).astype(int)
        y ^= rng.random(n) < rng.choice([0.0, 0.05])
    else:
        y = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    X[rng.random((n, 2)) < 0.1] = -0.0
    if rng.random() < 0.2:
        X[:, int(rng.integers(2))] = rng.choice([-0.0, 0.0, 4.5])
    if rng.random() < 0.1:
        y[:] = rng.integers(2)
    return X, y


BOUNDARY_COSTS = (CostMatrix(1.0, 1.0), CostMatrix(3.7, 1.0), CostMatrix(15.0, 1.0))


class TestBoundaryCuts:
    """The split search scores only cuts next to a mixed value group or
    between pure groups of different classes; it must pick the cut, the
    threshold and the decrease of a scan over every cut, bit for bit."""

    @pytest.mark.parametrize("costs", BOUNDARY_COSTS, ids=lambda c: f"fn{c.cost_fn}")
    def test_matches_the_full_scan_bit_for_bit(self, costs):
        rng = np.random.default_rng(int(costs.cost_fn * 10))
        for n in [2, 3, 5, 40, 300, 3000] * 40:
            X, y = tie_heavy_dataset(rng, n)
            Z = X + 0.0
            expected = full_scan_best_cut(Z, y, np.argsort(Z, axis=0).T, costs)
            got = best_split(X, y, costs)
            if expected is None:
                assert got is None
            else:
                fi, _, threshold, decrease, _ = expected
                assert (got.feature, got.threshold, got.impurity_decrease) == \
                    (FEATURES[fi], threshold, decrease)
                assert repr(got.threshold) != "-0.0"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_trees_match_brute_force(self, depth):
        rng = np.random.default_rng(40 + depth)
        for costs in BOUNDARY_COSTS:
            for _ in range(12):
                X, y = tie_heavy_dataset(rng, int(rng.integers(2, 50)))
                rows = [(float(a), float(b), int(c)) for (a, b), c in zip(X + 0.0, y)]
                assert grow_tree(X, y, costs, depth) == brute_force_tree(rows, costs, depth)

    def test_adjacent_floats_split_at_the_upper_value(self):
        # the midpoint of two adjacent floats rounds down to the lower one
        hi = math.nextafter(1.0, 2.0)
        X, y = np.array([[1.0, 0.0], [hi, 0.0]]), np.array([1, 0])
        tree = grow_tree(X, y, COSTS)
        assert (tree.feature, tree.threshold) == ("x_t", hi)
        assert alarms(tree, X).tolist() == [True, False]


def presort(X, rows):
    """Both columns of X sorted, kept to `rows`: the `_presort` of grow_tree."""
    order = np.argsort(X, axis=0).T
    keep = np.zeros(len(X), dtype=bool)
    keep[rows] = True
    return order[keep[order]].reshape(2, -1)


class TestPresortedGrowth:
    @pytest.mark.parametrize("depth", [1, 2, 3, None])
    def test_equals_growth_on_the_subset(self, depth):
        rng = np.random.default_rng(50 if depth is None else 50 + depth)
        for _ in range(25):
            X, y = tie_heavy_dataset(rng, int(rng.integers(2, 300)))
            rows = np.flatnonzero(rng.random(len(y)) < rng.uniform(0.1, 1.0))
            if rows.size == 0:
                continue
            expected = serialize_tree(grow_tree(X[rows], y[rows], COSTS, depth))
            got = serialize_tree(grow_tree(*_checked_rows(X, y), COSTS, depth,
                                           _presort=presort(X, rows)))
            assert json.dumps(got) == json.dumps(expected)

    def test_ties_may_come_in_any_order(self):
        X = np.array([[1.0, 0.5], [1.0, 0.5], [2.0, 0.5], [-0.0, 0.5], [0.0, 0.1]])
        y = np.array([1, 0, 0, 1, 1])
        order = np.array([[4, 3, 1, 0, 2], [4, 2, 1, 0, 3]])
        assert grow_tree(*_checked_rows(X, y), COSTS, _presort=order) == grow_tree(X, y, COSTS)

    def test_presort_is_keyword_only(self):
        # no public `order`: a presort passed positionally or by that name is refused
        X = np.array([[1.0, 0.3], [2.0, 0.2], [3.0, 0.1]])
        y = np.array([1, 0, 1])
        order = presort(X, np.arange(3))
        with pytest.raises(TypeError):
            grow_tree(X, y, COSTS, None, order)
        with pytest.raises(TypeError):
            grow_tree(X, y, COSTS, order=order)


def continuous_dataset(rng, n):
    """(X, y) with distinct values in both columns and a random class mix."""
    X = np.column_stack([rng.uniform(2.0, 16.0, n), rng.uniform(-0.05, 0.12, n)])
    return X, (rng.random(n) < rng.uniform(0.02, 0.6)).astype(int)


#: Cost ratios from one where N dominates to 1e6, where a node holding a
#: single H row has only decreases at rounding noise.
RATIO_COSTS = tuple(CostMatrix(ratio, 1.0) for ratio in (1e-3, 1.0, 15.0, 1e4, 1e6))


class CountingArray(np.ndarray):
    """An array that records the size of each read through indexing and
    hands out plain arrays."""

    def __getitem__(self, key):
        out = np.asarray(self)[key]
        self.reads.append(np.size(out))
        return out


def value_reads(X, y, costs):
    """`_best_cut` over all rows of (X, y) and the sizes of its reads of X."""
    counted = X.view(CountingArray)
    counted.reads = []
    return _best_cut(counted, y, np.argsort(X, axis=0).T, costs), counted.reads


class TestChangeKernel:
    """`_best_cut` finds its cuts from a node's class changes alone; it must
    return the tuple of the boundary scan over every row, bit for bit, at
    every cost ratio, including the ratio where the full scan may differ."""

    @pytest.mark.parametrize("costs", RATIO_COSTS, ids=lambda c: f"ratio{c.cost_fn:g}")
    @pytest.mark.parametrize("dataset", [tie_heavy_dataset, continuous_dataset],
                             ids=["ties", "continuous"])
    def test_matches_the_boundary_scan(self, costs, dataset):
        rng = np.random.default_rng(int(np.log10(costs.cost_fn)) + 70)
        for n in [2, 3, 5, 40, 300, 3000] * 12:
            X, y = dataset(rng, n)
            X = X + 0.0
            rows = np.flatnonzero(rng.random(n) < rng.uniform(0.1, 1.0))
            for order in (np.argsort(X, axis=0).T, presort(X, rows)):
                if order.shape[1]:
                    expected = boundary_scan_best_cut(X, y, order, costs)
                    assert _best_cut(X, y.astype(bool), order, costs) == expected
                    assert _best_cut(X, y, order, costs) == expected

    @pytest.mark.parametrize("x_t,rate,y,expected", [
        ([1, 1, 2, 3, 4], [0] * 5, [0, 1, 0, 0, 0], (0, 2, 1.5, 1)),
        ([1, 2, 3, 4, 4], [0] * 5, [0, 0, 0, 0, 1], (0, 3, 3.5, 0)),
        ([5] * 4, [0.4, 0.1, 0.3, 0.2], [0, 1, 0, 1], (1, 2, 0.25, 2)),
        (range(10), [0] * 10, [0] * 6 + [1] + [0] * 3, (0, 6, 5.5, 0)),
        ([2, 2, 2, 2], [7, 7, 7, 7], [0, 1, 1, 0], None),
    ], ids=["tie_run_at_first_rows", "tie_run_at_last_rows", "constant_column",
            "single_minority_row", "all_tied"])
    def test_edge_cases(self, x_t, rate, y, expected):
        X, y = np.column_stack([x_t, rate]).astype(float), np.array(y)
        order = np.argsort(X, axis=0).T
        for costs in RATIO_COSTS:
            assert _best_cut(X, y, order, costs) == boundary_scan_best_cut(X, y, order, costs)
        found = _best_cut(X, y, order, COSTS)
        assert (found if found is None else (*found[:3], found[4])) == expected

    def test_reads_values_only_at_changes(self):
        rng = np.random.default_rng(77)
        X, y = continuous_dataset(rng, 500)
        found, reads = value_reads(X, y, COSTS)
        assert found == boundary_scan_best_cut(X, y, np.argsort(X, axis=0).T, COSTS)
        assert reads and max(reads) < 500
        X[:, 0] = np.round(X[:, 0])  # class changes inside runs of equal x_t
        found, reads = value_reads(X, y, COSTS)
        assert found == boundary_scan_best_cut(X, y, np.argsort(X, axis=0).T, COSTS)
        assert reads.count(500) == 1  # the x_t column, once


class TestLastLevelLeaves:
    """A split one level above `max_depth` builds its leaves from the cut's
    counts; every leaf must still hold exactly the training rows routed to it."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, None])
    def test_leaf_counts_equal_the_routed_rows(self, depth):
        rng = np.random.default_rng(80 if depth is None else 80 + depth)
        for case in range(40):
            dataset = (tie_heavy_dataset, continuous_dataset)[case % 2]
            X, y = dataset(rng, int(rng.integers(2, 120)))
            rows = np.flatnonzero(rng.random(len(y)) < rng.uniform(0.2, 1.0))
            grown = [(grow_tree(X, y, COSTS, depth), X, y)]
            if rows.size:
                grown.append((grow_tree(*_checked_rows(X, y), COSTS, depth,
                                        _presort=presort(X, rows)), X[rows], y[rows]))
            for tree, X_train, y_train in grown:
                for leaf, n_n, n_h in loop_leaf_counts(tree, X_train, y_train):
                    assert (leaf.n_n, leaf.n_h) == (n_n, n_h)
                    assert n_n + n_h >= 1 and leaf.label == leaf_class(n_n, n_h, COSTS)
                if depth is not None and depth <= 3:
                    train = [(float(a), float(b), int(c))
                             for (a, b), c in zip(X_train + 0.0, y_train)]
                    assert tree == brute_force_tree(train, COSTS, depth)


@pytest.fixture
def grow_calls(monkeypatch):
    """(depth, max_depth, H rows, rows) of every `_grow` call, in call order."""
    calls, grow = [], cart._grow

    def recorded(X, y, order, n_h, costs, max_depth, depth=0):
        calls.append((depth, max_depth, n_h, order.shape[1]))
        return grow(X, y, order, n_h, costs, max_depth, depth)

    monkeypatch.setattr(cart, "_grow", recorded)
    return calls


def tree_digest(trees):
    return hashlib.sha256(json.dumps([serialize_tree(t) for t in trees]).encode()).hexdigest()


#: SHA-256 of each case's trees as `serialize_tree` documents, taken from the
#: growth that partitioned every child that was not at the depth limit, pure
#: ones too.
ONE_LEAF_RULE_DIGESTS = {
    1: "0709abbc888032c0485f8a73c88d6b7650f49232e2e199a80fbfb82294994e76",
    2: "a0193db8f8a5995db958b3450d69484719046643ff275e5a7a433bf67b7822e2",
    3: "056391044ab547252dd70871b7a0b42ba1f5a26acb9adfd279aab2e035a51e18",
    4: "c0f254619120b2a359d0e99cfaf99dc492229d766faadd78fb79e33e7b10187d",
    None: "9bb81ebbf4880f18bdd75354c0deb597562197613496743b15768573ea822356",
    "cross_validate": "47d210ca1b6452f538d52e34515c91ef9293726df78a936bca17fab32cbb3e4d",
}


class TestOneLeafRule:
    """A child that holds one class or sits at `max_depth` is a leaf built
    from its cut's counts: `_grow` is entered below the root only for a
    child that can split, and the trees stay those of the growth that
    partitioned every child."""

    @staticmethod
    def assert_only_splittable_children(calls):
        below_root = [call for call in calls if call[0] > 0]
        for depth, max_depth, n_h, n in below_root:
            assert 0 < n_h < n and (max_depth is None or depth < max_depth)
        return len(below_root)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, None])
    def test_grow_enters_only_children_that_can_split(self, grow_calls, depth):
        rng = np.random.default_rng(90 if depth is None else 90 + depth)
        trees = []
        for case in range(40):
            dataset = (tie_heavy_dataset, continuous_dataset)[case % 2]
            X, y = dataset(rng, int(rng.integers(2, 300)))
            trees.append(grow_tree(X, y, COSTS, depth))
        entered = self.assert_only_splittable_children(grow_calls)
        assert (entered > 0) == (depth != 1)
        assert tree_digest(trees) == ONE_LEAF_RULE_DIGESTS[depth]

    def test_cross_validation_trees(self, grow_calls):
        rng = np.random.default_rng(95)
        X, y = tie_heavy_dataset(rng, 400)
        instances = [DecisionInstance(f"p{i % 9}", 0.0, 30.0, 12.0, 120.0 + i, float(a),
                                      float(b), int(c), 5.0)
                     for i, ((a, b), c) in enumerate(zip(X, y))]
        report = cross_validate(instances, seed=3)
        assert self.assert_only_splittable_children(grow_calls) > 0
        assert tree_digest(run.tree for run in report.runs) == \
            ONE_LEAF_RULE_DIGESTS["cross_validate"]


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


class TestAlarms:
    def test_matches_per_row_walk_on_random_trees(self):
        rng = np.random.default_rng(30)
        for case in range(40):
            X, y = random_dataset(rng, duplicates=bool(case % 2))
            tree = grow_tree(X, y, COSTS, None if case % 3 else 3)
            queries = np.vstack([X, random_dataset(rng, n=50)[0], threshold_rows(tree)])
            got = alarms(tree, queries)
            assert (got.dtype, got.shape) == (np.bool_, (len(queries),))
            assert got.tolist() == [loop_predict(tree, a, b) == "H" for a, b in queries]
            assert [predict(tree, a, b) for a, b in queries[:10]] == \
                ["H" if alarm else "N" for alarm in got[:10]]

    def test_threshold_goes_right(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10),
                     Split("rate", 0.05, Leaf("N", 5, 0), Leaf("H", 0, 5)))
        X = [[6.45, 0.05], [6.45, 0.049], [np.nextafter(6.45, 0.0), 0.05]]
        assert alarms(tree, X).tolist() == [True, False, True]

    def test_empty_rows(self):
        tree = Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0))
        assert alarms(tree, np.empty((0, 2))).shape == (0,)
        assert alarms(Leaf("N", 1, 0), np.empty((0, 2))).shape == (0,)

    def test_single_leaf_labels_every_row(self):
        assert alarms(Leaf("H", 0, 1), [[12.0, -0.5], [3.0, 0.2]]).tolist() == [True, True]
        assert alarms(Leaf("N", 1, 0), [[12.0, -0.5], [3.0, 0.2]]).tolist() == [False, False]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", [0, 1])
    def test_non_finite_row_rejected(self, bad, col):
        X = np.array([[5.0, 0.01], [6.0, 0.02], [7.0, 0.03]])
        X[1, col] = bad
        with pytest.raises(ValueError, match="predictors must be finite"):
            alarms(Split("x_t", 6.45, Leaf("H", 1, 10), Leaf("N", 50, 0)), X)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            alarms(Leaf("N", 1, 0), np.zeros(shape))


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
        split = {"feature": "x_t", "threshold": 1.0, "color": "green",
                 "left": {"class": "N", "n_N": 1, "n_H": 0},
                 "right": {"class": "H", "n_N": 0, "n_H": 1}}
        with pytest.raises(TreeDocumentError, match=re.escape(
                "$: split must have exactly keys ['feature', 'left', 'right', 'threshold']")):
            parse_tree(split)

    def test_bad_counts_rejected(self):
        with pytest.raises(TreeDocumentError, match="n_N"):
            parse_tree({"class": "N", "n_N": -1, "n_H": 0})
        with pytest.raises(TreeDocumentError, match="n_H"):
            parse_tree({"class": "N", "n_N": 1, "n_H": 1.5})

    def test_non_object_rejected(self):
        with pytest.raises(TreeDocumentError, match=r"\$:"):
            parse_tree([1, 2, 3])
        with pytest.raises(TreeDocumentError, match=r"^\$: neither a split nor a leaf$"):
            parse_tree({})

    def test_unknown_class_rejected(self):
        with pytest.raises(TreeDocumentError, match="unknown class"):
            parse_tree({"class": "X", "n_N": 1, "n_H": 0})

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 10**400, True, "1.0"],
                             ids=["nan", "infinity", "int_past_float", "bool", "string"])
    def test_threshold_that_is_no_finite_number_rejected(self, threshold):
        doc = {"feature": "x_t", "threshold": threshold,
               "left": {"class": "N", "n_N": 1, "n_H": 0},
               "right": {"class": "H", "n_N": 0, "n_H": 1}}
        with pytest.raises(TreeDocumentError, match=r"^\$: threshold must be a finite number$"):
            parse_tree(doc)


class TestCostMatrix:
    def test_defaults(self):
        costs = CostMatrix()
        assert costs.cost_fn == 15.0 and costs.cost_fp == 1.0

    @pytest.mark.parametrize("fn,fp", [(0, 1), (-1, 1), (1, 0), (math.nan, 1),
                                       pytest.param(10**400, 1, id="int_past_float-1")])
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
