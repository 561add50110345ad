import csv
import dataclasses

import numpy as np
import pytest

from conftest import masked_coalitions, synthetic_panel
from wqpanel.elastic_net import ElasticNetConfig, fit_elastic_net, predict_linear
from wqpanel.families import FAMILIES
from wqpanel.features import (DesignMatrix, Strategy, StrategyConfig, assemble_design,
                              fit_standardizer, numeric_block)
from wqpanel.mlp import MLPConfig, fit_mlp, predict_mlp
from wqpanel.panel import stack_panel
from wqpanel.shap_exact import (DEFAULT_PLAYER_CAP, MarginalValueFunction,
                                RetrainValueFunction, ensemble_shap, exact_shap,
                                linear_shap, mean_abs_shap, mlp_coalition_values,
                                players_from_design, sample_background,
                                shap_for_dataset, write_mean_abs_csv, write_values_csv)
from wqpanel.trees import (Ensemble, EnsembleKind, GBDTConfig, GossConfig,
                           RegressionTree, RFConfig, fit_gbdt, fit_random_forest,
                           predict_ensemble)


def brute_force_shap(value_of_subset, m):
    """Direct transcription of the weighted-marginal-contribution formula."""
    import itertools
    import math

    phi = np.zeros(m)
    players = list(range(m))
    for i in players:
        others = [p for p in players if p != i]
        for size in range(m):
            for subset in itertools.combinations(others, size):
                w = math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)
                phi[i] += w * (value_of_subset(frozenset(subset) | {i})
                               - value_of_subset(frozenset(subset)))
    return phi


def marginal_vf(predict, background, **kwargs):
    """A value function that enumerates by masking (the test oracle)."""
    return MarginalValueFunction(predict=predict, background=background,
                                 coalitions=masked_coalitions(predict), **kwargs)


def test_constant_model_all_zero():
    bg = np.random.default_rng(0).standard_normal((20, 4))
    vf = marginal_vf(lambda A: np.full(len(A), 3.3), bg)
    attr = exact_shap(vf, np.zeros(4))
    np.testing.assert_allclose(attr.phi, 0.0, atol=1e-12)
    assert attr.base_value == pytest.approx(3.3)
    assert attr.f_x == pytest.approx(3.3)


def test_additive_model_closed_form():
    rng = np.random.default_rng(1)
    bg = rng.standard_normal((50, 5))
    vf = marginal_vf(lambda A: A.sum(axis=1), bg)
    x = rng.standard_normal(5)
    attr = exact_shap(vf, x)
    np.testing.assert_allclose(attr.phi, x - bg.mean(axis=0), atol=1e-12)
    assert attr.base_value + attr.phi.sum() == pytest.approx(attr.f_x, abs=1e-9)


def test_matches_brute_force_formula():
    rng = np.random.default_rng(2)
    bg = rng.standard_normal((16, 4))
    coef = np.array([1.0, -2.0, 0.5, 3.0])

    def predict(A):
        return A @ coef + 0.2 * A[:, 0] * A[:, 1]

    x = rng.standard_normal(4)
    vf = marginal_vf(predict, bg)
    attr = exact_shap(vf, x)

    def value_of_subset(subset):
        mixed = np.tile(bg, (1, 1))
        mixed = bg.copy()
        for j in subset:
            mixed[:, j] = x[j]
        return float(predict(mixed).mean())

    expected = brute_force_shap(value_of_subset, 4)
    np.testing.assert_allclose(attr.phi, expected, atol=1e-10)


def test_symmetry_for_duplicated_features():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((30, 1))
    bg = np.column_stack([base, base, rng.standard_normal(30)])
    vf = marginal_vf(lambda A: A[:, 0] + A[:, 1] + 0.5 * A[:, 2], bg)
    x = np.array([0.7, 0.7, -0.2])
    attr = exact_shap(vf, x)
    assert attr.phi[0] == pytest.approx(attr.phi[1], abs=1e-9)


def test_dummy_feature_gets_zero():
    rng = np.random.default_rng(4)
    bg = rng.standard_normal((25, 3))
    model = fit_elastic_net(bg, bg @ [2.0, 0.0, -1.0],
                            ElasticNetConfig(lam=0.5, alpha=1.0))
    assert model.coefficients[1] == 0.0  # lasso kills the dead feature
    vf = marginal_vf(lambda A: predict_linear(model, A), bg)
    attr = exact_shap(vf, rng.standard_normal(3))
    assert abs(attr.phi[1]) < 1e-9


def test_linearity_of_attributions():
    rng = np.random.default_rng(5)
    bg = rng.standard_normal((20, 3))
    f_coef = np.array([1.0, 2.0, -0.5])
    g_coef = np.array([-0.3, 0.7, 1.1])
    x = rng.standard_normal(3)
    phi_f = exact_shap(marginal_vf(lambda A: A @ f_coef, bg), x).phi
    phi_g = exact_shap(marginal_vf(lambda A: A @ g_coef, bg), x).phi
    phi_sum = exact_shap(marginal_vf(lambda A: A @ (f_coef + g_coef), bg), x).phi
    np.testing.assert_allclose(phi_f + phi_g, phi_sum, atol=1e-9)


def test_efficiency_for_every_row():
    rng = np.random.default_rng(6)
    bg = rng.standard_normal((32, 4))
    vf = marginal_vf(lambda A: np.tanh(A).sum(axis=1), bg)
    X = rng.standard_normal((6, 4))
    for attr in shap_for_dataset(vf, X):
        assert attr.base_value + attr.phi.sum() == pytest.approx(attr.f_x, abs=1e-9)


def test_marginalize_and_retrain_agree_on_orthogonal_linear_fixture():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((40, 3))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    X = q[:, :3] * np.array([2.0, 1.5, 0.8])  # centered orthogonal columns
    coef = np.array([1.2, -0.7, 2.0])
    y = 1.5 + X @ coef  # noiseless

    def fit(Xs, ys):
        return fit_elastic_net(Xs, ys, ElasticNetConfig(lam=0.0, tol=1e-12,
                                                        max_iter=20000))

    x = X[4]
    retrain = RetrainValueFunction(fit=fit, predict=predict_linear,
                                   X_train=X, y_train=y)
    full_model = fit(X, y)
    marginal = marginal_vf(lambda A: predict_linear(full_model, A), X)
    phi_r = exact_shap(retrain, x).phi
    phi_m = exact_shap(marginal, x).phi
    np.testing.assert_allclose(phi_r, phi_m, atol=1e-6)


def test_retrain_base_value_is_train_mean():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    vf = RetrainValueFunction(
        fit=lambda Xs, ys: fit_elastic_net(Xs, ys, ElasticNetConfig(lam=0.0)),
        predict=predict_linear, X_train=X, y_train=y)
    attr = exact_shap(vf, X[0])
    assert attr.base_value == pytest.approx(float(y.mean()), abs=1e-12)


def test_retrain_refits_each_coalition_once_across_rows():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 4))
    y = 0.5 + X @ [1.0, -0.5, 0.25, 2.0] + 0.1 * rng.standard_normal(30)
    fits = []

    def fit(Xs, ys):
        fits.append(Xs.shape[1])
        return fit_elastic_net(Xs, ys, ElasticNetConfig(lam=1e-3))

    vf = RetrainValueFunction(fit=fit, predict=predict_linear, X_train=X, y_train=y)
    shared = shap_for_dataset(vf, X[:3])
    assert len(fits) == 2 ** 4 - 1  # every non-empty coalition, once
    for row, attr in enumerate(shared):
        fresh = exact_shap(RetrainValueFunction(fit=fit, predict=predict_linear,
                                                X_train=X, y_train=y), X[row])
        assert attr.phi.tobytes() == fresh.phi.tobytes()
        assert (attr.base_value, attr.f_x) == (fresh.base_value, fresh.f_x)


def test_player_cap_enforced():
    bg = np.zeros((4, 16))
    vf = marginal_vf(lambda A: A.sum(axis=1), bg)
    with pytest.raises(ValueError, match="cap"):
        exact_shap(vf, np.zeros(16))


def test_solver_needs_every_column_in_one_player():
    for players in ([[0], [1]], [[0, 1], [1, 2]]):
        with pytest.raises(ValueError, match="exactly one player"):
            MarginalValueFunction(predict=lambda A: A.sum(axis=1),
                                  background=np.zeros((4, 3)), player_columns=players,
                                  solver=lambda x, bg, cols: np.zeros(len(cols)))
        with pytest.raises(ValueError, match="exactly one player"):
            marginal_vf(lambda A: A.sum(axis=1), np.zeros((4, 3)), player_columns=players)


def test_value_function_needs_exactly_one_hook():
    def predict(A):
        return A.sum(axis=1)

    def solver(x, bg, cols):
        return np.zeros(len(cols))

    for hooks in ({}, {"solver": solver, "coalitions": masked_coalitions(predict)}):
        with pytest.raises(ValueError, match="exactly one of solver and coalitions"):
            MarginalValueFunction(predict=predict, background=np.zeros((4, 3)), **hooks)


def test_empty_background_rejected():
    with pytest.raises(ValueError, match="background"):
        marginal_vf(lambda A: A.sum(axis=1), np.empty((0, 3)))


def test_grouped_players_toggle_whole_blocks():
    rng = np.random.default_rng(9)
    # columns: 1 numeric + a 3-column one-hot block
    bg_label = rng.integers(0, 3, size=30)
    bg = np.column_stack([rng.standard_normal(30),
                          np.eye(3)[bg_label]])
    coef = np.array([2.0, 1.0, -1.0, 0.5])
    vf = marginal_vf(lambda A: A @ coef, bg,
                     player_columns=[[0], [1, 2, 3]], player_names=("num", "block"))
    x = np.array([0.4, 0.0, 1.0, 0.0])
    attr = exact_shap(vf, x)
    assert attr.feature_names == ("num", "block")
    assert attr.base_value + attr.phi.sum() == pytest.approx(attr.f_x, abs=1e-9)
    # with 2 players the exact value is the average of the two orderings
    v_num = 2.0 * (x[0] - bg[:, 0].mean())
    assert attr.phi[0] == pytest.approx(v_num, abs=1e-9)


def test_mean_abs_ranking_hand_fixture():
    from wqpanel.shap_exact import ShapAttribution

    rows = [ShapAttribution(feature_names=("a", "b"), phi=np.array([1.0, -1.0]),
                            base_value=0.0, f_x=0.0),
            ShapAttribution(feature_names=("a", "b"), phi=np.array([0.5, 0.0]),
                            base_value=0.0, f_x=0.5)]
    ranking = mean_abs_shap(rows)
    assert ranking == [("a", 0.75), ("b", 0.5)]


def test_mean_abs_all_zero_keeps_index_order():
    from wqpanel.shap_exact import ShapAttribution

    rows = [ShapAttribution(feature_names=("a", "b", "c"), phi=np.zeros(3),
                            base_value=0.0, f_x=0.0)]
    assert [name for name, _ in mean_abs_shap(rows)] == ["a", "b", "c"]
    with pytest.raises(ValueError):
        mean_abs_shap([])


def test_players_from_design_groups_one_hot_blocks():
    X = np.column_stack([np.arange(4.0), np.eye(4)[:, :2][([0, 1, 0, 1],)]])
    design = DesignMatrix(column_names=("X1", "g=a", "g=b"),
                          X=np.column_stack([np.arange(4.0),
                                             [1, 0, 1, 0], [0, 1, 0, 1]]),
                          y=np.zeros(4), kinds=("numeric", "one_hot", "one_hot"),
                          groups={"g": [1, 2]})
    names, columns = players_from_design(design)
    assert names == ("X1", "g")
    assert columns == [[0], [1, 2]]


def test_sample_background_seeded_and_bounded():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((100, 3))
    a = sample_background(X, 16, seed=5)
    b = sample_background(X, 16, seed=5)
    assert a.shape == (16, 3)
    np.testing.assert_array_equal(a, b)
    small = sample_background(X[:8], 16, seed=5)
    np.testing.assert_array_equal(small, X[:8])


def test_csv_writers(tmp_path):
    rng = np.random.default_rng(11)
    bg = rng.standard_normal((10, 2))
    vf = marginal_vf(lambda A: A.sum(axis=1), bg)
    X = rng.standard_normal((2, 2))
    attrs = shap_for_dataset(vf, X)

    mean_path = tmp_path / "shap_mean_abs.csv"
    values_path = tmp_path / "shap_values.csv"
    write_mean_abs_csv(mean_path, mean_abs_shap(attrs))
    write_values_csv(values_path, attrs, X, [[0], [1]])

    with open(mean_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and set(rows[0]) == {"feature", "mean_abs_shap"}

    with open(values_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert float(rows[0]["value"]) == pytest.approx(X[0, 0])
    assert float(rows[0]["phi"]) == pytest.approx(attrs[0].phi[0])


# ---------------------------------------------- polynomial exact solvers

def solved_and_enumerated(predict, solver, background, x, players=None):
    """(solver attribution, 2^M enumeration attribution) for one row."""
    players = players or [[c] for c in range(background.shape[1])]
    common = dict(predict=predict, background=background, player_columns=players)
    solved = exact_shap(MarginalValueFunction(solver=solver, **common), x)
    enumerated = exact_shap(MarginalValueFunction(coalitions=masked_coalitions(predict),
                                                  **common), x)
    return solved, enumerated


def assert_tree_solver_exact(model, background, X, players=None):
    for x in X:
        solved, enumerated = solved_and_enumerated(
            lambda A: predict_ensemble(model, A),
            lambda *a: ensemble_shap(model, *a), background, x, players)
        np.testing.assert_allclose(solved.phi, enumerated.phi, rtol=0, atol=1e-9)
        assert solved.base_value == pytest.approx(enumerated.base_value, abs=1e-9)
        assert solved.f_x == pytest.approx(enumerated.f_x, abs=1e-9)
        assert abs(solved.base_value + solved.phi.sum() - solved.f_x) <= 1e-9


def tree_data(seed, n=80, d=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    y = X @ np.linspace(1.0, 0.2, d) + np.sin(5 * X[:, 0]) * X[:, 1]
    return X, y


def arena(feature, threshold, left, right, value):
    """A hand-written RegressionTree from node lists."""
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=float),
        n_samples=np.ones(len(feature), dtype=np.int64), gain=np.zeros(len(feature)))


def single_tree(tree, kind=EnsembleKind.RANDOM_FOREST):
    return Ensemble(kind=kind, base_score=0.0, trees=(tree,))


@pytest.mark.parametrize("name,fit", [
    ("random_forest", lambda X, y: fit_random_forest(
        X, y, RFConfig(n_trees=6, max_depth=5, max_features=2, bootstrap=True, seed=1))),
    ("gbdt", lambda X, y: fit_gbdt(X, y, GBDTConfig(n_trees=8, max_depth=3, seed=2))),
    ("gbdt_goss", lambda X, y: fit_gbdt(X, y, GBDTConfig(
        n_trees=8, max_depth=4, goss=GossConfig(0.2, 0.3), seed=3))),
])
def test_tree_solver_matches_enumeration(name, fit):
    X, y = tree_data(20)
    model = fit(X, y)
    assert_tree_solver_exact(model, X[:24], X[60:64])


def test_tree_solver_grouped_one_hot_players():
    rng = np.random.default_rng(21)
    label = rng.integers(0, 3, size=90)
    X = np.column_stack([rng.uniform(0, 1, (90, 2)), np.eye(3)[label]])
    y = X[:, 0] + np.array([0.0, 1.0, -0.5])[label] + 0.3 * X[:, 1] * (label == 2)
    model = fit_gbdt(X, y, GBDTConfig(n_trees=10, max_depth=3, seed=4))
    assert {2, 3, 4} & set(t for tree in model.trees for t in tree.feature.tolist())
    assert_tree_solver_exact(model, X[:20], X[70:75], players=[[0], [1], [2, 3, 4]])


def test_tree_solver_player_split_twice_on_one_path():
    # root: x0 <= 0.5; its left child splits x1, whose left child re-splits x0
    tree = arena(feature=[0, 1, -1, 0, -1, -1, -1],
                 threshold=[0.5, 0.5, np.nan, 0.2, np.nan, np.nan, np.nan],
                 left=[1, 3, -1, 5, -1, -1, -1], right=[2, 4, -1, 6, -1, -1, -1],
                 value=[0, 0, 4.0, 0, 2.0, -1.0, 3.0])
    model = single_tree(tree)
    bg = np.array([[0.1, 0.1], [0.3, 0.9], [0.7, 0.2], [0.4, 0.3], [0.9, 0.9]])
    X = np.array([[0.1, 0.2], [0.35, 0.1], [0.8, 0.6]])
    assert_tree_solver_exact(model, bg, X)

    x = X[1]

    def value_of_subset(subset):
        mixed = bg.copy()
        for j in subset:
            mixed[:, j] = x[j]
        return float(predict_ensemble(model, mixed).mean())

    np.testing.assert_allclose(ensemble_shap(model, x, bg, [[0], [1]]),
                               brute_force_shap(value_of_subset, 2), rtol=0, atol=1e-12)


def test_tree_solver_two_columns_of_one_group_on_one_path():
    # x1 and x2 form one player; the path to every deep leaf tests both
    tree = arena(feature=[1, 2, 0, -1, -1, -1, -1],
                 threshold=[0.5, 0.5, 0.5, np.nan, np.nan, np.nan, np.nan],
                 left=[1, 3, 5, -1, -1, -1, -1], right=[2, 4, 6, -1, -1, -1, -1],
                 value=[0, 0, 0, 1.0, -2.0, 0.5, 5.0])
    model = single_tree(tree, kind=EnsembleKind.GBDT)
    rng = np.random.default_rng(22)
    bg = rng.uniform(0, 1, (12, 3))
    assert_tree_solver_exact(model, bg, rng.uniform(0, 1, (4, 3)), players=[[0], [1, 2]])


def test_tree_solver_degenerate_ensembles():
    X, y = tree_data(23, d=3)
    stump = arena(feature=[-1], threshold=[np.nan], left=[-1], right=[-1], value=[0.7])
    empty_gbdt = fit_gbdt(X, y, GBDTConfig(n_trees=0))
    for model in (single_tree(stump), empty_gbdt):
        phi = ensemble_shap(model, X[0], X[:10], [[0], [1], [2]])
        assert phi.tolist() == [0.0, 0.0, 0.0]
        assert_tree_solver_exact(model, X[:10], X[:2])


def test_tree_solver_background_equal_to_x():
    X, y = tree_data(24, d=4)
    model = fit_gbdt(X, y, GBDTConfig(n_trees=5, max_depth=3, seed=5))
    x = X[3]
    assert ensemble_shap(model, x, np.tile(x, (6, 1)), [[c] for c in range(4)]).tolist() \
        == [0.0] * 4
    assert_tree_solver_exact(model, np.vstack([np.tile(x, (3, 1)), X[10:15]]), X[3:5])


def test_tree_solver_unused_players_get_exact_zero():
    rng = np.random.default_rng(25)
    X = np.column_stack([rng.uniform(0, 1, (60, 2)), np.zeros((60, 2))])
    y = X[:, 0] - 2 * X[:, 1]
    model = fit_random_forest(X, y, RFConfig(n_trees=4, max_depth=4, seed=6))
    bg = np.column_stack([X[:15, :2], rng.uniform(0, 1, (15, 2))])
    for x in X[40:43]:
        phi = ensemble_shap(model, x, bg, [[0], [1], [2], [3]])
        assert phi[2] == 0.0 and phi[3] == 0.0
        assert phi[0] != 0.0
    assert_tree_solver_exact(model, bg, X[40:43])


def test_linear_solver_matches_enumeration_with_grouped_players():
    rng = np.random.default_rng(26)
    label = rng.integers(0, 4, size=50)
    X = np.column_stack([rng.standard_normal((50, 2)), np.eye(4)[label]])
    y = 0.5 + X @ [1.0, -0.5, 0.3, -0.2, 0.8, 0.0] + 0.05 * rng.standard_normal(50)
    model = fit_elastic_net(X, y, ElasticNetConfig(lam=1e-3, alpha=0.5))
    players = [[0], [2, 3, 4, 5], [1]]
    for x in X[40:44]:
        solved, enumerated = solved_and_enumerated(
            lambda A: predict_linear(model, A),
            lambda *a: linear_shap(model, *a), X[:30], x, players)
        np.testing.assert_allclose(solved.phi, enumerated.phi, rtol=0, atol=1e-9)
        assert abs(solved.base_value + solved.phi.sum() - solved.f_x) <= 1e-9


def test_tree_solver_explains_past_the_enumeration_cap():
    X, y = tree_data(27, n=120, d=20)
    model = fit_gbdt(X, y, GBDTConfig(n_trees=12, max_depth=4, seed=7))
    vf = MarginalValueFunction(predict=lambda A: predict_ensemble(model, A),
                               background=X[:32],
                               solver=lambda *a: ensemble_shap(model, *a))
    with pytest.raises(ValueError, match="cap"):
        exact_shap(dataclasses.replace(vf, solver=None,
                                       coalitions=masked_coalitions(vf.predict)), X[100])
    for attr in shap_for_dataset(vf, X[100:104]):
        assert len(attr.phi) == 20
        assert abs(attr.base_value + attr.phi.sum() - attr.f_x) <= 1e-9


# ------------------------------------- MLP coalitions from first-layer sums
# mlp_coalition_values builds every coalition's first-layer pre-activations
# from subset sums of per-player deltas instead of masking; the masking
# enumeration of the test-side masked_coalitions hook is its oracle.

def mlp_fixture(hidden, activation, n_columns, seed, n=60):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n_columns))
    y = np.tanh(X[:, 0]) - 0.5 * X[:, -1] ** 2 + 0.1 * X.sum(axis=1)
    model, _ = fit_mlp(X, y, MLPConfig(hidden_layers=hidden, activation=activation,
                                       learning_rate=0.02, batch_size=16, max_epochs=15,
                                       seed=seed))
    return model, X


def mlp_value_functions(model, background, players):
    """(subset-sum value function, masking value function); the first
    cannot call predict."""
    def refuse(A):
        raise AssertionError("the subset-sum path called predict")

    fast = MarginalValueFunction(
        predict=refuse, background=background, player_columns=players,
        coalitions=lambda *a: mlp_coalition_values(model, *a))
    masked = marginal_vf(lambda A: predict_mlp(model, A), background,
                         player_columns=players)
    return fast, masked


def assert_mlp_coalitions_exact(model, background, X, players):
    fast_vf, masked_vf = mlp_value_functions(model, background, players)
    for x in X:
        fast, masked = exact_shap(fast_vf, x), exact_shap(masked_vf, x)
        assert len(fast.phi) == len(players)
        np.testing.assert_allclose(fast.phi, masked.phi, rtol=0, atol=1e-9)
        assert fast.base_value == pytest.approx(masked.base_value, abs=1e-9)
        assert fast.f_x == pytest.approx(masked.f_x, abs=1e-9)
        assert fast.f_x == pytest.approx(float(predict_mlp(model, x[None])[0]), abs=1e-9)
        assert abs(fast.base_value + fast.phi.sum() - fast.f_x) <= 1e-9


@pytest.mark.parametrize("hidden", [(6,), (5, 3)], ids=["one-hidden", "two-hidden"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "logistic"])
@pytest.mark.parametrize("n_players", [1, 4, 9], ids=["M=1", "M<k", "M>k"])
def test_mlp_coalitions_match_masking(hidden, activation, n_players):
    model, X = mlp_fixture(hidden, activation, n_players, seed=n_players)
    assert_mlp_coalitions_exact(model, X[:24], X[50:53], [[c] for c in range(n_players)])


def test_mlp_coalitions_without_a_hidden_layer():
    model, X = mlp_fixture((), "relu", 5, seed=31)
    assert_mlp_coalitions_exact(model, X[:20], X[50:52], [[c] for c in range(5)])


@pytest.mark.parametrize("activation", ["relu", "tanh", "logistic"])
def test_mlp_coalitions_grouped_one_hot_players(activation):
    """A strategy-3 design: numeric singletons, then the site, month,
    weekday and season blocks as one player each (8 players, so more
    than one block of coalitions)."""
    stacked = stack_panel(synthetic_panel(40, 3, 4, seed=32))
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL)
    design = assemble_design(stacked, cfg, fit_standardizer(numeric_block(stacked, cfg)[1]))
    names, players = players_from_design(design)
    assert len(players) == 8 and max(len(cols) for cols in players) > 1
    model, _ = fit_mlp(design.X, design.y, MLPConfig(hidden_layers=(7, 4),
                                                     activation=activation,
                                                     max_epochs=10, seed=5))
    assert_mlp_coalitions_exact(model, design.X[:30], design.X[100:103], players)


def test_mlp_coalitions_at_the_cap():
    model, X = mlp_fixture((4,), "tanh", DEFAULT_PLAYER_CAP, seed=33)
    assert_mlp_coalitions_exact(model, X[:6], X[50:51],
                                [[c] for c in range(DEFAULT_PLAYER_CAP)])


def test_mlp_coalitions_above_the_cap_raise_the_same_error():
    m = DEFAULT_PLAYER_CAP + 1
    model, X = mlp_fixture((4,), "relu", m, seed=34)
    fast_vf, masked_vf = mlp_value_functions(model, X[:4], [[c] for c in range(m)])
    with pytest.raises(ValueError) as masked_err:
        exact_shap(masked_vf, X[50])
    with pytest.raises(ValueError) as fast_err:
        exact_shap(fast_vf, X[50])
    assert str(fast_err.value) == str(masked_err.value)
    assert str(fast_err.value) == (f"{m} players exceeds the enumeration cap "
                                   f"{DEFAULT_PLAYER_CAP}; group one-hot blocks or raise "
                                   f"cap explicitly")


def test_coalitions_need_every_column_in_one_player():
    model, X = mlp_fixture((4,), "relu", 3, seed=35)
    for players in ([[0], [1]], [[0, 1], [1, 2]]):
        with pytest.raises(ValueError, match="exactly one player"):
            mlp_value_functions(model, X[:4], players)


def test_mlp_family_explains_through_coalitions():
    family = FAMILIES["mlp"]
    assert family.shap_solver is None
    assert family.shap_coalitions is mlp_coalition_values
    assert all(f.shap_coalitions is None for f in FAMILIES.values() if f is not family)
    # every entry fits a fold through its hook and explains through one hook
    for name, entry in FAMILIES.items():
        assert callable(entry.fit_fold), name
        assert (entry.shap_solver is None) != (entry.shap_coalitions is None), name
