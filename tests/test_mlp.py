import numpy as np
import pytest

from wqpanel import mlp

from conftest import loss_and_gradients
from wqpanel.mlp import (ACTIVATIONS, EarlyStopConfig, MLPConfig, MLPModel,
                         TrainingDivergedError, TrainingTrace, _act, _epoch_permutation,
                         fit_lockstep, fit_mlp, forward, forward_from_first_layer,
                         init_params, lockstep_key, predict_mlp)


# ------------------------------------------------------------------ oracle
# The per-config training loop that fit_lockstep replaced: one config, 2-D
# parameters, gradients from z. fit_mlp must match it bit for bit.

def _oracle_act_grad(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(float)
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


def oracle_forward(weights, biases, X, activation):
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = _act(a @ W + b, activation)
    return (a @ weights[-1] + biases[-1]).ravel()


def oracle_loss_and_gradients(weights, biases, X, y, activation, l2_penalty):
    n = len(y)
    zs, activations = [], [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        z = a @ W + b
        zs.append(z)
        a = _act(z, activation)
        activations.append(a)
    yhat = (a @ weights[-1] + biases[-1]).ravel()

    err = yhat - y
    loss = float(np.mean(err**2))
    loss += l2_penalty / 2.0 * sum(float((W**2).sum()) for W in weights)

    delta = (2.0 * err / n)[:, None]
    grad_w = [np.empty(0)] * len(weights)
    grad_b = [np.empty(0)] * len(biases)
    grad_w[-1] = activations[-1].T @ delta + l2_penalty * weights[-1]
    grad_b[-1] = delta.sum(axis=0)
    for layer in range(len(weights) - 2, -1, -1):
        delta = (delta @ weights[layer + 1].T) * _oracle_act_grad(zs[layer], activation)
        grad_w[layer] = activations[layer].T @ delta + l2_penalty * weights[layer]
        grad_b[layer] = delta.sum(axis=0)
    return loss, grad_w, grad_b


def oracle_fit_mlp(X, y, cfg):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if cfg.early_stop is not None:
        split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 102]))
        perm = split_rng.permutation(n)
        n_val = max(1, int(round(cfg.early_stop.validation_fraction * n)))
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        X_val, y_val = X[val_idx], y[val_idx]
        X_tr, y_tr = X[train_idx], y[train_idx]
    else:
        X_tr, y_tr = X, y
        X_val = y_val = None

    weights, biases = init_params(cfg, X.shape[1])
    vel_w = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    train_losses, val_losses = [], []
    best_val = np.inf
    best_params = None
    since_best = 0
    n_tr = len(y_tr)

    for epoch in range(cfg.max_epochs):
        order = _epoch_permutation(cfg.seed, epoch, n_tr)
        for start in range(0, n_tr, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, gw, gb = oracle_loss_and_gradients(weights, biases, X_tr[batch], y_tr[batch],
                                                  cfg.activation, cfg.l2_penalty)
            for layer in range(len(weights)):
                vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * gw[layer]
                vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * gb[layer]
                weights[layer] = weights[layer] + vel_w[layer]
                biases[layer] = biases[layer] + vel_b[layer]

        epoch_loss, _, _ = oracle_loss_and_gradients(weights, biases, X_tr, y_tr,
                                                     cfg.activation, cfg.l2_penalty)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch}; "
                f"reduce learning_rate (currently {cfg.learning_rate})")
        train_losses.append(epoch_loss)

        if cfg.early_stop is not None:
            val_pred = oracle_forward(weights, biases, X_val, cfg.activation)
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = ([W.copy() for W in weights], [b.copy() for b in biases])
                since_best = 0
            else:
                since_best += 1
                if since_best > cfg.early_stop.patience:
                    break

    if cfg.early_stop is not None and best_params is not None:
        weights, biases = best_params
    model = MLPModel(weights=tuple(weights), biases=tuple(biases), activation=cfg.activation)
    trace = TrainingTrace(
        train_loss=tuple(train_losses),
        val_loss=tuple(val_losses) if cfg.early_stop is not None else None)
    return model, trace


def assert_same_fit(got, expected):
    (model, trace), (oracle_model, oracle_trace) = got, expected
    assert len(model.weights) == len(oracle_model.weights)
    for a, b in zip(model.weights + model.biases, oracle_model.weights + oracle_model.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array(trace.train_loss).tobytes() == np.array(oracle_trace.train_loss).tobytes()
    assert (trace.val_loss is None) == (oracle_trace.val_loss is None)
    if trace.val_loss is not None:
        assert np.array(trace.val_loss).tobytes() == np.array(oracle_trace.val_loss).tobytes()


def flatten_params(weights, biases):
    return np.concatenate([a.ravel() for a in (*weights, *biases)])


def unflatten_like(vec, weights, biases):
    out_w, out_b, pos = [], [], 0
    for W in weights:
        out_w.append(vec[pos:pos + W.size].reshape(W.shape))
        pos += W.size
    for b in biases:
        out_b.append(vec[pos:pos + b.size].reshape(b.shape))
        pos += b.size
    return out_w, out_b


def _oracle_data(n=60, p=3, seed=20):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    return X, X @ np.linspace(0.5, -0.5, p) + 0.3 * rng.standard_normal(n)


ORACLE_CASES = {
    "relu": MLPConfig(hidden_layers=(6,), activation="relu", learning_rate=0.02,
                      batch_size=8, max_epochs=12, seed=1),
    "tanh_momentum_l2": MLPConfig(hidden_layers=(5,), activation="tanh",
                                  learning_rate=0.02, batch_size=7, max_epochs=10,
                                  momentum=0.9, l2_penalty=0.01, seed=2),
    "logistic_two_layers_batch_over_n": MLPConfig(
        hidden_layers=(6, 3), activation="logistic", learning_rate=0.05,
        batch_size=64, max_epochs=15, seed=3),
    "no_hidden_layer_ragged_batch": MLPConfig(hidden_layers=(), learning_rate=0.01,
                                              batch_size=9, max_epochs=8, seed=4),
    "early_stop": MLPConfig(hidden_layers=(8,), activation="tanh", learning_rate=0.1,
                            batch_size=16, max_epochs=200, seed=5,
                            early_stop=EarlyStopConfig(validation_fraction=0.2,
                                                       patience=3)),
    "one_epoch": MLPConfig(hidden_layers=(4,), max_epochs=1, seed=6,
                           early_stop=EarlyStopConfig()),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_fit_mlp_matches_oracle(name):
    X, y = _oracle_data()
    cfg = ORACLE_CASES[name]
    assert_same_fit(fit_mlp(X, y, cfg), oracle_fit_mlp(X, y, cfg))


def test_fit_lockstep_matches_oracle_per_config():
    # one stack: activations interleave, and every config keeps its own
    # seed, rates, patience, validation split and epoch budget
    X, y = _oracle_data(n=100, p=4, seed=21)
    settings = [("relu", 0.05, 0.0, 0.0, 0.2, 2, 60),
                ("tanh", 0.02, 0.9, 0.01, 0.204, 5, 60),
                ("tanh", 0.1, 0.5, 0.0, 0.2, 1, 60),
                ("logistic", 0.05, 0.0, 0.001, 0.196, 50, 7),
                ("relu", 0.01, 0.9, 0.0, 0.2, 4, 30)]
    cfgs = [MLPConfig(hidden_layers=(6, 3), activation=act, learning_rate=lr,
                      batch_size=16, max_epochs=epochs, momentum=momentum,
                      l2_penalty=l2, seed=seed,
                      early_stop=EarlyStopConfig(validation_fraction=fraction,
                                                 patience=patience))
            for seed, (act, lr, momentum, l2, fraction, patience, epochs)
            in enumerate(settings)]
    assert len({lockstep_key(cfg, 100) for cfg in cfgs}) == 1
    fits = fit_lockstep(X, y, cfgs)
    for cfg, fit in zip(cfgs, fits):
        assert_same_fit(fit, oracle_fit_mlp(X, y, cfg))
    epochs = [len(trace.train_loss) for _, trace in fits]
    assert len(set(epochs)) > 2 and min(epochs) < 7  # configs stop at different epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_lockstep_reports_a_diverged_config_and_trains_the_rest():
    rng = np.random.default_rng(22)
    X = 10.0 * rng.standard_normal((40, 3))
    y = 10.0 * rng.standard_normal(40)
    cfgs = [MLPConfig(hidden_layers=(16,), learning_rate=lr, batch_size=8,
                      max_epochs=6, seed=seed)
            for seed, lr in enumerate((1e-4, 50.0, 2e-4))]
    with np.errstate(over="ignore", invalid="ignore"):
        fits = fit_lockstep(X, y, cfgs)
        with pytest.raises(TrainingDivergedError) as alone:
            oracle_fit_mlp(X, y, cfgs[1])
    assert isinstance(fits[1], TrainingDivergedError)
    assert str(fits[1]) == str(alone.value)
    for i in (0, 2):
        assert_same_fit(fits[i], oracle_fit_mlp(X, y, cfgs[i]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stack_elements", [3 << 18, 1], ids=["one_stack", "stacks_of_one"])
def test_fit_lockstep_on_each_configs_own_rows_matches_oracle(monkeypatch, stack_elements):
    # each config trains on its own 50 of 70 rows, as a config of another
    # fold would; activations interleave, every config early-stops, and the
    # fastest rate diverges on the large inputs
    monkeypatch.setattr(mlp, "_STACK_ELEMENTS", stack_elements)
    X, y = _oracle_data(n=70, p=3, seed=23)
    X[:10] *= 30.0
    rng = np.random.default_rng(24)
    rows = [rng.permutation(70)[:50] for _ in range(6)]
    rows[1] = np.sort(rows[1])
    settings = [("tanh", 0.02, 0.0), ("relu", 0.05, 0.9), ("logistic", 0.1, 0.0),
                ("tanh", 1e8, 0.5), ("tanh", 0.01, 0.5), ("relu", 0.02, 0.0)]
    cfgs = [MLPConfig(hidden_layers=(5, 3), activation=act, learning_rate=lr, batch_size=8,
                      max_epochs=40, momentum=momentum, seed=seed,
                      early_stop=EarlyStopConfig(validation_fraction=0.2, patience=3))
            for seed, (act, lr, momentum) in enumerate(settings)]
    with np.errstate(over="ignore", invalid="ignore"):
        fits = fit_lockstep(X, y, cfgs, rows)
        for cfg, base, fit in zip(cfgs, rows, fits):
            try:
                expected = oracle_fit_mlp(X[base], y[base], cfg)
            except TrainingDivergedError as exc:
                assert isinstance(fit, TrainingDivergedError) and str(fit) == str(exc), cfg
                continue
            assert_same_fit(fit, expected)
    assert [isinstance(fit, TrainingDivergedError) for fit in fits] == [
        False, False, False, True, False, False]
    epochs = [len(trace.train_loss) for _, trace in fits[:3] + fits[4:]]
    assert len(set(epochs)) > 1  # configs stop at different epochs


def test_fit_lockstep_needs_rows_for_every_config():
    X, y = _oracle_data()
    with pytest.raises(ValueError, match="each config needs rows"):
        fit_lockstep(X, y, [MLPConfig(), MLPConfig()], [np.arange(5), []])
    with pytest.raises(ValueError):
        fit_lockstep(X, y, [MLPConfig(), MLPConfig()], [np.arange(5)])


def test_fit_lockstep_rejects_configs_of_different_shapes():
    X, y = _oracle_data()
    with pytest.raises(ValueError, match="lockstep_key"):
        fit_lockstep(X, y, [MLPConfig(hidden_layers=(4,)), MLPConfig(hidden_layers=(5,))])
    with pytest.raises(ValueError, match="lockstep_key"):
        fit_lockstep(X, y, [MLPConfig(), MLPConfig(early_stop=EarlyStopConfig())])
    # 54 training rows either way, but 6 validation rows and none
    cfg = MLPConfig(early_stop=EarlyStopConfig(validation_fraction=0.1))
    assert lockstep_key(cfg, 60)[:3] == lockstep_key(MLPConfig(), 54)[:3]
    with pytest.raises(ValueError, match="lockstep_key"):
        fit_lockstep(X, y, [cfg, MLPConfig()], [np.arange(60), np.arange(54)])


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_gradients_match_central_finite_differences(activation):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    cfg = MLPConfig(hidden_layers=(5, 4), activation=activation, seed=3,
                    l2_penalty=0.01)
    weights, biases = init_params(cfg, 3)

    loss, gw, gb = loss_and_gradients(weights, biases, X, y, activation, 0.01)
    analytic = flatten_params(gw, gb)

    theta = flatten_params(weights, biases)
    h = 1e-6
    numeric = np.empty_like(theta)
    for i in range(len(theta)):
        for sign, store in ((1.0, "plus"), (-1.0, "minus")):
            bumped = theta.copy()
            bumped[i] += sign * h
            w2, b2 = unflatten_like(bumped, weights, biases)
            val, _, _ = loss_and_gradients(w2, b2, X, y, activation, 0.01)
            if store == "plus":
                plus = val
            else:
                minus = val
        numeric[i] = (plus - minus) / (2 * h)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_zero_hidden_layer_matches_ols():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((120, 3))
    coef = np.array([1.5, -0.7, 0.3])
    y = 0.4 + X @ coef  # noiseless
    X_test = rng.standard_normal((60, 3))
    y_test = 0.4 + X_test @ coef

    cfg = MLPConfig(hidden_layers=(), activation="relu", learning_rate=0.05,
                    batch_size=120, max_epochs=4000, seed=0)
    model, trace = fit_mlp(X, y, cfg)
    rmse = float(np.sqrt(np.mean((predict_mlp(model, X_test) - y_test) ** 2)))
    assert rmse < 1e-3  # the noiseless OLS fit has zero test RMSE


def test_seeded_determinism_bit_identical():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    cfg = MLPConfig(hidden_layers=(8,), activation="tanh", learning_rate=0.01,
                    batch_size=8, max_epochs=20, seed=11)
    m1, t1 = fit_mlp(X, y, cfg)
    m2, t2 = fit_mlp(X, y, cfg)
    for a, b in zip(m1.weights, m2.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(m1.biases, m2.biases):
        assert a.tobytes() == b.tobytes()
    assert t1.train_loss == t2.train_loss


def test_all_zero_parameters_give_zero_output():
    cfg = MLPConfig(hidden_layers=(4,), activation="relu")
    model = MLPModel(weights=(np.zeros((3, 4)), np.zeros((4, 1))),
                     biases=(np.zeros(4), np.zeros(1)), activation=cfg.activation)
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(predict_mlp(model, rng.standard_normal((5, 3))),
                                  np.zeros(5))


def test_single_tanh_unit_hand_computed():
    cfg = MLPConfig(hidden_layers=(1,), activation="tanh")
    model = MLPModel(weights=(np.array([[0.5], [-0.25]]), np.array([[2.0]])),
                     biases=(np.array([0.1]), np.array([-0.3])),
                     activation=cfg.activation)
    x = np.array([[1.0, 2.0]])
    hidden = np.tanh(0.5 * 1.0 - 0.25 * 2.0 + 0.1)
    expected = 2.0 * hidden - 0.3
    assert predict_mlp(model, x)[0] == pytest.approx(expected, abs=1e-12)


def test_relu_positive_homogeneity_with_zero_biases():
    rng = np.random.default_rng(4)
    cfg = MLPConfig(hidden_layers=(6, 3), activation="relu")
    weights, biases = init_params(cfg, 4)
    biases = [np.zeros_like(b) for b in biases]
    x = rng.standard_normal((1, 4))
    base = forward(weights, biases, x, "relu")[0]
    for a in (0.5, 2.0, 7.0):
        scaled = forward(weights, biases, a * x, "relu")[0]
        assert scaled == pytest.approx(a * base, rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_advice():
    rng = np.random.default_rng(5)
    X = 10.0 * rng.standard_normal((40, 3))
    y = 10.0 * rng.standard_normal(40)
    cfg = MLPConfig(hidden_layers=(16,), activation="relu", learning_rate=50.0,
                    batch_size=40, max_epochs=50, seed=1)
    with pytest.raises(TrainingDivergedError, match="learning_rate"):
        with np.errstate(over="ignore", invalid="ignore"):
            fit_mlp(X, y, cfg)


def test_full_batch_convex_case_monotone_loss():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 2))
    y = X @ [1.0, -2.0] + 0.05 * rng.standard_normal(50)
    cfg = MLPConfig(hidden_layers=(), activation="relu", learning_rate=0.05,
                    batch_size=50, max_epochs=200, seed=2)
    _, trace = fit_mlp(X, y, cfg)
    diffs = np.diff(np.array(trace.train_loss))
    assert np.all(diffs <= 1e-10)


def test_early_stopping_tracks_validation():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((80, 3))
    y = X @ [0.5, -0.2, 0.1] + 0.1 * rng.standard_normal(80)
    cfg = MLPConfig(hidden_layers=(8,), activation="tanh", learning_rate=0.01,
                    batch_size=16, max_epochs=100, seed=4,
                    early_stop=EarlyStopConfig(validation_fraction=0.2, patience=5))
    model, trace = fit_mlp(X, y, cfg)
    assert trace.val_loss is not None
    assert len(trace.val_loss) == len(trace.train_loss) <= 100


def test_epoch_shuffle_is_pure_function_of_seed_and_epoch():
    from wqpanel.mlp import _epoch_permutation

    a = _epoch_permutation(7, 3, 20)
    b = _epoch_permutation(7, 3, 20)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, _epoch_permutation(7, 4, 20))
    assert not np.array_equal(a, _epoch_permutation(8, 3, 20))


def test_trace_without_early_stop_has_no_val():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    _, trace = fit_mlp(X, y, MLPConfig(hidden_layers=(4,), max_epochs=5, seed=0))
    assert trace.val_loss is None
    assert len(trace.train_loss) == 5


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_activation_in_place_is_bit_equal(activation):
    z = np.random.default_rng(3).normal(0.0, 4.0, (40, 7))
    z[0, :3] = [0.0, -0.0, 50.0]
    kept = z.copy()
    fresh = _act(z, activation)
    assert z.tobytes() == kept.tobytes()  # without out, z is left alone
    assert _act(z, activation, out=z) is z
    assert z.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("hidden", [(), (6,), (5, 3)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_from_first_layer_matches_predict(hidden, activation):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 4))
    weights, biases = init_params(MLPConfig(hidden_layers=hidden, seed=2), 4)
    model = MLPModel(weights=tuple(weights), biases=tuple(b + 0.1 for b in biases),
                     activation=activation)
    z = X @ weights[0] + model.biases[0]
    np.testing.assert_allclose(forward_from_first_layer(model, z), predict_mlp(model, X),
                               rtol=0, atol=1e-12)


def test_predict_width_mismatch():
    cfg = MLPConfig(hidden_layers=())
    model = MLPModel(weights=(np.zeros((2, 1)),), biases=(np.zeros(1),), activation=cfg.activation)
    with pytest.raises(ValueError, match="width mismatch"):
        predict_mlp(model, np.zeros((1, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        MLPConfig(activation="gelu")
    with pytest.raises(ValueError):
        MLPConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        MLPConfig(hidden_layers=(0,))
    with pytest.raises(ValueError):
        EarlyStopConfig(validation_fraction=1.5)
