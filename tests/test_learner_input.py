"""Every learner entry point keeps one (X, y) rule, fieldtypes.learner_input:
X 2-D with at least one row, y of shape (len(X),), every value finite. Each
refuses any other input with the rule's ValueError, which names the fault,
before any fitting starts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wqpanel import elastic_net as en
from wqpanel import mlp as nn
from wqpanel import trees as tr
from wqpanel.families import FAMILIES

SMALL_MLP = nn.MLPConfig(hidden_layers=(4,), batch_size=4, max_epochs=3)

ENTRY_POINTS = {
    "fit_random_forest": lambda X, y: tr.fit_random_forest(X, y, tr.RFConfig(n_trees=2)),
    "fit_gbdt": lambda X, y: tr.fit_gbdt(X, y, tr.GBDTConfig(n_trees=2)),
    "fit_gbdt_goss": lambda X, y: tr.fit_gbdt(
        X, y, tr.GBDTConfig(n_trees=2, goss=tr.GossConfig(top_rate=0.5, other_rate=0.5))),
    "fit_tree": lambda X, y: tr.fit_tree(X, y, tr.RFConfig()),
    "fit_elastic_net": lambda X, y: en.fit_elastic_net(X, y, en.ElasticNetConfig()),
    "prepare_folds": lambda X, y: en.prepare_folds(X, y, [np.arange(len(X))], True),
    "fit_lockstep": lambda X, y: nn.fit_lockstep(X, y, [SMALL_MLP, SMALL_MLP]),
    "fit_mlp": lambda X, y: nn.fit_mlp(X, y, SMALL_MLP),
    **{f"{name}.fit": lambda X, y, name=name: FAMILIES[name].fit(
        X, y, FAMILIES[name].config({}, 0)) for name in FAMILIES},
}


def _good(n: int = 12, p: int = 3):
    X = np.linspace(-1.0, 2.0, n * p).reshape(n, p) ** 2
    return X, X @ np.linspace(0.5, -0.5, p) + 7.0


def _with(array: np.ndarray, at: tuple, value: float) -> np.ndarray:
    array = array.copy()
    array[at] = value
    return array


X, Y = _good()
BAD_INPUTS = {  # name -> (X, y, the rule's message)
    "1-D X": (X[:, 0], Y, "X must be 2-D with at least one row, got shape (12,)"),
    "zero rows": (X[:0], Y[:0], "X must be 2-D with at least one row, got shape (0, 3)"),
    "y one longer": (X, np.append(Y, 7.0),
                     "y must have shape (12,), one entry per row of X, got (13,)"),
    "y one shorter": (X, Y[:-1], "y must have shape (12,), one entry per row of X, got (11,)"),
    "(n, 1) y": (X, Y[:, None], "y must have shape (12,), one entry per row of X, got (12, 1)"),
    "0-d y": (X, Y[0], "y must have shape (12,), one entry per row of X, got ()"),
    "NaN in X": (_with(X, (4, 1), np.nan), Y, "X[4, 1] = nan is non-finite"),
    "+inf in X": (_with(X, (11, 2), np.inf), Y, "X[11, 2] = inf is non-finite"),
    "-inf in X": (_with(X, (0, 0), -np.inf), Y, "X[0, 0] = -inf is non-finite"),
    "NaN in y": (X, _with(Y, (7,), np.nan), "y[7] = nan is non-finite"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_fits_the_good_input(entry):
    ENTRY_POINTS[entry](X, Y)


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_refuses_bad_input_by_the_one_rule(entry, case):
    bad_X, bad_y, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as refused:
        ENTRY_POINTS[entry](bad_X, bad_y)
    assert str(refused.value) == message


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@given(data=st.data())
def test_the_refusal_names_the_drawn_fault(entry, data):
    # a y of a drawn wrong length, or non-finite values in drawn cells of X
    # and y: the rule names the first one of X in row-major order, else of y
    n, p = data.draw(st.integers(1, 9), label="n"), data.draw(st.integers(1, 4), label="p")
    X, y = _good(n, p)
    if data.draw(st.booleans(), label="wrong length"):
        offset = data.draw(st.integers(-n, 3).filter(bool), label="offset")
        y = np.resize(y, n + offset)
        message = f"y must have shape ({n},), one entry per row of X, got ({n + offset},)"
    else:
        cells = {"X": [], "y": []}
        while not cells["X"] + cells["y"] or data.draw(st.booleans(), label="another"):
            name = data.draw(st.sampled_from(["X", "y"]), label="array")
            shape = X.shape if name == "X" else y.shape
            at = data.draw(st.tuples(*(st.integers(0, s - 1) for s in shape)), label="cell")
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
            cells[name].append(at)
            if name == "X":
                X = _with(X, at, value)
            else:
                y = _with(y, at, value)
        name = "X" if cells["X"] else "y"
        at = min(cells[name])
        message = f"{name}{list(at)} = {(X if name == 'X' else y)[at]} is non-finite"
    with pytest.raises(ValueError) as refused:
        ENTRY_POINTS[entry](X, y)
    assert str(refused.value) == message
