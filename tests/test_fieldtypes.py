import re
from dataclasses import fields

import numpy as np
import pytest

from wqpanel.elastic_net import ElasticNetConfig
from wqpanel.fieldtypes import field_rules
from wqpanel.mlp import EarlyStopConfig, MLPConfig
from wqpanel.trees import GBDTConfig, GossConfig, RFConfig

LEARNER_CONFIGS = (GossConfig, GBDTConfig, RFConfig, ElasticNetConfig, EarlyStopConfig, MLPConfig)

# fields the type rule leaves to their class: the nested configs, which the
# registry's config builders build, and the activation name, which its
# class checks against ACTIVATIONS
UNCHECKED = {GBDTConfig: {"goss"}, MLPConfig: {"early_stop", "activation"}}


@pytest.mark.parametrize("config, kwargs, message", [
    (RFConfig, {"max_features": 1.5}, "max_features must be an integer, got 1.5"),
    (RFConfig, {"min_samples_leaf": 1.5}, "min_samples_leaf must be an integer, got 1.5"),
    (RFConfig, {"max_depth": True}, "max_depth must be an integer, got True"),
    (RFConfig, {"bootstrap": 1}, "bootstrap must be a bool, got 1"),
    (GBDTConfig, {"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
    (GBDTConfig, {"n_bins": 4.5}, "n_bins must be an integer, got 4.5"),
    (GBDTConfig, {"min_child_weight": float("nan")}, "min_child_weight must be finite, got nan"),
    (GBDTConfig, {"gamma": float("inf")}, "gamma must be finite, got inf"),
    (MLPConfig, {"batch_size": 8.5}, "batch_size must be an integer, got 8.5"),
    (MLPConfig, {"max_epochs": 2.0}, "max_epochs must be an integer, got 2.0"),
    (MLPConfig, {"learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
    (MLPConfig, {"l2_penalty": float("nan")}, "l2_penalty must be finite, got nan"),
    (MLPConfig, {"hidden_layers": (8.5,)}, "hidden_layers must be a tuple of integers, got (8.5,)"),
    (EarlyStopConfig, {"patience": 2.5}, "patience must be an integer, got 2.5"),
    (ElasticNetConfig, {"standardize_internally": "no"},
     "standardize_internally must be a bool, got 'no'"),
    # every fit then died in fit_gradient_tree on a tree of no rows
    (GossConfig, {"top_rate": 0.0, "other_rate": 0.0}, "top_rate + other_rate must be > 0"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_config_rejects_a_value_of_the_wrong_type_naming_its_field(config, kwargs, message):
    # each of these used to build a config, load from a bundle and reach a fit
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**kwargs)


def test_config_takes_numpy_integers_ints_for_floats_and_none():
    assert RFConfig(max_depth=np.int64(4), max_features=np.int32(2)).max_depth == 4
    assert MLPConfig(hidden_layers=(np.int64(8), 4)).hidden_layers == (8, 4)
    # no coercion: an int stays the int the grid or bundle gave
    assert type(GBDTConfig(learning_rate=1).learning_rate) is int
    assert RFConfig(max_features=None).max_features is None


@pytest.mark.parametrize("config", LEARNER_CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_type_checked_or_listed(config):
    # a new field must take an annotation the rule checks, or join UNCHECKED
    unchecked = {f.name for f in fields(config)} - set(field_rules(config))
    assert unchecked == UNCHECKED.get(config, set())
