"""wqpanel: a panel-regression toolkit for water-quality prediction.

Loads spatio-temporal panels, assembles design matrices under three input
strategies, fits five regression model families plus a constant-mean
benchmark, scores them with five forecast error metrics, tunes by
cross-validated grid search with timing capture, and explains predictions
with exact Shapley values.
"""

from .elastic_net import ElasticNetConfig, LinearModel, fit_elastic_net, predict_linear
from .families import FAMILIES, get_family
from .features import (DesignMatrix, StandardizationParams, Strategy,
                       StrategyConfig, TemporalFeatures, assemble_design,
                       apply_standardizer, decompose_date, fit_standardizer,
                       one_hot_encode)
from .metrics import BenchmarkModel, MetricReport, evaluate, fit_benchmark, score
from .mlp import MLPConfig, MLPModel, TrainingTrace, fit_mlp, predict_mlp
from .panel import (CorrelationMatrix, PanelDataset, PanelSchema, StackedTable,
                    SummaryStats, ValidationReport, correlation_matrix,
                    load_panel, stack_panel, summarize, validate_panel)
from .shap_exact import (MarginalValueFunction, RetrainValueFunction,
                         ShapAttribution, exact_shap, mean_abs_shap,
                         shap_for_dataset)
from .trees import (Ensemble, GBDTConfig, GossConfig, RFConfig, RegressionTree,
                    fit_gbdt, fit_random_forest, fit_tree, goss_sample,
                    predict_ensemble, predict_tree)
from .tuner import (CVConfig, FoldScheme, HyperGrid, TuningResult, grid_search,
                    kfold_split)

__version__ = "0.1.0"
