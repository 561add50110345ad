"""wqpanel: a panel-regression toolkit for water-quality prediction.

Loads spatio-temporal panels, assembles design matrices under three input
strategies, fits five regression model families plus a constant-mean
benchmark, scores them with five forecast error metrics, tunes by
cross-validated grid search with timing capture, and explains predictions
with exact Shapley values.
"""

__version__ = "0.1.0"
