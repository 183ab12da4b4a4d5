"""From-scratch ML substrate used by the fairness interventions.

The paper evaluates its interventions with two scikit-learn learners:
Logistic Regression ("LR") and gradient-boosted trees ("XGB").  Neither
scikit-learn nor XGBoost is available in this environment, so this subpackage
rebuilds the needed substrate on top of numpy:

* :class:`LogisticRegressionClassifier` — weighted, L2-regularized logistic
  regression trained by full-batch gradient descent with adaptive step size.
* :class:`GradientBoostingClassifier` — depth-limited regression trees boosted
  under the logistic loss, with per-sample weights (the "XGB" stand-in).
* :class:`DecisionTreeRegressor` / :class:`DecisionTreeClassifier` — the tree
  building blocks.
* :class:`StandardScaler`, :class:`MinMaxScaler`, :class:`OneHotEncoder` —
  preprocessing substrate.

Every estimator follows the familiar ``fit(X, y, sample_weight=None)`` /
``predict(X)`` / ``predict_proba(X)`` protocol declared in
:class:`repro.learners.base.BaseClassifier`.
"""

from repro.learners.base import BaseClassifier, BaseEstimator, BaseTransformer, clone
from repro.learners.boosting import GradientBoostingClassifier
from repro.learners.encoder import OneHotEncoder
from repro.learners.logistic import LogisticRegressionClassifier
from repro.learners.metrics import (
    accuracy_score,
    balanced_accuracy_score,
    confusion_matrix,
    f1_score,
    log_loss,
    precision_score,
    recall_score,
    roc_auc_score,
)
from repro.learners.registry import available_learners, make_learner
from repro.learners.scaler import MinMaxScaler, StandardScaler
from repro.learners.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseClassifier",
    "BaseEstimator",
    "BaseTransformer",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "GradientBoostingClassifier",
    "LogisticRegressionClassifier",
    "MinMaxScaler",
    "OneHotEncoder",
    "StandardScaler",
    "accuracy_score",
    "available_learners",
    "balanced_accuracy_score",
    "clone",
    "confusion_matrix",
    "f1_score",
    "log_loss",
    "make_learner",
    "precision_score",
    "recall_score",
    "roc_auc_score",
]
