"""End models (soft-label logistic/softmax regression) and metrics."""

from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.softmax import SoftLabelSoftmaxRegression
from repro.endmodel.metrics import (
    METRICS,
    accuracy_score,
    f1_score,
    get_metric,
    learning_curve_summary,
    precision_score,
    recall_score,
    soft_label_accuracy,
)

__all__ = [
    "SoftLabelLogisticRegression",
    "SoftLabelSoftmaxRegression",
    "METRICS",
    "get_metric",
    "accuracy_score",
    "f1_score",
    "precision_score",
    "recall_score",
    "soft_label_accuracy",
    "learning_curve_summary",
]
