"""Combined classifier: a base classifier guarded by a conformal meta classifier.

The base classifier's k-fold held-out predictions relabel the data 0/1
(wrong/correct); a meta classifier trained on those labels turns each
observation into a score ratio p_positive / p_negative.  The reliability
threshold on that ratio comes from intersecting the ROC convex hull of the
held-out ratios with the precision isometric through the origin; the
combined classifier then answers with the base prediction when the ratio
clears the threshold and abstains otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cp import ConformalClassifier, CpConfig
from .data import Bag, SeededRng, check_observations, require_trained
from .metrics import ConfusionMatrix, confusion_metrics
from .ncm import NonconformityMeasure

INF = math.inf


class _AbstainType:
    """Singleton marker returned when the combined classifier withholds a label."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSTAIN"


ABSTAIN = _AbstainType()


@dataclass(frozen=True)
class ClassifierHooks:
    """Callable interfaces to the base classifier B and the meta classifier M.

    ``b_train(x, y)`` fits the base classifier, ``b_predict(x)`` returns one
    label per row.  ``m_train(x, y01)`` fits the meta classifier on 0/1 meta
    labels and ``m_predict_pvals(x)`` returns one (p_negative, p_positive)
    pair per row.
    """

    b_train: Callable
    b_predict: Callable
    m_train: Callable | None = None
    m_predict_pvals: Callable | None = None


@dataclass(frozen=True)
class MetaExample:
    """Observation relabelled by base-classifier correctness: 1 right, 0 wrong."""

    x: np.ndarray
    meta_label: int

    def __post_init__(self):
        if self.meta_label not in (0, 1):
            raise ValueError("meta label must be 0 or 1")


@dataclass(frozen=True)
class RocPoint:
    fpr: float
    tpr: float
    score_ratio: float


@dataclass(frozen=True)
class Threshold:
    """Reliability threshold; ``warning`` marks a degenerate isometric intersection."""

    t: float
    warning: bool = False

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("threshold must be nonnegative")


def _fold_indices(n: int, k: int, seed: int, labels=None) -> list[np.ndarray]:
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} examples into {k} folds")
    perm = SeededRng(seed).permutation(n)
    if labels is None:
        return list(np.array_split(perm, k))
    # stratified: deal each label's (shuffled) indices around the folds
    folds: list[list[int]] = [[] for _ in range(k)]
    position = 0
    by_label: dict = {}
    for idx in perm:
        by_label.setdefault(labels[idx], []).append(idx)
    for lbl in sorted(by_label, key=repr):
        for idx in by_label[lbl]:
            folds[position % k].append(idx)
            position += 1
    return [np.asarray(f, dtype=int) for f in folds]


def kfold_meta_data(
    hooks: ClassifierHooks, bag: Bag, k: int, seed: int = 0, stratified: bool = False
) -> list[MetaExample]:
    """Relabel every bag example by held-out base-classifier correctness.

    The bag splits into k near-equal seeded folds; each fold is predicted by
    the base classifier trained on the other folds.  The output keeps bag
    order, one meta example per input example.
    """
    folds = _fold_indices(len(bag), k, seed, bag.y if stratified else None)
    meta_labels = np.empty(len(bag), dtype=int)
    for fold in folds:
        rest = np.delete(np.arange(len(bag)), fold)
        train = bag.subset(rest)
        hooks.b_train(train.x, train.y)
        predictions = hooks.b_predict(bag.x[fold])
        for local, idx in enumerate(fold):
            meta_labels[idx] = int(predictions[local] == bag.y[idx])
    return [MetaExample(x, int(m)) for x, m in zip(bag.x, meta_labels)]


def score_ratios(
    hooks: ClassifierHooks,
    meta: Sequence[MetaExample],
    k: int,
    seed: int = 0,
    stratified: bool = False,
) -> list[tuple[float, int]]:
    """Held-out score ratios over the meta data, via the same k-fold protocol.

    Each held-out meta example yields p_positive / p_negative from the meta
    classifier trained on the other folds.  A conformal meta classifier
    keeps p_negative positive, so ratios stay finite; an external classifier
    returning p_negative = 0 yields the infinite sentinel.
    """
    if hooks.m_train is None or hooks.m_predict_pvals is None:
        raise ValueError("hooks are missing the meta classifier interface")
    x = np.vstack([m.x for m in meta])
    y = np.array([m.meta_label for m in meta])
    if y.min() == y.max():
        raise ValueError("need both meta classes to score")
    folds = _fold_indices(len(meta), k, seed, y if stratified else None)
    out: list[tuple[float, int]] = []
    for fold in folds:
        rest = np.delete(np.arange(len(meta)), fold)
        if y[rest].min() == y[rest].max():
            raise ValueError(
                "a fold's training part holds a single meta class; "
                "use fewer folds or stratified folds"
            )
        hooks.m_train(x[rest], y[rest])
        out.extend(zip(_ratios(hooks.m_predict_pvals, x[fold]).tolist(), y[fold].tolist()))
    return out


def _ratios(m_predict_pvals: Callable, X: np.ndarray) -> np.ndarray:
    """p_positive / p_negative of every row of X from the meta p-values,
    infinite where p_negative is 0."""
    pvals = np.asarray(m_predict_pvals(X), dtype=float)
    if pvals.shape != (len(X), 2):
        raise ValueError(f"meta classifier returned {pvals.shape}, expected ({len(X)}, 2)")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pvals[:, 0] == 0, INF, pvals[:, 1] / pvals[:, 0])


def roc_points(ratios_with_labels: Sequence[tuple[float, int]]) -> list[RocPoint]:
    """ROC staircase swept over the distinct score ratios, descending.

    At threshold t the positive prediction is ratio >= t.  The origin is
    prepended with an infinite ratio (reject everything); the sweep's last
    point is always (1, 1).
    """
    pairs = sorted(ratios_with_labels, key=lambda p: -p[0])
    n_pos = sum(lbl for _, lbl in pairs)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both meta classes to build a ROC curve")
    points = [RocPoint(0.0, 0.0, INF)]
    tp = fp = 0
    i = 0
    while i < len(pairs):
        threshold = pairs[i][0]
        while i < len(pairs) and pairs[i][0] == threshold:
            tp += pairs[i][1]
            fp += 1 - pairs[i][1]
            i += 1
        points.append(RocPoint(fp / n_neg, tp / n_pos, threshold))
    if (points[-1].fpr, points[-1].tpr) != (1.0, 1.0):
        points.append(RocPoint(1.0, 1.0, pairs[-1][0]))
    return points


def _cross(o: RocPoint, a: RocPoint, b: RocPoint) -> float:
    return (a.fpr - o.fpr) * (b.tpr - o.tpr) - (a.tpr - o.tpr) * (b.fpr - o.fpr)


def rocch(points: Sequence[RocPoint]) -> list[RocPoint]:
    """Upper convex hull from (0, 0) to (1, 1) by a monotone-chain scan.

    Vertices come out in ascending false-positive rate; collinear interior
    points are dropped and every input point lies on or below the hull.
    """
    pts = sorted(points, key=lambda p: (p.fpr, p.tpr))
    if len(pts) < 2:
        raise ValueError("need at least the two endpoint ROC points")
    if (pts[0].fpr, pts[0].tpr) != (0.0, 0.0) or (pts[-1].fpr, pts[-1].tpr) != (1.0, 1.0):
        raise ValueError("ROC points must include (0,0) and (1,1)")
    hull: list[RocPoint] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    return hull


def iso_precision_threshold(
    hull: Sequence[RocPoint], target_precision: float, n_neg: int, n_pos: int
) -> Threshold:
    """Score-ratio threshold hitting the target precision on the hull.

    The precision isometric is the ray TPr = slope * FPr with slope =
    target/(1-target) * n_neg/n_pos; among its intersections with the hull
    the one of largest TPr abstains the least.  A vertex hit takes that
    vertex's generating ratio; a mid-segment hit the larger (more
    conservative) endpoint ratio; the terminal (1,1) vertex yields 0 because
    accepting everything already meets the target.  When the ray meets the
    hull only at the origin no operating point attains the target and the
    threshold falls back to 0 with the warning flag set.
    """
    if not 0.0 < target_precision < 1.0:
        raise ValueError("target precision must lie in (0, 1)")
    if n_neg < 1 or n_pos < 1:
        raise ValueError("need at least one example of each meta class")
    slope = target_precision / (1.0 - target_precision) * (n_neg / n_pos)
    terminal = hull[-1]
    best: tuple[float, float] | None = None  # (tpr, ratio)

    def offer(tpr: float, ratio: float):
        nonlocal best
        if tpr > 0 and (best is None or tpr > best[0]):
            best = (tpr, ratio)

    tol = 1e-12
    for p, q in zip(hull, hull[1:]):
        dx, dy = q.fpr - p.fpr, q.tpr - p.tpr
        residual = p.tpr - slope * p.fpr  # ray-to-segment gap at t = 0
        denom = dy - slope * dx
        if denom == 0.0:
            if residual == 0.0:  # segment lies on the ray; its top end wins
                offer(q.tpr, 0.0 if q is terminal else q.score_ratio)
            continue
        t = -residual / denom
        if t < -tol or t > 1.0 + tol:
            continue
        tpr = p.tpr + t * dy
        if t <= tol:
            offer(tpr, p.score_ratio)
        elif t >= 1.0 - tol:
            offer(tpr, 0.0 if q is terminal else q.score_ratio)
        else:
            offer(tpr, max(p.score_ratio, q.score_ratio))
    if best is None:
        return Threshold(0.0, warning=True)
    return Threshold(best[1], warning=False)


class CombinedClassifier:
    """Base classifier plus conformal meta classifier, abstaining below threshold.

    Training is sequential (the external hooks may be stateful); a trained
    instance is immutable and ``predict`` is as thread-safe as the hooks.
    """

    def __init__(
        self,
        hooks: ClassifierHooks,
        target_precision: float,
        seed: int = 0,
        stratified: bool = False,
    ):
        if not 0.0 < target_precision < 1.0:
            raise ValueError("target precision must lie in (0, 1)")
        self.hooks = hooks
        self.target_precision = target_precision
        self.seed = int(seed)
        self.stratified = stratified
        self.threshold: Threshold | None = None
        self.diagnostics: dict | None = None
        self._n_features: int | None = None

    def train(self, bag: Bag, k_folds: int, emit_roc=None) -> "CombinedClassifier":
        """Fix the reliability threshold, then fit both classifiers on everything.

        ``emit_roc`` writes the ROC staircase, hull vertices and isometric
        as tab-separated records.
        """
        meta = kfold_meta_data(self.hooks, bag, k_folds, seed=self.seed, stratified=self.stratified)
        ratios = score_ratios(self.hooks, meta, k_folds, seed=self.seed + 1, stratified=self.stratified)
        meta_labels = np.array([m.meta_label for m in meta])
        n_pos = int(meta_labels.sum())
        n_neg = len(meta_labels) - n_pos
        points = roc_points(ratios)
        hull = rocch(points)
        self.threshold = iso_precision_threshold(hull, self.target_precision, n_neg, n_pos)
        self._n_features = bag.n_features
        self.hooks.b_train(bag.x, bag.y)
        if self.hooks.m_train is None:
            raise ValueError("hooks are missing the meta classifier interface")
        self.hooks.m_train(np.vstack([m.x for m in meta]), meta_labels)
        self.diagnostics = {
            "k_folds": int(k_folds),
            "fold_sizes": [len(f) for f in _fold_indices(len(bag), k_folds, self.seed,
                                                         bag.y if self.stratified else None)],
            "n_pos": n_pos,
            "n_neg": n_neg,
            "hull_size": len(hull),
            "threshold": self.threshold.t,
            "warning": self.threshold.warning,
        }
        if emit_roc is not None:
            slope = self.target_precision / (1.0 - self.target_precision) * (n_neg / n_pos)
            _write_roc(emit_roc, points, hull, slope, self.threshold)
        return self

    def predict(self, X) -> list:
        """Base label per row when its ratio strictly exceeds the threshold, else ABSTAIN."""
        return self._decide(X)[1]

    def score(self, test: Bag) -> tuple[ConfusionMatrix, dict]:
        """Abstention-aware confusion counts and derived rates on a test bag.

        The meta decision is the prediction: accepted examples count as
        predicted-positive (TP when the base label is right, FP when wrong)
        and rejections split by the true meta class, so ``rp + rn`` is the
        number of abstentions.
        """
        require_trained(self.threshold, "classifier")
        if len(test) == 0:
            raise ValueError("empty test bag")
        base, decisions = self._decide(test.x)
        tp = fp = rp = rn = 0
        for decision, label, truth in zip(decisions, base, test.y):
            correct = label == truth
            if decision is ABSTAIN:
                rp += correct
                rn += not correct
            else:
                tp += correct
                fp += not correct
        cm = ConfusionMatrix(tp=tp, fp=fp, rp=rp, rn=rn)
        return cm, confusion_metrics(cm)

    def _decide(self, X) -> tuple[list, list]:
        """Base labels and decisions (base label or ABSTAIN), one pass each."""
        threshold = require_trained(self.threshold, "classifier").t
        X = np.asarray(X, dtype=float)
        if self._n_features is not None:  # None: a threshold set without train
            X = check_observations(X, self._n_features)
        base = list(self.hooks.b_predict(X))
        ratios = _ratios(self.hooks.m_predict_pvals, X)
        return base, [label if ratio > threshold else ABSTAIN for label, ratio in zip(base, ratios)]


def conformal_meta_hooks(
    b_train: Callable, b_predict: Callable, measure_factory: Callable[[], NonconformityMeasure]
) -> ClassifierHooks:
    """Hooks whose meta classifier is an offline conformal classifier.

    The meta p-values are the conformal p-values of the negative and the
    positive meta class; they are bounded away from zero, keeping every
    score ratio finite.
    """
    state: dict = {}

    def m_train(x, y01):
        classifier = ConformalClassifier(measure_factory(), CpConfig(epsilons=(0.5,)))
        labels = tuple(int(v) for v in y01)
        classifier.train(Bag.classification(np.asarray(x, dtype=float), labels, (0, 1)))
        state["cp"] = classifier

    def m_predict_pvals(x):
        return state["cp"].p_values(np.asarray(x, dtype=float)).values

    return ClassifierHooks(b_train=b_train, b_predict=b_predict,
                           m_train=m_train, m_predict_pvals=m_predict_pvals)


def _write_roc(path, points, hull, slope, threshold: Threshold) -> None:
    # kind, fpr, tpr, ratio records; '.' decimal, tabs between fields
    exit_fpr = min(1.0, 1.0 / slope) if slope > 0 else 1.0
    exit_tpr = min(slope, 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        for p in points:
            fh.write(f"roc\t{p.fpr!r}\t{p.tpr!r}\t{p.score_ratio!r}\n")
        for p in hull:
            fh.write(f"hull\t{p.fpr!r}\t{p.tpr!r}\t{p.score_ratio!r}\n")
        fh.write(f"iso\t{0.0!r}\t{0.0!r}\t{threshold.t!r}\n")
        fh.write(f"iso\t{exit_fpr!r}\t{exit_tpr!r}\t{threshold.t!r}\n")
