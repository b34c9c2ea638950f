"""The three benchmark workloads: seeded inputs, set-up, requests and CLI runs.

Each workload writes its CSVs from the seed, and from then on the library
sees only those files.  The workloads split the library's cost shapes so
that each ROADMAP optimisation does most of its work in one of them and
almost none in another:

* ``classify`` -- per-row scoring and per-(row, label) counting in CP, ICP,
  Venn and the combined classifier; no retraining, no regression sweep.
* ``regress`` -- the RRCM interval sweep, about 20 ms per row at n=2000; no
  classification layer runs.
* ``online`` -- the same kNN and bag code as ``classify``, but every
  absorbed stream step retrains from scratch (CP, Venn and RRCM); each
  request is one stream chunk absorbed by all three predictors.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

import conformal.cp
import conformal.data
import conformal.meta
import conformal.metrics
from conformal import (
    ABSTAIN,
    Bag,
    CombinedClassifier,
    ConformalClassifier,
    ConformalRegressor,
    CpConfig,
    IcpConfig,
    InductiveConformalClassifier,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    NearestNeighborTaxonomy,
    RrcmConfig,
    SeededRng,
    SplitSpec,
    VennPredictor,
    label_taxonomy,
)

from checks import (
    check_interval_report,
    check_p_table,
    check_sets,
    check_unions,
    check_validity,
    check_venn,
)

EPSILONS = (0.05, 0.1, 0.2)
LABELS = ("A", "B", "C", "D")
CLASS_DIM = 16
# Fixed class centres: the seed draws the points, not the geometry, so every
# seed gives the same class overlap (a base accuracy of roughly 80%, which
# leaves both meta classes in every fold of the combined classifier).
CLASS_MEANS = np.random.default_rng(20190705).normal(size=(len(LABELS), CLASS_DIM)) * 0.7
REG_WEIGHTS = np.array([1.0, -2.0, 0.5, 3.0])


class SeedRejected(Exception):
    """The seed drew a degenerate data set; it is reported, never re-drawn."""


def _mixture(rng, n):
    y = rng.permutation(np.arange(n) % len(LABELS))
    x = CLASS_MEANS[y] + rng.normal(size=(n, CLASS_DIM))
    return Bag.classification(x, [LABELS[i] for i in y], LABELS)


def _linear(rng, n):
    x = rng.normal(size=(n, len(REG_WEIGHTS)))
    return Bag.regression(x, x @ REG_WEIGHTS + 0.5 * rng.normal(size=n))


def _require_label_counts(bag, minimum, what):
    counts = Counter(bag.y)
    for label in LABELS:
        same, other = counts[label], len(bag) - counts[label]
        if same < minimum or other < minimum:
            raise SeedRejected(
                f"{what}: label {label!r} has {same} same-label and {other} other-label "
                f"examples, need {minimum} of each"
            )


def _sq_dists(a, b):
    # accumulated per feature, the way the library's kNN code does it, so the
    # base classifier agrees with the CLI's on distance ties
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        out += (a[:, j][:, None] - b[:, j][None, :]) ** 2
    return out


class KnnVote:
    """k-nearest-neighbour majority vote, ties to the smallest label.

    This is the caller-supplied base classifier of the combined classifier
    (``ClassifierHooks.b_train`` / ``b_predict``), the same rule as the CLI's
    ``--base knn:k=3``.
    """

    def __init__(self, k):
        self.k = k
        self._x = None
        self._y = None

    def fit(self, x, y):
        self._x = np.asarray(x, dtype=float)
        self._y = list(y)

    def predict(self, x):
        order = np.argsort(_sq_dists(np.asarray(x, dtype=float), self._x), axis=1, kind="stable")
        out = []
        for row in order[:, : self.k]:
            votes = Counter(self._y[j] for j in row)
            top = max(votes.values())
            out.append(min(lbl for lbl, c in votes.items() if c == top))
        return out


def _folds(n, k, seed):
    # the combined classifier's unstratified k-fold split
    return np.array_split(SeededRng(seed).permutation(n), k)


def _require_meta_classes(bag, k_folds, seed, base_k, meta_k):
    """Both meta classes must survive in every fold's training part, with
    enough examples for the meta classifier's kNN measure."""
    correct = np.empty(len(bag), dtype=int)
    everything = np.arange(len(bag))
    base = KnnVote(base_k)
    for fold in _folds(len(bag), k_folds, seed):
        rest = np.setdiff1d(everything, fold)
        base.fit(bag.x[rest], [bag.y[i] for i in rest])
        predicted = base.predict(bag.x[fold])
        correct[fold] = [int(p == bag.y[i]) for p, i in zip(predicted, fold)]
    for fold in _folds(len(bag), k_folds, seed + 1):
        rest = np.setdiff1d(everything, fold)
        positives = int(correct[rest].sum())
        negatives = len(rest) - positives
        if min(positives, negatives) < meta_k + 1:
            raise SeedRejected(
                f"meta data: a fold's training part holds {positives} correct and "
                f"{negatives} wrong base predictions, need {meta_k + 1} of each"
            )


class Workload:
    """One benchmark workload.

    ``setup`` loads the CSVs and trains every predictor; ``prepare`` does the
    untimed work before request ``i``; ``request`` is the timed call; and
    ``check`` validates its output.  ``cli_argv`` lists the CLI invocations.
    """

    name = ""
    sizes: dict = {}
    rounds = 5
    rows_per_request = 0
    digest_requests = 0
    cli_meta_rows = 0

    def __init__(self, seed, directory):
        self.seed = seed
        self.dir = directory

    def path(self, name):
        return os.path.join(self.dir, name)

    def at_boundary(self, done):
        """Whether the timed phase may stop after ``done`` requests."""
        return True

    def extra_checks(self, state):
        """One-off checks after the timed phase; returns problems found."""
        return []


class Classify(Workload):
    name = "classify"
    sizes = {"n_train": 4000, "n_test_pool": 3000, "n_meta_train": 1500, "n_cli_test": 200,
             "dim": CLASS_DIM, "labels": len(LABELS), "batch": 10}
    rounds = 3  # a set-up and a CLI repetition take seconds here
    rows_per_request = 10
    digest_requests = 20
    cli_meta_rows = 200

    def __init__(self, seed, directory):
        super().__init__(seed, directory)
        s = self.sizes
        rng = np.random.default_rng(seed)
        train = _mixture(rng, s["n_train"])
        pool = _mixture(rng, s["n_test_pool"])
        cli_test = _mixture(rng, s["n_cli_test"])
        _require_label_counts(train, 2, "training set")
        proper, _ = conformal.data.split(train, SplitSpec(0.6, seed))
        _require_label_counts(proper, 3, "ICP proper training set")
        meta_train = train.subset(np.arange(s["n_meta_train"]))
        _require_meta_classes(meta_train, 5, seed, base_k=3, meta_k=1)
        for bag, name in ((train, "train.csv"), (pool, "test.csv"),
                          (meta_train, "meta_train.csv"), (cli_test, "cli_test.csv")):
            conformal.data.save_csv(bag, self.path(name))

    def setup(self):
        data = conformal.data
        train = data.load_csv(self.path("train.csv"), "label")
        pool = data.load_csv(self.path("test.csv"), "label")
        cp = ConformalClassifier(
            KnnClassifierMeasure(KnnConfig(k=1)),
            CpConfig(EPSILONS, smoothed=True, taxonomy=label_taxonomy),
        ).train(train)
        proper, calibration = data.split(train, SplitSpec(0.6, self.seed))
        icp = InductiveConformalClassifier(KnnClassifierMeasure(KnnConfig(k=3)), IcpConfig(EPSILONS))
        icp.train(proper).calibrate(calibration)
        venn = VennPredictor(NearestNeighborTaxonomy()).train(train)
        base = KnnVote(3)
        hooks = conformal.meta.conformal_meta_hooks(
            base.fit, base.predict, lambda: KnnClassifierMeasure(KnnConfig(k=1))
        )
        combined = CombinedClassifier(hooks, 0.9, seed=self.seed)
        combined.train(train.subset(np.arange(self.sizes["n_meta_train"])), 5)
        return {"pool": pool, "cp": cp, "icp": icp, "venn": venn, "meta": combined,
                "rng": SeededRng(self.seed)}

    def prepare(self, state, i):
        pool = state["pool"]
        lo = (i * self.rows_per_request) % len(pool)
        return pool.x[lo:lo + self.rows_per_request], pool.y[lo:lo + self.rows_per_request]

    def request(self, state, batch):
        x, y = batch
        sets_of = conformal.cp.sets_from_p_values
        report_of = conformal.metrics.validity_report
        cp_table = state["cp"].p_values(x, state["rng"])
        cp_sets = sets_of(cp_table, EPSILONS)
        icp_table = state["icp"].p_values(x)
        icp_sets = sets_of(icp_table, EPSILONS)
        predictions, intervals = state["venn"].predict(x)
        return {
            "cp": (cp_table, cp_sets, report_of(cp_sets, y, EPSILONS)),
            "icp": (icp_table, icp_sets, report_of(icp_sets, y, EPSILONS)),
            "venn": (predictions, intervals, state["venn"].matrix(x[0])),
            "meta": state["meta"].predict(x),
        }

    def check(self, state, batch, out):
        n = len(batch[1])
        problems = []
        for tag, zero_ok in (("cp", False), ("icp", True)):
            table, sets, report = out[tag]
            check_p_table(problems, tag, table, n, LABELS, zero_ok)
            check_sets(problems, tag, table, sets, EPSILONS)
            check_validity(problems, tag, report, n, EPSILONS)
        check_venn(problems, *out["venn"], n, LABELS)
        decisions = out["meta"]
        if len(decisions) != n or any(d is not ABSTAIN and d not in LABELS for d in decisions):
            problems.append("meta: decisions are not one label or ABSTAIN per row")
        return problems

    def digest_items(self, out):
        (cp_table, cp_sets, cp_report), (icp_table, icp_sets, icp_report) = out["cp"], out["icp"]
        predictions, intervals, matrix = out["venn"]
        return [
            cp_table.values, [s.per_epsilon for s in cp_sets], cp_report,
            icp_table.values, [s.per_epsilon for s in icp_sets], icp_report,
            predictions, [(i.low, i.high) for i in intervals], matrix.rows,
            ["ABSTAIN" if d is ABSTAIN else d for d in out["meta"]],
        ]

    def cli_argv(self, output):
        seed = str(self.seed)
        return [
            ["icp", "--train", self.path("train.csv"), "--test", self.path("cli_test.csv"),
             "--calibration-fraction", "0.6", "--ncm", "knn:k=3", "--seed", seed,
             "--output", output],
            ["meta", "--train", self.path("meta_train.csv"), "--test", self.path("cli_test.csv"),
             "--base", "knn:k=3", "--ncm", "knn:k=1", "--k-folds", "5",
             "--target-precision", "0.9", "--seed", seed, "--output", output],
        ]

    def check_cli(self, reports):
        problems = []
        n = self.sizes["n_cli_test"]
        icp_report, meta_report = reports
        check_cli_validity(problems, "icp cli", icp_report, n)
        calibration = self.sizes["n_train"] - int(np.ceil(self.sizes["n_train"] * 0.6))
        if icp_report["config"]["calibration_scores"] != calibration:
            problems.append("icp cli: wrong calibration score count")
        body = meta_report["report"]
        confusion = body["confusion"]
        if body["trials"] != n or sum(confusion.values()) != n:
            problems.append("meta cli: confusion counts do not add up to the test rows")
        if body["abstained"] != confusion["rp"] + confusion["rn"] or body["threshold"] < 0:
            problems.append("meta cli: abstentions or threshold inconsistent")
        return problems


class Regress(Workload):
    name = "regress"
    sizes = {"n_train": 2000, "n_test_pool": 1000, "n_cli_test": 30, "dim": len(REG_WEIGHTS),
             "k": 3, "batch": 2}
    rows_per_request = 2
    digest_requests = 20

    def __init__(self, seed, directory):
        super().__init__(seed, directory)
        s = self.sizes
        rng = np.random.default_rng(seed)
        train = _linear(rng, s["n_train"])
        if len(train) < s["k"] + 1:
            raise SeedRejected("training set too small for the kNN provider")
        for bag, name in ((train, "train.csv"), (_linear(rng, s["n_test_pool"]), "test.csv"),
                          (_linear(rng, s["n_cli_test"]), "cli_test.csv")):
            conformal.data.save_csv(bag, self.path(name), label_column="y")

    def setup(self):
        data = conformal.data
        train = data.load_csv(self.path("train.csv"), "y", "real")
        pool = data.load_csv(self.path("test.csv"), "y", "real")
        k = KnnConfig(k=self.sizes["k"])
        return {
            "pool": pool,
            "rrcm": [
                ConformalRegressor(KnnRegressionProvider(k), RrcmConfig(EPSILONS, convex_hull=hull))
                .train(train)
                for hull in (True, False)
            ],
        }

    def at_boundary(self, done):
        return done % 2 == 0

    def prepare(self, state, i):
        pool = state["pool"]
        lo = (i * self.rows_per_request) % len(pool)
        return i % 2, pool.x[lo:lo + self.rows_per_request]

    def request(self, state, batch):
        which, x = batch
        return state["rrcm"][which].predict(x)

    def check(self, state, batch, out):
        which, x = batch
        problems = []
        if len(out) != len(x):
            problems.append("rrcm: one prediction per row expected")
        for prediction in out:
            check_unions(problems, prediction, EPSILONS, hull=(which == 0))
        return problems

    def digest_items(self, out):
        return [p.per_epsilon for p in out]

    def cli_argv(self, output):
        return [
            ["rrcm", "--train", self.path("train.csv"), "--test", self.path("cli_test.csv"),
             "--label-column", "y", "--ncm", "knn:k=3", "--no-convex-hull",
             "--seed", str(self.seed), "--output", output],
        ]

    def check_cli(self, reports):
        problems = []
        body = reports[0]["report"]
        misses = [e["miss_rate"] for e in body["per_epsilon"]]
        if body["trials"] != self.sizes["n_cli_test"]:
            problems.append("rrcm cli: trials differ from the test rows")
        if any(not 0.0 <= m <= 1.0 for m in misses) or misses != sorted(misses):
            problems.append("rrcm cli: miss rates outside [0, 1] or not nested across epsilon")
        if any(e["mean_width"] < 0 for e in body["per_epsilon"]):
            problems.append("rrcm cli: negative width")
        return problems


class Online(Workload):
    name = "online"
    sizes = {"n_initial": 300, "episode_steps": 48, "chunk": 2, "n_stream_pool": 480,
             "n_cli_stream": 100, "class_dim": CLASS_DIM, "reg_dim": len(REG_WEIGHTS)}
    rows_per_request = 2

    def __init__(self, seed, directory):
        super().__init__(seed, directory)
        s = self.sizes
        rng = np.random.default_rng(seed)
        initial = _mixture(rng, s["n_initial"])
        _require_label_counts(initial, 2, "initial bag")
        files = (
            (initial, "initial.csv", "label"),
            (_mixture(rng, s["n_stream_pool"]), "stream.csv", "label"),
            (_linear(rng, s["n_initial"]), "reg_initial.csv", "y"),
            (_linear(rng, s["n_stream_pool"]), "reg_stream.csv", "y"),
            (_mixture(rng, s["n_cli_stream"]), "cli_stream.csv", "label"),
        )
        for bag, name, column in files:
            conformal.data.save_csv(bag, self.path(name), label_column=column)
        self.per_episode = self.digest_requests = s["episode_steps"] // s["chunk"]

    def setup(self):
        load = conformal.data.load_csv
        state = {
            "initial": load(self.path("initial.csv"), "label"),
            "stream": load(self.path("stream.csv"), "label"),
            "reg_initial": load(self.path("reg_initial.csv"), "y", "real"),
            "reg_stream": load(self.path("reg_stream.csv"), "y", "real"),
            "cp": ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=1)),
                                      CpConfig(EPSILONS, smoothed=True)),
            "venn": VennPredictor(NearestNeighborTaxonomy()),
            "rrcm": ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), RrcmConfig(EPSILONS)),
            "first_episode_p": [],
        }
        self._reset(state, 0)
        return state

    def _reset(self, state, episode):
        state["cp"].train(state["initial"], override=True)
        state["venn"].train(state["initial"], override=True)
        state["rrcm"].train(state["reg_initial"], override=True)
        state["rng"] = SeededRng(self.seed + episode)

    def at_boundary(self, done):
        return done % self.per_episode == 0

    def prepare(self, state, i):
        s = self.sizes
        episode, chunk = divmod(i, self.per_episode)
        if chunk == 0 and i > 0:
            self._reset(state, episode)
        lo = (episode * s["episode_steps"] + chunk * s["chunk"]) % s["n_stream_pool"]
        rows = np.arange(lo, lo + s["chunk"])
        return episode, chunk, state["stream"].subset(rows), state["reg_stream"].subset(rows)

    def request(self, state, step):
        _, _, stream, reg_stream = step
        cp_report, p = state["cp"].score_online(stream, state["rng"], return_p_values=True)
        return cp_report, p, state["venn"].score_online(stream), state["rrcm"].score_online(reg_stream)

    def check(self, state, step, out):
        episode, chunk, stream, _ = step
        cp_report, p, venn_report, rrcm_report = out
        n = len(stream)
        problems = []
        if any(len(state[name].bag) != self.sizes["n_initial"] + (chunk + 1) * n
               for name in ("cp", "venn", "rrcm")):
            problems.append("online: a bag holds the wrong number of examples after absorbing")
        check_validity(problems, "cp online", cp_report, n, EPSILONS)
        if p.shape != (n,) or not np.all((p > 0) & (p <= 1)):
            problems.append("cp online: true-label p-values outside (0, 1]")
        if episode == 0:
            state["first_episode_p"].append(p)
        if not (venn_report.trials == n and 0 <= venn_report.accuracy <= 1
                and 0 <= venn_report.mean_error_low <= venn_report.mean_error_high <= 1):
            problems.append("venn online: report outside its ranges")
        check_interval_report(problems, "rrcm online", rrcm_report, n, EPSILONS)
        return problems

    def digest_items(self, out):
        return list(out)

    def extra_checks(self, state):
        """Chunked ``score_online`` must give the same p-values as one call."""
        chunked = np.concatenate(state["first_episode_p"])
        stream = state["stream"].subset(np.arange(self.sizes["episode_steps"]))
        cp = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=1)),
                                 CpConfig(EPSILONS, smoothed=True)).train(state["initial"])
        _, single = cp.score_online(stream, SeededRng(self.seed), return_p_values=True)
        if not np.array_equal(chunked, single):
            return ["cp online: chunked score_online differs from a single call"]
        return []

    def cli_argv(self, output):
        return [
            ["cp", "--train", self.path("initial.csv"), "--test", self.path("cli_stream.csv"),
             "--online", "--taxonomy", "label", "--ncm", "knn:k=1", "--smoothed",
             "--seed", str(self.seed), "--output", output],
        ]

    def check_cli(self, reports):
        problems = []
        check_cli_validity(problems, "cp online cli", reports[0], self.sizes["n_cli_stream"])
        return problems


def check_cli_validity(problems, tag, report, n):
    body = report["report"]
    if body["trials"] != n:
        problems.append(f"{tag}: trials {body['trials']} differ from the {n} rows sent")
    for entry in body["per_epsilon"]:
        if not all(0.0 <= entry[key] <= 1.0 for key in ("err_rate", "singleton_rate", "empty_rate")):
            problems.append(f"{tag}: rates outside [0, 1]")
    sizes = [entry["n_criterion"] for entry in body["per_epsilon"]]
    if sizes != sorted(sizes, reverse=True):
        problems.append(f"{tag}: mean set size grows with epsilon")


WORKLOADS = {w.name: w for w in (Classify, Regress, Online)}
