import json
from collections import Counter

import numpy as np
import pytest

from _support import gaussian_blobs, linear_regression_bag
import conformal.meta
from conformal import save_csv
from conformal.cli import _base_classifier, main
from conformal.ncm import _pairwise_sq_dists


@pytest.fixture
def class_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    save_csv(gaussian_blobs(60, seed=1), train)
    save_csv(gaussian_blobs(20, seed=2), test)
    return str(train), str(test)


@pytest.fixture
def reg_files(tmp_path):
    train = tmp_path / "train_reg.csv"
    test = tmp_path / "test_reg.csv"
    save_csv(linear_regression_bag(50, seed=3), train, label_column="y")
    save_csv(linear_regression_bag(15, seed=4), test, label_column="y")
    return str(train), str(test)


def run(argv, out_path):
    code = main(argv + ["--output", str(out_path)])
    return code, out_path.read_text() if out_path.exists() else None


class TestCpCommand:
    def test_report_structure(self, class_files, tmp_path):
        train, test = class_files
        code, text = run(
            ["cp", "--train", train, "--test", test, "--epsilons", "0.05,0.1",
             "--ncm", "knn:k=1", "--seed", "7"],
            tmp_path / "report.json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["command"] == "cp"
        assert report["config"]["seed"] == 7
        assert [b["epsilon"] for b in report["report"]["per_epsilon"]] == [0.05, 0.1]
        assert report["report"]["trials"] == 20

    def test_byte_identical_reruns(self, class_files, tmp_path):
        train, test = class_files
        argv = ["cp", "--train", train, "--test", test, "--smoothed", "--seed", "11"]
        _, first = run(argv, tmp_path / "a.json")
        _, second = run(argv, tmp_path / "b.json")
        assert first == second

    def test_online_flag(self, class_files, tmp_path):
        train, test = class_files
        code, text = run(
            ["cp", "--train", train, "--test", test, "--online", "--seed", "1"],
            tmp_path / "online.json",
        )
        assert code == 0
        assert json.loads(text)["config"]["online"] is True

    def test_label_taxonomy_flag(self, class_files, tmp_path):
        train, test = class_files
        code, _ = run(
            ["cp", "--train", train, "--test", test, "--taxonomy", "label"],
            tmp_path / "mond.json",
        )
        assert code == 0

    def test_bad_spec_is_usage_error(self, class_files, tmp_path):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["cp", "--train", train, "--test", test, "--ncm", "forest:k=1"])
        assert err.value.code == 2

    def test_bad_epsilons_is_usage_error(self, class_files):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["cp", "--train", train, "--test", test, "--epsilons", "0.2,0.1"])
        assert err.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path, class_files, capsys):
        _, test = class_files
        code = main(["cp", "--train", str(tmp_path / "nope.csv"), "--test", test])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestIcpCommand:
    def test_requires_calibration_source(self, class_files):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["icp", "--train", train, "--test", test])
        assert err.value.code == 2

    def test_with_calibration_file(self, class_files, tmp_path):
        train, test = class_files
        cal = tmp_path / "cal.csv"
        save_csv(gaussian_blobs(30, seed=5), cal)
        code, text = run(
            ["icp", "--train", train, "--test", test, "--calibration", str(cal)],
            tmp_path / "icp.json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["config"]["calibration_scores"] == 30

    def test_with_calibration_fraction(self, class_files, tmp_path):
        train, test = class_files
        code, text = run(
            ["icp", "--train", train, "--test", test, "--calibration-fraction", "0.5",
             "--include-test-in-count"],
            tmp_path / "icp2.json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["config"]["calibration_scores"] == 30  # 60 * 0.5 held out
        assert report["config"]["include_test_in_count"] is True

    @pytest.mark.parametrize("fraction", ["1.5", "0", "-0.2", "1"])
    def test_fraction_outside_unit_interval_is_usage_error(self, class_files, fraction):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["icp", "--train", train, "--test", test, "--calibration-fraction", fraction])
        assert err.value.code == 2

    def test_calibration_file_and_fraction_are_exclusive(self, class_files):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["icp", "--train", train, "--test", test, "--calibration", train,
                  "--calibration-fraction", "0.5"])
        assert err.value.code == 2

    def test_fraction_leaving_no_calibration_is_data_error(self, class_files, tmp_path, capsys):
        # ceil(60 * 0.999) = 60 rows would stay for training, none for calibration
        train, test = class_files
        code = main(["icp", "--train", train, "--test", test, "--calibration-fraction", "0.999",
                     "--output", str(tmp_path / "icp.json")])
        assert code == 1
        assert "held-out" in capsys.readouterr().err
        assert not (tmp_path / "icp.json").exists()


class TestRrcmCommand:
    def test_report_structure(self, reg_files, tmp_path):
        train, test = reg_files
        code, text = run(
            ["rrcm", "--train", train, "--test", test, "--label-column", "y",
             "--ncm", "knn:k=3", "--epsilons", "0.1,0.3"],
            tmp_path / "rrcm.json",
        )
        assert code == 0
        report = json.loads(text)
        blocks = report["report"]["per_epsilon"]
        assert [b["epsilon"] for b in blocks] == [0.1, 0.3]
        assert all(0.0 <= b["miss_rate"] <= 1.0 for b in blocks)

    def test_no_convex_hull_flag(self, reg_files, tmp_path):
        train, test = reg_files
        code, text = run(
            ["rrcm", "--train", train, "--test", test, "--label-column", "y",
             "--no-convex-hull"],
            tmp_path / "holes.json",
        )
        assert code == 0
        assert json.loads(text)["config"]["convex_hull"] is False

    def test_deterministic(self, reg_files, tmp_path):
        train, test = reg_files
        argv = ["rrcm", "--train", train, "--test", test, "--label-column", "y", "--online"]
        _, first = run(argv, tmp_path / "a.json")
        _, second = run(argv, tmp_path / "b.json")
        assert first == second


class TestVennCommand:
    def test_report_structure(self, class_files, tmp_path):
        train, test = class_files
        code, text = run(["venn", "--train", train, "--test", test], tmp_path / "venn.json")
        assert code == 0
        report = json.loads(text)
        low, high = report["report"]["mean_error_interval"]
        assert 0.0 <= low <= high <= 1.0
        assert 0.0 <= report["report"]["accuracy"] <= 1.0

    def test_online_flag(self, class_files, tmp_path):
        train, test = class_files
        code, text = run(["venn", "--train", train, "--test", test, "--online"],
                         tmp_path / "venn_online.json")
        assert code == 0
        assert json.loads(text)["report"]["trials"] == 20


class TestMetaCommand:
    def test_report_structure(self, class_files, tmp_path):
        train, test = class_files
        roc_path = tmp_path / "roc.tsv"
        code, text = run(
            ["meta", "--train", train, "--test", test, "--base", "knn:k=3",
             "--k-folds", "4", "--target-precision", "0.85",
             "--emit-roc", str(roc_path), "--seed", "5"],
            tmp_path / "meta.json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["report"]["threshold"] >= 0.0
        confusion = report["report"]["confusion"]
        assert sum(confusion.values()) == 20
        assert roc_path.exists()
        kinds = {line.split("\t")[0] for line in roc_path.read_text().strip().split("\n")}
        assert kinds == {"roc", "hull", "iso"}

    def test_deterministic(self, class_files, tmp_path):
        train, test = class_files
        argv = ["meta", "--train", train, "--test", test, "--seed", "9", "--k-folds", "3"]
        _, first = run(argv, tmp_path / "a.json")
        _, second = run(argv, tmp_path / "b.json")
        assert first == second

    def test_bad_k_folds(self, class_files):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["meta", "--train", train, "--test", test, "--k-folds", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("spec", ["knn:k=0", "knn:k=3,foo=1", "knn:k=2.5", "cart:depth=2",
                                      "cart:max_depth=2,min_leaf=1.5", "cart:max_depth=2.5"])
    def test_bad_base_spec_is_usage_error(self, class_files, spec):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["meta", "--train", train, "--test", test, "--base", spec])
        assert err.value.code == 2

    def test_bad_measure_spec_rejected_before_any_training(self, class_files, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the base classifier ran before --ncm was checked")

        monkeypatch.setattr(conformal.meta, "kfold_meta_data", no_training)
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["meta", "--train", train, "--test", test, "--ncm", "forest:k=1"])
        assert err.value.code == 2

    def test_fractional_cart_measure_is_usage_error(self, class_files):
        train, test = class_files
        with pytest.raises(SystemExit) as err:
            main(["meta", "--train", train, "--test", test, "--ncm", "cart:max_depth=2,min_leaf=1.5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("base", ["cart:max_depth=2", "knn:k=3"])
    def test_narrower_test_rows_are_data_error(self, tmp_path, capsys, base):
        train, test = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        # overlapping classes so the base classifier leaves enough meta zeros
        save_csv(gaussian_blobs(80, seed=9, centers=((0, 0, 0), (1, 1, 1))), train)
        save_csv(gaussian_blobs(10, seed=2), test)
        code = main(["meta", "--train", str(train), "--test", str(test), "--base", base,
                     "--k-folds", "3", "--output", str(tmp_path / "meta.json")])
        assert code == 1
        assert "error: observations must form a matrix with 3 columns" in capsys.readouterr().err

    def test_cart_base(self, tmp_path):
        # overlapping classes so the base classifier leaves enough meta zeros
        train = tmp_path / "noisy_train.csv"
        test = tmp_path / "noisy_test.csv"
        save_csv(gaussian_blobs(80, seed=8, centers=((0, 0), (1, 1))), train)
        save_csv(gaussian_blobs(20, seed=9, centers=((0, 0), (1, 1))), test)
        code, _ = run(
            ["meta", "--train", str(train), "--test", str(test),
             "--base", "cart:max_depth=3", "--k-folds", "3"],
            tmp_path / "cart.json",
        )
        assert code == 0


class TestStdout:
    def test_defaults_to_stdout(self, class_files, capsys):
        train, test = class_files
        code = main(["cp", "--train", train, "--test", test])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["command"] == "cp"


def counter_vote(x, y, queries, k):
    """Reference vote: the k nearest rows by Euclidean distance (ties to the
    lower index), then the most frequent label, ties to the smallest."""
    out = []
    for q in queries:
        nearest = np.argsort(np.sqrt(((x - q) ** 2).sum(axis=1)), kind="stable")[:k]
        votes = Counter(y[j] for j in nearest)
        top = max(votes.values())
        out.append(min(lbl for lbl, c in votes.items() if c == top))
    return out


class TestKnnBaseVote:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_counter_reference_on_integer_grid(self, k):
        # a coarse grid gives many distance ties and, at even k, vote ties;
        # labels first appear out of sorted order
        rng = np.random.default_rng(40 + k)
        x = rng.integers(-2, 3, size=(45, 2)).astype(float)
        y = [("C", "A", "B")[i] for i in rng.integers(0, 3, size=45)]
        queries = np.vstack([rng.integers(-3, 4, size=(40, 2)).astype(float), x])
        base = _base_classifier(f"knn:k={k}")
        base.fit(x, y)
        assert base.predict(queries) == counter_vote(x, y, queries, k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_equals_full_argsort_vote_with_ties_at_the_kth_place(self, k):
        # the vote of a full stable argsort of each distance row: the
        # selection must take the same lower-index rows at the k-th distance
        checked = 0
        for seed in range(5):
            rng = np.random.default_rng(70 + 10 * k + seed)
            x = rng.integers(-1, 2, size=(30, 2)).astype(float)
            y = [("B", "C", "A")[i] for i in rng.integers(0, 3, size=30)]
            queries = np.vstack([rng.integers(-2, 3, size=(25, 2)).astype(float), x[:5]])
            base = _base_classifier(f"knn:k={k}")
            base.fit(x, y)
            sq = _pairwise_sq_dists(queries, x)
            order = np.argsort(sq, axis=1, kind="stable")
            labels = sorted(set(y))
            codes = np.array([labels.index(v) for v in y])
            votes = (codes[order[:, :k]][:, :, None] == np.arange(len(labels))).sum(axis=1)
            assert base.predict(queries) == [labels[c] for c in votes.argmax(axis=1)]
            kth = np.take_along_axis(sq, order[:, k - 1 : k], axis=1)
            # rows where more neighbours tie at the k-th distance than fit
            checked += int(((sq <= kth).sum(axis=1) > k).sum())
        assert checked > 0
