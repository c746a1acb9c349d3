import json

import numpy as np
import pytest
from _fresh_python import run_python

from relfair.metrics import (
    FairnessReport,
    MetricUndefinedError,
    SeedResult,
    accuracy,
    aggregate,
    delta_dp,
    delta_eo,
    format_comparison_table,
    thresholded,
)


def delta_dp_by_definition(yhat, s):
    groups = sorted(set(s))
    means = [np.mean([p for p, g in zip(yhat, s) if g == grp]) for grp in groups]
    return max(abs(a - b) for a in means for b in means)


def delta_eo_by_definition(yhat, y, s):
    keep = [(p, g) for p, t, g in zip(yhat, y, s) if t == 1]
    return delta_dp_by_definition([p for p, _ in keep], [g for _, g in keep])


class TestAccuracy:
    def test_perfect_and_inverted(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert accuracy(y, y) == 1.0
        assert accuracy(1 - y, y) == 0.0

    def test_hand_counted(self):
        yhat = np.array([0.9, 0.2, 0.6, 0.4])
        y = np.array([1.0, 1.0, 1.0, 0.0])
        # thresholded: [1,0,1,0] vs [1,1,1,0] -> 3 of 4 correct
        assert accuracy(yhat, y) == pytest.approx(0.75)

    def test_threshold_boundary_counts_as_positive(self):
        assert accuracy([0.5], [1.0]) == 1.0
        assert accuracy([0.5], [0.0]) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            accuracy([], [])


@pytest.mark.parametrize("call, message", [
    (lambda: accuracy([0.2, 0.7], [[0.0, 1.0]]), "y must be 1-d"),
    (lambda: accuracy([0.2, 0.7], [1.0]), "yhat and y must have equal length"),
    (lambda: delta_dp([0.2, 0.7], [0]), "yhat and s must have equal length"),
    (lambda: delta_eo([0.2, 0.7], [1.0, 1.0], [0]), "yhat, y and s must have equal length"),
], ids=["2-d-labels", "accuracy-lengths", "delta_dp-lengths", "delta_eo-lengths"])
def test_misshapen_arguments_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestDeltaDP:
    def test_constant_predictions(self):
        s = np.array([0, 0, 1, 1])
        assert delta_dp(np.full(4, 0.7), s) == pytest.approx(0.0)

    def test_disjoint_extremes(self):
        yhat = np.array([1.0, 1.0, 0.0, 0.0])
        s = np.array([0, 0, 1, 1])
        assert delta_dp(yhat, s) == pytest.approx(1.0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            yhat = rng.uniform(size=n)
            s = rng.integers(0, 2, size=n)
            if len(set(s.tolist())) < 2:
                continue
            assert delta_dp(yhat, s) == pytest.approx(
                delta_dp_by_definition(yhat, s)
            )

    def test_permutation_and_label_swap_invariance(self):
        rng = np.random.default_rng(1)
        yhat = rng.uniform(size=20)
        s = rng.integers(0, 2, size=20)
        base = delta_dp(yhat, s)
        perm = rng.permutation(20)
        assert delta_dp(yhat[perm], s[perm]) == pytest.approx(base)
        assert delta_dp(yhat, 1 - s) == pytest.approx(base)

    def test_multigroup_max_over_pairs(self):
        yhat = np.array([0.1, 0.5, 0.9])
        s = np.array([0, 1, 2])
        assert delta_dp(yhat, s) == pytest.approx(0.8)

    def test_single_group_error(self):
        with pytest.raises(MetricUndefinedError):
            delta_dp([0.1, 0.9], [1, 1])


class TestDeltaEO:
    def test_identical_group_distributions(self):
        yhat = np.array([0.8, 0.8, 0.8, 0.8, 0.1])
        y = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        s = np.array([0, 1, 0, 1, 0])
        assert delta_eo(yhat, y, s) == pytest.approx(0.0)

    def test_extreme_groups(self):
        yhat = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.ones(4)
        s = np.array([0, 0, 1, 1])
        assert delta_eo(yhat, y, s) == pytest.approx(1.0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 30:
            n = int(rng.integers(8, 40))
            yhat = rng.uniform(size=n)
            y = (rng.uniform(size=n) > 0.4).astype(float)
            s = rng.integers(0, 2, size=n)
            pos_groups = set(s[y == 1].tolist())
            if pos_groups != set(s.tolist()) or len(pos_groups) < 2:
                continue
            done += 1
            assert delta_eo(yhat, y, s) == pytest.approx(
                delta_eo_by_definition(yhat, y, s)
            )

    def test_group_without_positives_is_error(self):
        yhat = np.array([0.2, 0.8, 0.5, 0.5])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        s = np.array([0, 0, 1, 1])  # group 1 has no positive labels
        with pytest.raises(MetricUndefinedError):
            delta_eo(yhat, y, s)

    def test_error_names_the_plain_group_code(self):
        s = np.array([0, 0, 1, 1], dtype=np.int64)  # group 0 has no positive labels
        with pytest.raises(
            MetricUndefinedError,
            match=r"^delta_eo undefined: group 0 has no qualifying rows$",
        ):
            delta_eo(np.full(4, 0.5), np.array([0.0, 0.0, 1.0, 1.0]), s)

    def test_only_uses_positive_rows(self):
        yhat = np.array([0.9, 0.1, 0.123, 0.987])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        s = np.array([0, 1, 0, 1])
        assert delta_eo(yhat, y, s) == pytest.approx(0.8)


def test_finding_groups_imports_no_masked_arrays():
    # np.unique without return_inverse imports numpy.ma on its first call
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import relfair.cli\n"
        "from relfair.metrics import delta_dp\n"
        "delta_dp(np.array([0.2, 0.4, 0.6]), np.array([0, 1, 1]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert run_python(["-c", code]) == "False\n"


class TestHardVariants:
    def test_coincide_on_binary_predictions(self):
        rng = np.random.default_rng(3)
        yhat = (rng.uniform(size=30) > 0.5).astype(float)
        y = (rng.uniform(size=30) > 0.5).astype(float)
        s = rng.integers(0, 2, size=30)
        hard = thresholded(yhat)
        assert np.array_equal(hard, yhat)
        assert delta_dp(hard, s) == pytest.approx(delta_dp(yhat, s))

    def test_thresholding_probabilities(self):
        yhat = np.array([0.2, 0.5, 0.8])
        assert thresholded(yhat).tolist() == [0.0, 1.0, 1.0]


class TestNonFiniteScores:
    """A NaN or inf score is an error naming the metric and the first bad row."""

    def test_delta_dp(self):
        with pytest.raises(ValueError, match=r"delta_dp: yhat\[1\] is nan"):
            delta_dp([0.1, np.nan, 0.2], [0, 1, 1])

    def test_delta_eo(self):
        with pytest.raises(ValueError, match=r"delta_eo: yhat\[1\] is nan"):
            delta_eo([0.3, np.nan], [1, 1], [0, 1])

    def test_accuracy(self):
        with pytest.raises(ValueError, match=r"accuracy: yhat\[0\] is nan"):
            accuracy([np.nan, 0.9], [0, 1])

    def test_inf_names_the_first_bad_row(self):
        with pytest.raises(ValueError, match=r"delta_dp: yhat\[2\] is -inf"):
            delta_dp([0.1, 0.4, -np.inf, np.nan], [0, 1, 1, 0])


class TestAggregate:
    def test_single_seed_no_std(self):
        rep = aggregate([SeedResult(0, 0.8, 0.1, 0.2)])
        assert rep.accuracy == 0.8
        assert rep.accuracy_std is None
        assert "accuracy_std" not in rep.to_dict()

    def test_two_identical_seeds_zero_std(self):
        rep = aggregate(
            [SeedResult(0, 0.8, 0.1, 0.2), SeedResult(1, 0.8, 0.1, 0.2)]
        )
        assert rep.accuracy_std == pytest.approx(0.0)

    def test_five_seeds_hand_computed(self):
        accs = [0.80, 0.82, 0.84, 0.86, 0.88]
        reports = [SeedResult(i, a, 0.1, 0.2) for i, a in enumerate(accs)]
        rep = aggregate(reports)
        mean = sum(accs) / 5
        var = sum((a - mean) ** 2 for a in accs) / 4  # sample variance
        assert rep.accuracy == pytest.approx(mean)
        assert rep.accuracy_std == pytest.approx(var**0.5)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ValueError):
            SeedResult(0, 1.2, 0.0, 0.0)

    def test_json_round_trip(self):
        rep = aggregate(
            [SeedResult(0, 0.8, 0.1, 0.2), SeedResult(1, 0.9, 0.2, 0.3)]
        )
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["accuracy"] == pytest.approx(0.85)
        assert len(payload["per_seed"]) == 2


class TestTableFormat:
    def test_layout(self):
        rows = {
            "Vanilla": FairnessReport(0.856, 0.046, 0.089, (), 0.003, 0.012, 0.008),
            "FairRF": FairnessReport(0.832, 0.025, 0.066, ()),
        }
        text = format_comparison_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("Method")
        assert any("0.856 +/- 0.003" in ln for ln in lines)
        assert any("FairRF" in ln and "0.832" in ln for ln in lines)
