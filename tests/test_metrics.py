import math
import warnings

import numpy as np
import pytest

from gaga import DimensionError, EvaluationReport, acc, err


class TestErr:
    def test_identity(self):
        assert err([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert err([3.0, 4.0], [0.0, 0.0]) == 5.0

    def test_unit_vector(self):
        assert err([1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            err([1.0], [1.0, 2.0])

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert err([1e308, 0.0], [0.0, 1.0]) == math.inf
            assert err([1.7e308], [-1.7e308]) == math.inf

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = rng.standard_normal((3, 6))
            assert err(a, b) == err(b, a)
            assert err(a, c) <= err(a, b) + err(b, c) + 1e-12


class TestAcc:
    def test_perfect_recovery(self):
        rep = acc([1.0, 0.0, 0.0, 2.0], [1.0, 0.0, 0.0, 2.0])
        assert rep.acc == 1.0
        assert rep.true_positives == 2
        assert rep.true_negatives == 2

    def test_mixed_confusion(self):
        rep = acc([0.9, 0.0, 0.1, 2.2], [1.0, 0.0, 0.0, 2.0])
        assert (rep.true_positives, rep.true_negatives,
                rep.false_positives, rep.false_negatives) == (2, 1, 1, 0)
        assert rep.acc == 0.75

    def test_all_zero_estimate(self):
        truth = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0])
        rep = acc(np.zeros(8), truth)
        assert rep.acc == 5 / 8

    def test_acc_is_computed_from_the_counts(self):
        rep = EvaluationReport(err=0.0, true_positives=1, true_negatives=2,
                               false_positives=3, false_negatives=4)
        assert rep.acc == 0.3

    def test_counts_sum_to_p(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = rng.choice([0.0, 1.0, -2.0], 10)
            t = rng.choice([0.0, 3.0], 10)
            rep = acc(e, t)
            total = (rep.true_positives + rep.true_negatives
                     + rep.false_positives + rep.false_negatives)
            assert total == 10
            assert rep.acc == (rep.true_positives + rep.true_negatives) / 10

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        e = rng.choice([0.0, 1.5, -0.5], 12)
        t = rng.choice([0.0, 2.0], 12)
        assert acc(3.7 * e, 0.1 * t).acc == acc(e, t).acc

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        e = rng.choice([0.0, 1.0], 9)
        t = rng.choice([0.0, 1.0], 9)
        perm = rng.permutation(9)
        assert acc(e[perm], t[perm]).acc == acc(e, t).acc
        assert err(e[perm], t[perm]) == err(e, t)
