"""Loss function and Adam optimizer tests against hand-rolled oracles."""
import numpy as np
import pytest

from gridcast.errors import ShapeError
from gridcast.nn.losses import mse_loss
from gridcast.nn.optim import Adam
from helpers import raises_exactly


class TestMseLoss:
    def test_hand_worked_example(self):
        loss, _ = mse_loss(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert loss == pytest.approx(12.5)  # (9 + 16) / 2

    def test_perfect_prediction(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_gradient_formula(self):
        pred = np.array([1.0, 5.0, -2.0])
        target = np.array([0.0, 3.0, -2.0])
        _, grad = mse_loss(pred, target)
        assert np.allclose(grad, 2.0 * (pred - target) / 3.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=6)
        target = rng.normal(size=6)
        _, grad = mse_loss(pred, target)
        h = 1e-6
        for k in range(6):
            bumped = pred.copy()
            bumped[k] += h
            up, _ = mse_loss(bumped, target)
            bumped[k] -= 2 * h
            down, _ = mse_loss(bumped, target)
            assert grad[k] == pytest.approx((up - down) / (2 * h), rel=1e-6)

    def test_shape_checks(self):
        with raises_exactly(ShapeError, "pred shape (3,) != target shape (4,)"):
            mse_loss(np.zeros(3), np.zeros(4))
        with raises_exactly(ShapeError,
                            "pred shape (3, 1) != target shape (3,)"):
            mse_loss(np.zeros((3, 1)), np.zeros(3))
        with raises_exactly(ShapeError, "mse_loss needs at least one element"):
            mse_loss(np.zeros(0), np.zeros(0))


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # With bias correction, the very first update is
        # lr * g / (|g| + eps): about lr for any gradient scale, with a
        # visible eps haircut only once g approaches eps itself.
        for g0 in (1e-6, 1.0, 1e6):
            p = np.array([0.0])
            opt = Adam([p], learning_rate=0.001)
            opt.step([np.array([g0])])
            assert abs(p[0]) == pytest.approx(0.001 * g0 / (g0 + 1e-8), rel=1e-12)
            assert abs(p[0]) == pytest.approx(0.001, rel=2e-2)
            assert p[0] < 0  # moves against the gradient

    def test_zero_gradient_changes_nothing(self):
        p = np.array([3.0, -1.0])
        opt = Adam([p], 0.001)
        for _ in range(5):
            opt.step([np.zeros(2)])
        assert np.array_equal(p, [3.0, -1.0])

    def test_three_steps_match_scalar_recurrence(self):
        # Independent oracle: replay the textbook update, with Kingma &
        # Ba's decay rates and eps, in plain python floats for one scalar
        # parameter.
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        grads = [0.3, -0.2, 0.7]

        theta, m, v = 1.0, 0.0, 0.0
        for k, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** k)
            v_hat = v / (1 - b2 ** k)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

        p = np.array([1.0])
        opt = Adam([p], lr)
        for g in grads:
            opt.step([np.array([g])])
        assert p[0] == pytest.approx(theta, rel=1e-14)

    def test_updates_all_parameter_arrays(self):
        w = np.ones((2, 2))
        b = np.ones(2)
        opt = Adam([w, b], learning_rate=0.1)
        opt.step([np.ones((2, 2)), np.ones(2)])
        assert np.all(w < 1.0) and np.all(b < 1.0)

    def test_constant_gradient_descends_monotonically(self):
        p = np.array([5.0])
        opt = Adam([p], learning_rate=0.01)
        previous = p[0]
        for _ in range(50):
            opt.step([np.array([2.0])])
            assert p[0] < previous
            previous = p[0]

    def test_shape_mismatch(self):
        opt = Adam([np.zeros(3)], 0.001)
        with raises_exactly(ShapeError,
                            "gradient shape (4,) != parameter shape (3,)"):
            opt.step([np.zeros(4)])
        with raises_exactly(ShapeError, "got 2 gradients for 1 parameters"):
            opt.step([np.zeros(3), np.zeros(3)])
