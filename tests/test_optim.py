"""Damped least squares: finite differences and descent behavior.

Jacobian checks compare against hand-derived matrices. The solver is
exercised on problems with known minimizers (a linear system cross-checked
against numpy's lstsq, the classic banana-valley residual) plus the
termination and failure paths.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import REPO_ROOT
from groundcam import lm
from groundcam.optim import (
    LeastSquaresProblem,
    TerminationReason,
    levenberg_marquardt,
    numeric_jacobian,
)

# ---------------------------------------------------------------------------
# numeric_jacobian
# ---------------------------------------------------------------------------


class TestNumericJacobian:
    def test_identity_residual(self, rng):
        problem = LeastSquaresProblem(residual=lambda x: x)
        x = rng.uniform(-5, 5, 4)
        assert np.allclose(numeric_jacobian(problem, x), np.eye(4), atol=1e-9)

    def test_hand_derived_quadratic(self):
        # r = [x0^2, x0*x1] at (2, 3): J = [[4, 0], [3, 2]]. Central
        # differences are exact on quadratics up to roundoff.
        problem = LeastSquaresProblem(
            residual=lambda x: np.array([x[0] ** 2, x[0] * x[1]]),
        )
        jac = numeric_jacobian(problem, np.array([2.0, 3.0]))
        assert np.allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-8)

    def test_trig_residual_matches_analytic(self):
        problem = LeastSquaresProblem(
            residual=lambda x: np.array(
                [math.sin(x[0]) * x[1], math.exp(0.5 * x[0]) + x[1] ** 3]
            ),
        )
        x = np.array([0.7, -1.3])
        expected = np.array(
            [
                [math.cos(0.7) * -1.3, math.sin(0.7)],
                [0.5 * math.exp(0.35), 3 * 1.69],
            ]
        )
        assert np.allclose(numeric_jacobian(problem, x), expected, rtol=1e-7)

    def test_halving_the_step_quarters_the_error(self):
        # Second-order accuracy: truncation error scales with h^2.
        problem = LeastSquaresProblem(
            residual=lambda x: np.array([math.exp(x[0])]),
        )
        x = np.array([0.3])
        exact = math.exp(0.3)
        err = lambda h: abs(numeric_jacobian(problem, x, base_step=h)[0, 0] - exact)
        ratio = err(2e-4) / err(1e-4)
        assert 3.0 < ratio < 5.0

    def test_non_finite_probe_raises(self):
        # The residual blows up just left of the probe point.
        def residual(x: np.ndarray) -> np.ndarray:
            return np.array([math.sqrt(x[0]) if x[0] >= 0 else math.nan])

        problem = LeastSquaresProblem(residual=residual)
        with pytest.raises(
            ValueError, match="non-finite residual while probing parameter 0"
        ):
            numeric_jacobian(problem, np.array([1e-9]))


# ---------------------------------------------------------------------------
# levenberg_marquardt
# ---------------------------------------------------------------------------


def _linear_problem(a: np.ndarray, b: np.ndarray) -> LeastSquaresProblem:
    return LeastSquaresProblem(
        residual=lambda x: a @ x - b,
    )


def _rosenbrock() -> LeastSquaresProblem:
    return LeastSquaresProblem(
        residual=lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
    )


class TestLevenbergMarquardt:
    def test_linear_problem_matches_qr_solution(self, rng):
        a = rng.normal(0.0, 1.0, (6, 3))
        b = rng.normal(0.0, 1.0, 6)
        result = levenberg_marquardt(_linear_problem(a, b), np.zeros(3))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(result.x, expected, atol=1e-8)
        assert result.iterations <= 5

    def test_banana_valley_from_standard_start(self):
        result = levenberg_marquardt(_rosenbrock(), np.array([-1.2, 1.0]))
        assert abs(result.x[0] - 1.0) < 1e-6
        assert abs(result.x[1] - 1.0) < 1e-6
        assert result.cost < 1e-12

    def test_already_optimal_start(self):
        problem = LeastSquaresProblem(residual=lambda x: x)
        result = levenberg_marquardt(problem, np.zeros(2))
        assert result.iterations == 0
        assert result.cost == 0.0
        assert result.reason is TerminationReason.GRADIENT

    def test_cost_strictly_decreases_per_iteration(self):
        # Every completed iteration accepts exactly one downhill step, so
        # capping the iteration count exposes the cost trajectory.
        costs = []
        for cap in range(1, 6):
            result = levenberg_marquardt(
                _rosenbrock(),
                np.array([-1.2, 1.0]),
                max_iterations=cap,
            )
            if result.reason is not TerminationReason.MAX_ITERATIONS:
                break
            costs.append(result.cost)
        assert len(costs) >= 3
        for earlier, later in zip(costs, costs[1:]):
            assert later < earlier

    def test_final_cost_never_exceeds_initial(self, rng):
        problem = _rosenbrock()
        for _ in range(20):
            x0 = rng.uniform(-3, 3, 2)
            r0 = problem.residual(x0)
            initial = 0.5 * float(r0 @ r0)
            result = levenberg_marquardt(
                problem, x0, max_iterations=rng.integers(1, 30)
            )
            assert result.cost <= initial

    def test_supplied_jacobian_is_used(self, rng):
        a = rng.normal(0.0, 1.0, (5, 2))
        b = rng.normal(0.0, 1.0, 5)
        calls = []

        def jacobian(x: np.ndarray) -> np.ndarray:
            calls.append(x.copy())
            return a

        problem = LeastSquaresProblem(
            residual=lambda x: a @ x - b,
            jacobian=jacobian,
        )
        result = levenberg_marquardt(problem, np.zeros(2))
        assert calls
        assert np.allclose(result.x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-8)

    def test_small_residual_decrease_stops_on_cost(self):
        problem = LeastSquaresProblem(residual=lambda x: x - 1.0)
        result = levenberg_marquardt(problem, np.array([1.0 + 1e-7]))
        assert result.reason is TerminationReason.COST
        assert result.iterations == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_no_reject_streak_at_the_float_floor(self, seed):
        # A large cost at the minimum: 0.5 |r|^2 is about 9e5, whose last
        # bit alone, 1.2e-10, is a hundred times the absolute COST_TOL.
        # Near the floor every trial step's cost differs from the kept one
        # by rounding only; the relative term ends the run on the first
        # such decrease instead of damping on through rejected trials.
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, (2000, 8))
        b = rng.normal(0.0, 30.0, 2000)
        calls = []

        def residual(x: np.ndarray) -> np.ndarray:
            calls.append(x)
            ax = a @ x
            return ax + 0.01 * np.sin(ax) - b

        problem = LeastSquaresProblem(
            residual=residual,
            jacobian=lambda x: (1.0 + 0.01 * np.cos(a @ x))[:, None] * a,
        )
        result = levenberg_marquardt(problem, np.zeros(8))
        assert result.reason is TerminationReason.COST
        assert len(calls) <= result.iterations + 2

    def test_short_proposed_step_stops_before_moving(self):
        # The first proposed step is about 1e-13, below the 1e-12 step
        # tolerance, while the gradient (about 0.1) is far above its own.
        problem = LeastSquaresProblem(residual=lambda x: 1e6 * (x - 1.0))
        x0 = np.array([1.0 + 1e-13])
        result = levenberg_marquardt(problem, x0)
        assert result.reason is TerminationReason.STEP
        assert result.iterations == 0
        assert result.x[0] == x0[0]

    def test_iteration_cap_reported(self):
        result = levenberg_marquardt(
            _rosenbrock(), np.array([-1.2, 1.0]), max_iterations=2
        )
        assert result.reason is TerminationReason.MAX_ITERATIONS
        assert result.iterations == 2

    def test_non_finite_start_raises(self):
        problem = LeastSquaresProblem(residual=lambda x: np.array([math.nan]))
        with pytest.raises(ValueError, match="residual at x0 is non-finite"):
            levenberg_marquardt(problem, np.zeros(1))

    def test_non_finite_supplied_jacobian_raises(self):
        problem = LeastSquaresProblem(
            residual=lambda x: x - 1.0,
            jacobian=lambda x: np.array([[math.inf]]),
        )
        with pytest.raises(ValueError, match="jacobian is non-finite"):
            levenberg_marquardt(problem, np.zeros(1))

    def test_structurally_singular_system_raises(self):
        # Both residuals depend on x0 alone, so the damped normal matrix
        # keeps a zero row for x1 at every damping level.
        problem = LeastSquaresProblem(
            residual=lambda x: np.array([x[0] - 1.0, x[0] + 1.0]),
        )
        with pytest.raises(ValueError, match="normal equations unsolvable at lambda="):
            levenberg_marquardt(problem, np.array([5.0, 0.0]))

    def test_non_finite_trial_is_rejected_like_a_costlier_one(self):
        # r = x - 5 is infinite from x = 2 on, so the undamped step to 5 is
        # refused until the damping shortens it below the wall.
        problem = LeastSquaresProblem(
            residual=lambda x: np.array([x[0] - 5.0 if x[0] < 2.0 else math.inf]),
            jacobian=lambda x: np.array([[1.0]]),
        )
        result = levenberg_marquardt(problem, np.zeros(1))
        assert result.iterations >= 1
        assert 0.0 < result.x[0] < 2.0
        assert result.cost == 0.5 * (result.x[0] - 5.0) ** 2 < 12.5

    def test_residual_changing_length_raises(self):
        problem = LeastSquaresProblem(
            residual=lambda x: x - 5.0 if x[0] < 2.0 else np.append(x - 5.0, 0.0),
            jacobian=lambda x: np.array([[1.0]]),
        )
        with pytest.raises(ValueError, match="^residual returned 2 values, expected 1$"):
            levenberg_marquardt(problem, np.zeros(1))

    def test_wrong_jacobian_shape_raises(self):
        problem = LeastSquaresProblem(
            residual=lambda x: x,
            jacobian=lambda x: np.eye(3),
        )
        with pytest.raises(ValueError):
            levenberg_marquardt(problem, np.ones(2))


# ---------------------------------------------------------------------------
# Configuration objects
# ---------------------------------------------------------------------------


def test_problem_dimension_validation():
    problem = LeastSquaresProblem(residual=lambda x: x[:2])
    with pytest.raises(ValueError, match="problem dimensions must be positive"):
        levenberg_marquardt(problem, np.zeros(0))
    with pytest.raises(ValueError, match=r"residuals \(2\) as parameters \(3\)"):
        levenberg_marquardt(problem, np.zeros(3))


def test_options_validation():
    with pytest.raises(ValueError):
        levenberg_marquardt(_rosenbrock(), np.array([-1.2, 1.0]), max_iterations=0)


def test_termination_reason_values():
    assert TerminationReason.GRADIENT.value == "gradient"
    assert TerminationReason.STEP.value == "step"
    assert TerminationReason.COST.value == "cost"
    assert TerminationReason.MAX_ITERATIONS.value == "max_iterations"


def test_readme_states_the_stopping_rule():
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    match = re.search(
        r"largest \|J\^T r\| entry is at most (\S+), a proposed step is shorter"
        r" than (\S+), or a kept step lowers the cost by less than (\S+) \+ (\S+)"
        r" × cost\.",
        readme,
    )
    assert match is not None
    stated = [float(v) for v in match.groups()]
    assert stated == [lm.GRADIENT_TOL, lm.STEP_TOL, lm.COST_TOL, lm.COST_RTOL]
