"""Shared nonlinear and linear least-squares machinery.

The Levenberg-Marquardt solver damps with the Marquardt diagonal,
(J.T J + lambda diag(J.T J)) delta = -J.T r, accepts a step only on a strict
cost decrease (lambda x0.1 on accept, x10 on reject), and reports which
tolerance ended the run. Jacobians default to central differences; a problem
may supply its own analytic jacobian callable instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class OptimError(ValueError):
    """Base class for solver failure modes."""


class NonFiniteResidual(OptimError):
    """A residual evaluation produced NaN or infinity."""


class SingularNormalEquations(OptimError):
    """Damped normal equations stayed unsolvable up to lambda = 1e10."""


class RankDeficient(OptimError):
    """Linear system has (numerically) dependent columns."""


class TerminationReason(str, enum.Enum):
    GRADIENT = "gradient"
    STEP = "step"
    COST = "cost"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LeastSquaresProblem:
    """Residual map r(x): R^n -> R^m with m >= n.

    jacobian, when given, must return the (m, n) matrix of d r_j / d x_i.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    n_params: int
    n_residuals: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.n_params <= 0 or self.n_residuals <= 0:
            raise ValueError("problem dimensions must be positive")
        if self.n_residuals < self.n_params:
            raise ValueError(
                f"need at least as many residuals ({self.n_residuals}) "
                f"as parameters ({self.n_params})"
            )


@dataclass(frozen=True, eq=False)
class LmResult:
    x: np.ndarray
    cost: float
    iterations: int
    reason: TerminationReason


INITIAL_LAMBDA = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_GIVE_UP = 1e10
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
COST_TOL = 1e-12


def _evaluate(problem: LeastSquaresProblem, x: np.ndarray) -> np.ndarray:
    r = np.asarray(problem.residual(x), dtype=float).reshape(-1)
    if r.shape[0] != problem.n_residuals:
        raise ValueError(
            f"residual returned {r.shape[0]} values, expected {problem.n_residuals}"
        )
    return r


def numeric_jacobian(
    problem: LeastSquaresProblem, x: np.ndarray, base_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step max(h, h * |x_i|).

    Raises NonFiniteResidual if any probe evaluation is non-finite.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != problem.n_params:
        raise ValueError(f"x has {x.shape[0]} entries, expected {problem.n_params}")
    jac = np.empty((problem.n_residuals, problem.n_params))
    for i in range(problem.n_params):
        h = max(base_step, base_step * abs(x[i]))
        forward = x.copy()
        forward[i] += h
        backward = x.copy()
        backward[i] -= h
        rf = _evaluate(problem, forward)
        rb = _evaluate(problem, backward)
        if not (np.all(np.isfinite(rf)) and np.all(np.isfinite(rb))):
            raise NonFiniteResidual(f"non-finite residual while probing parameter {i}")
        jac[:, i] = (rf - rb) / (2.0 * h)
    return jac


def levenberg_marquardt(
    problem: LeastSquaresProblem,
    x0: np.ndarray,
    max_iterations: int = 100,
) -> LmResult:
    """Minimize 0.5 * ||r(x)||^2 from x0; final cost never exceeds the initial.

    Stops after max_iterations outer iterations at most; raises ValueError
    when it is below 1.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape[0] != problem.n_params:
        raise ValueError(f"x0 has {x.shape[0]} entries, expected {problem.n_params}")
    r = _evaluate(problem, x)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residual at x0 is non-finite")
    cost = 0.5 * float(r @ r)
    lam = INITIAL_LAMBDA
    accepted = 0
    reason = TerminationReason.MAX_ITERATIONS

    jacobian = problem.jacobian or (lambda xx: numeric_jacobian(problem, xx))
    for _ in range(max_iterations):
        jac = np.asarray(jacobian(x), dtype=float)
        if jac.shape != (problem.n_residuals, problem.n_params):
            raise ValueError(f"jacobian shape {jac.shape} does not match problem")
        if not np.all(np.isfinite(jac)):
            raise NonFiniteResidual("jacobian is non-finite")
        gradient = jac.T @ r
        if np.max(np.abs(gradient)) <= GRADIENT_TOL:
            reason = TerminationReason.GRADIENT
            break
        jtj = jac.T @ jac
        diag = np.diag(np.diag(jtj))

        stop = None
        while True:
            try:
                delta = np.linalg.solve(jtj + lam * diag, -gradient)
                if not np.all(np.isfinite(delta)):
                    raise np.linalg.LinAlgError("non-finite step")
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                if lam >= LAMBDA_GIVE_UP:
                    raise SingularNormalEquations(
                        f"normal equations unsolvable at lambda={lam:.3g}"
                    ) from None
                continue
            if float(np.linalg.norm(delta)) < STEP_TOL:
                stop = TerminationReason.STEP
                break
            trial = x + delta
            r_trial = _evaluate(problem, trial)
            if np.all(np.isfinite(r_trial)):
                cost_trial = 0.5 * float(r_trial @ r_trial)
            else:
                cost_trial = math.inf
            if cost_trial < cost:
                decrease = cost - cost_trial
                x, r, cost = trial, r_trial, cost_trial
                lam *= LAMBDA_DOWN
                accepted += 1
                if decrease < COST_TOL:
                    stop = TerminationReason.COST
                break
            lam *= LAMBDA_UP

        if stop is not None:
            reason = stop
            break

    return LmResult(x=x, cost=cost, iterations=accepted, reason=reason)


def linear_least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve min ||A x - b|| by QR; A must be (m, n) with m >= n.

    Raises RankDeficient when the smallest |R_ii| falls below 1e-12 times the
    largest.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"need a tall (m >= n) matrix, got shape {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError("matrix and right-hand side row counts differ")
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() < 1e-12 * diag.max():
        raise RankDeficient(
            f"column dependence detected (|R_ii| ratio {diag.min():.3g}/{diag.max():.3g})"
        )
    return np.linalg.solve(r, q.T @ b)
