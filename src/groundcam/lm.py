"""The Levenberg-Marquardt rule, on whatever linear algebra the caller brings.

Steps solve (J^T J + lambda diag(J^T J)) delta = -J^T r, the Marquardt
damping; a step is kept only on a strict cost decrease (lambda x0.1 on
accept, x10 on reject), and the run reports which tolerance ended it.
groundcam.optim runs the rule on numpy arrays for the intrinsic
calibration, groundcam.extrinsics on plain floats for the pose alone, so a
calibrate-extrinsics process loads no numpy.
"""

from __future__ import annotations

import enum


class TerminationReason(str, enum.Enum):
    GRADIENT = "gradient"
    STEP = "step"
    COST = "cost"
    MAX_ITERATIONS = "max_iterations"


INITIAL_LAMBDA = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_GIVE_UP = 1e10
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
COST_TOL = 1e-12


def minimize(point, cost: float | None, linearize, trial, max_iterations: int = 100):
    """Run the rule from point, whose cost is 0.5 |r|^2, or None where its
    residual is not finite; a point is whatever the two callables take.

    linearize(point) is None where the Jacobian is not finite, else the
    largest |J^T r| entry and a function taking lambda to the damped step
    and its norm, or to None where the step is singular or not finite.
    trial(point, step) is the stepped point and its cost, inf where the
    residual is not finite. Returns the last accepted point, its cost, the
    accepted steps and the TerminationReason; raises ValueError for a start
    that is not finite, a Jacobian that is not, and when lambda reaches 1e10
    on unsolvable steps.
    """
    if cost is None:
        raise ValueError("residual at x0 is non-finite")
    lam = INITIAL_LAMBDA
    accepted = 0
    for _ in range(max_iterations):
        linear = linearize(point)
        if linear is None:
            raise ValueError("jacobian is non-finite")
        gradient, solve = linear
        if gradient <= GRADIENT_TOL:
            return point, cost, accepted, TerminationReason.GRADIENT
        while True:
            step = solve(lam)
            if step is None:
                lam *= LAMBDA_UP
                if lam >= LAMBDA_GIVE_UP:
                    raise ValueError(f"normal equations unsolvable at lambda={lam:.3g}")
                continue
            delta, norm = step
            if norm < STEP_TOL:
                return point, cost, accepted, TerminationReason.STEP
            moved, moved_cost = trial(point, delta)
            if moved_cost < cost:
                decrease = cost - moved_cost
                point, cost = moved, moved_cost
                lam *= LAMBDA_DOWN
                accepted += 1
                if decrease < COST_TOL:
                    return point, cost, accepted, TerminationReason.COST
                break
            lam *= LAMBDA_UP
    return point, cost, accepted, TerminationReason.MAX_ITERATIONS
