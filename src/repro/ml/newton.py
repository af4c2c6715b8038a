"""Batched Newton solver for L2-penalised linear models.

:func:`newton_fit` minimises ``sum_i loss(x_i . w + c, t_bi) + 0.5 *
penalty_b * ||w||^2`` (intercept ``c`` unpenalised) for a batch of problems
``b`` that share one ``X``: over the row space of ``X``, which holds the
optimal ``w``, with one batched Hessian matmul and one batched solve per
Newton step, and per-problem Armijo backtracking.  The generalised Hessian
serves piecewise-quadratic losses.  docs/experiments_performance.md
("Logistic tuning") explains each part.
"""

from __future__ import annotations

import numpy as np

#: A problem stops once its Newton decrement ``g^T H^-1 g`` is at most
#: this times ``max(1, |f|)``, and is frozen from then on.
DECREMENT_TOL = 1e-20
#: Armijo fraction, step-halving cap, and the rounding error of an
#: evaluated ``f`` that the Armijo test forgives: near the optimum the
#: expected decrease falls below ``f``'s resolution.
ARMIJO, MAX_HALVINGS, ROUNDING = 1e-4, 40, 64 * np.finfo(float).eps


def newton_fit(X: np.ndarray, loss, targets: np.ndarray, penalties, max_iter: int):
    """Fit every row of ``targets`` (``(batch, n)``) at its ``penalties`` entry.

    ``loss(z, targets)`` returns the elementwise value and first and second
    derivatives in the scores ``z``.  Each problem takes at most
    ``max_iter`` Newton steps from zero.  Returns ``(coef, intercept,
    iterations, unconverged)``: one row per problem, then the Newton steps
    summed over the batch and the number of problems that hit the cap.
    """
    n, p = X.shape
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    keep = s > s.max(initial=0.0) * max(n, p) * np.finfo(float).eps
    A = np.column_stack([U[:, keep] * s[keep], np.ones(n)])  # intercept last
    batch, m = targets.shape[0], A.shape[1]
    penalty = np.zeros((batch, m))
    penalty[:, :-1] = np.asarray(penalties, dtype=np.float64)[:, None]

    def evaluate(rows, theta_rows):
        value, grad, hess = loss(theta_rows @ A.T, targets[rows])
        ridge = 0.5 * np.einsum("bj,bj->b", penalty[rows] * theta_rows, theta_rows)
        return value.sum(axis=1) + ridge, grad, hess

    theta = np.zeros((batch, m))
    f, grad, hess = evaluate(np.arange(batch), theta)
    iterations = 0
    active = np.ones(batch, dtype=bool)
    for iteration in range(max_iter + 1):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        g = grad[rows] @ A + penalty[rows] * theta[rows]
        H = (A.T * hess[rows][:, None, :]) @ A
        H[:, np.arange(m), np.arange(m)] += penalty[rows]
        # Zero intercept curvature (no active residual of a piecewise loss)
        # comes with a zero intercept gradient: keep the system solvable.
        H[:, -1, -1] = np.where(H[:, -1, -1] > 0.0, H[:, -1, -1], 1.0)
        step = -np.linalg.solve(H, g[:, :, None])[:, :, 0]
        decrement = -np.einsum("bj,bj->b", g, step)
        done = decrement <= DECREMENT_TOL * np.maximum(1.0, np.abs(f[rows]))
        active[rows[done]] = False
        if iteration == max_iter:
            break
        rows, step, slope = rows[~done], step[~done], -decrement[~done]
        slack = ROUNDING * np.maximum(1.0, np.abs(f[rows]))
        iterations += rows.size
        t = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(MAX_HALVINGS):
            idx = np.flatnonzero(pending)
            sub = rows[idx]
            trial = theta[sub] + t[idx, None] * step[idx]
            f_trial, grad_trial, hess_trial = evaluate(sub, trial)
            ok = f_trial <= f[sub] + ARMIJO * t[idx] * slope[idx] + slack[idx]
            won = sub[ok]
            theta[won], f[won] = trial[ok], f_trial[ok]
            grad[won], hess[won] = grad_trial[ok], hess_trial[ok]
            pending[idx[ok]] = False
            if not pending.any():
                break
            t[pending] *= 0.5
        # No decrease along the Newton direction: the numerical optimum.
        active[rows[pending]] = False
    return theta[:, :-1] @ Vt[keep], theta[:, -1].copy(), iterations, int(active.sum())
