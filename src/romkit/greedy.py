"""Estimator-driven greedy basis construction.

Each iteration solves one truth problem, X-orthonormalizes the snapshot into
the basis, hierarchically extends the reduced model and the residual data,
and scans the whole training set online (no truth solves) with the relative
energy estimator eta_en(mu) / ||u_rb(mu)||_V. The scan maximum drives both
the next selection (argmax, ties broken toward the lowest training index)
and the stopping test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .pod import ReducedBasis
from .problem import AffineProblem
from .truth import solve_fom

DEPENDENCE_CUTOFF = 1e-10
TIE_BREAK_REL = 1e-15


@dataclass
class GreedyHistory:
    selected_parameters: list = field(default_factory=list)
    max_estimator_per_iteration: list = field(default_factory=list)
    stopping_reason: str = ""
    training_set_size: int = 0
    truth_seconds: float = 0.0  # wall time spent in truth solves


class DependenceDiagnostic:
    """Rejected candidate: linearly dependent on the current basis."""

    def __init__(self, pre_norm, post_norm):
        self.pre_norm = pre_norm
        self.post_norm = post_norm

    def __repr__(self):
        return (f"DependenceDiagnostic(pre_norm={self.pre_norm:.3e}, "
                f"post_norm={self.post_norm:.3e})")


def _x_norm(X, v):
    q = float(v @ (X @ v))
    return np.sqrt(max(q, 0.0))


def orthonormalize(candidate, basis_vectors, X):
    """Two-pass Gram-Schmidt in the X inner product.

    Returns the new unit-X-norm vector, or a :class:`DependenceDiagnostic`
    when the post-projection norm drops below 1e-10 of the input norm.
    """
    v = np.asarray(candidate, dtype=float).copy()
    pre_norm = _x_norm(X, v)
    if pre_norm == 0.0:
        return DependenceDiagnostic(0.0, 0.0)
    for _ in range(2):
        for xi in basis_vectors:
            v -= (xi @ (X @ v)) * xi
    post_norm = _x_norm(X, v)
    if post_norm < DEPENDENCE_CUTOFF * pre_norm:
        return DependenceDiagnostic(pre_norm, post_norm)
    return v / post_norm


def orthonormalize_rows(vectors, X):
    """Orthonormalize rows in order; raises if any row is dependent."""
    out = []
    for i, v in enumerate(vectors):
        result = orthonormalize(v, out, X)
        if isinstance(result, DependenceDiagnostic):
            raise NumericalError(f"row {i} is linearly dependent: {result}")
        out.append(result)
    return np.array(out)


def greedy_build(problem: AffineProblem, training_set, tol: float,
                 n_max: int, mu_1=None):
    """Run the greedy loop; returns (ReducedBasis, GreedyHistory, model, data).

    The reduced model and residual data are rebuilt hierarchically after
    every basis extension so the estimator scan is always consistent with
    the current basis.
    """
    from .certify import residual_dual_norm, riesz_extend, stability_bounds
    from .reduced import extend_projection, rb_solve

    if len(training_set) == 0:
        raise ConfigurationError("greedy training set is empty")
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be > 0, got {tol}")
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if not problem.parametrically_coercive:
        raise ConfigurationError(
            "greedy selection needs the rigorous min-theta coercivity bound; "
            "the problem is not parametrically coercive - use the POD path"
        )

    training_set = [np.asarray(mu, dtype=float) for mu in training_set]
    alpha_lbs = np.array(
        [stability_bounds(problem, mu).alpha_lb for mu in training_set]
    )

    mu_next = (problem.domain.midpoint() if mu_1 is None
               else np.asarray(mu_1, dtype=float))
    history = GreedyHistory(training_set_size=len(training_set))
    basis = ReducedBasis(vectors=np.empty((0, problem.n_free)),
                         provenance=history, problem=problem)
    model = None
    data = None

    for _ in range(n_max):
        t0 = time.perf_counter()
        solution = solve_fom(problem, mu_next)
        history.truth_seconds += time.perf_counter() - t0
        result = orthonormalize(solution.u, basis.vectors, problem.X)
        if isinstance(result, DependenceDiagnostic):
            history.stopping_reason = "stagnation"
            break
        history.selected_parameters.append(mu_next)
        basis.vectors = np.vstack([basis.vectors, result[None, :]])
        model = extend_projection(model, problem, basis, result)
        data = riesz_extend(data, problem, basis, result)

        estimators = np.empty(len(training_set))
        for i, mu in enumerate(training_set):
            rb = rb_solve(model, mu)
            r = residual_dual_norm(data, model, mu, rb.coefficients)
            u_rb_norm = np.linalg.norm(rb.coefficients)
            eta_en = r / np.sqrt(alpha_lbs[i])
            estimators[i] = eta_en / max(u_rb_norm, 1e-300)
        max_eta = float(estimators.max())
        history.max_estimator_per_iteration.append(max_eta)
        if max_eta <= tol:
            history.stopping_reason = "tolerance"
            break
        # argmax with the lowest index winning among near-equal maxima
        pick = int(np.flatnonzero(
            estimators >= max_eta * (1.0 - TIE_BREAK_REL)
        )[0])
        mu_next = training_set[pick]
    else:
        history.stopping_reason = "n_max"

    return basis, history, model, data
