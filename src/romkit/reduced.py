"""Offline Galerkin projection and the truth-dimension-free online solve.

A :class:`ReducedModel` stores the projected affine blocks, the coefficient
expressions and domain metadata, and nothing of truth size; ``rb_solve``
therefore cannot touch full-order data by construction. Projection entries
are computed one dot product at a time so that hierarchical extension is
bit-identical to a fresh projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError
from .hashing import digest_hex
from .pod import PodSpectrum, ReducedBasis
from .problem import AffineProblem, ParameterDomain, eval_thetas
from .thetas import ThetaExpression


def problem_fingerprint(problem: AffineProblem) -> str:
    """Content hash of the problem configuration."""
    desc = dict(problem.descriptor)
    desc["n_free"] = problem.n_free
    desc.pop("manifest_path", None)
    return digest_hex(json.dumps(desc, sort_keys=True).encode())


@dataclass
class ReducedModel:
    A_rb_q: list               # Q_a dense (N, N) arrays
    f_rb_q: list               # Q_f dense (N,) arrays
    theta_a: list
    theta_f: list
    domain: ParameterDomain
    mu_bar: np.ndarray
    parametrically_coercive: bool
    problem_fingerprint: str
    basis_fingerprints: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def N(self):
        return 0 if not self.A_rb_q else self.A_rb_q[0].shape[0]

    @property
    def Q_a(self):
        return len(self.A_rb_q)

    @property
    def Q_f(self):
        return len(self.f_rb_q)

    @property
    def p(self):
        return self.domain.p

    @property
    def theta_a_bar(self):
        return np.array([t.evaluate(self.mu_bar) for t in self.theta_a])

    def truncate(self, N: int) -> "ReducedModel":
        """Sub-model on the first N basis vectors (nested bases)."""
        if N > self.N:
            raise ConfigurationError(f"cannot truncate to N={N} > {self.N}")
        return ReducedModel(
            A_rb_q=[A[:N, :N].copy() for A in self.A_rb_q],
            f_rb_q=[f[:N].copy() for f in self.f_rb_q],
            theta_a=self.theta_a, theta_f=self.theta_f,
            domain=self.domain, mu_bar=self.mu_bar,
            parametrically_coercive=self.parametrically_coercive,
            problem_fingerprint=self.problem_fingerprint,
            basis_fingerprints=self.basis_fingerprints[:N],
            provenance=self.provenance,
        )


@dataclass
class RBSolution:
    mu: np.ndarray
    coefficients: np.ndarray
    s_rb: float
    out_of_domain: bool = False
    heuristic_bound: bool = False


def _projected_block(A, vectors):
    """xi_m^T A xi_n entry by entry, symmetrized as (B + B^T) / 2."""
    N = vectors.shape[0]
    Y = np.array([A @ vectors[n] for n in range(N)])
    G = np.empty((N, N))
    for m in range(N):
        for n in range(N):
            G[m, n] = vectors[m] @ Y[n]
    asym = np.abs(G - G.T).max() if N else 0.0
    scale = np.abs(G).max() if N else 0.0
    if asym > 1e-12 * max(scale, 1e-300):
        raise NumericalError(
            f"projected block asymmetry {asym:.3e} exceeds tolerance"
        )
    return (G + G.T) / 2.0


def project(problem: AffineProblem, basis: ReducedBasis) -> ReducedModel:
    """Project all affine blocks onto the basis."""
    vectors = basis.vectors
    if vectors.shape[1] != problem.n_free:
        raise ConfigurationError(
            f"basis vectors of length {vectors.shape[1]} do not match "
            f"n_free={problem.n_free}"
        )
    A_rb_q = [_projected_block(A, vectors) for A in problem.A_q]
    f_rb_q = [np.array([vectors[i] @ f for i in range(vectors.shape[0])])
              for f in problem.f_q]
    provenance = {"problem": dict(problem.descriptor)}
    if isinstance(basis.provenance, PodSpectrum):
        provenance["method"] = "pod"
    return ReducedModel(
        A_rb_q=A_rb_q, f_rb_q=f_rb_q,
        theta_a=problem.theta_a, theta_f=problem.theta_f,
        domain=problem.domain, mu_bar=problem.mu_bar,
        parametrically_coercive=problem.parametrically_coercive,
        problem_fingerprint=problem_fingerprint(problem),
        basis_fingerprints=basis.vector_fingerprints(),
        provenance=provenance,
    )


def extend_projection(model: ReducedModel | None, problem: AffineProblem,
                      basis: ReducedBasis, new_vector) -> ReducedModel:
    """Append one basis vector's row/column to every projected block.

    Bit-identical to a fresh :func:`project` on the extended basis; entries
    are computed with the same dot-product sequence.
    """
    if model is None:
        if basis.N != 1:
            raise ConfigurationError(
                "extending an empty model requires a single-vector basis"
            )
        return project(problem, basis)
    prints = basis.vector_fingerprints()
    N_old = model.N
    if basis.N != N_old + 1:
        raise ConfigurationError(
            f"basis has N={basis.N}, expected {N_old + 1}"
        )
    if (model.problem_fingerprint != problem_fingerprint(problem)
            or model.basis_fingerprints != prints[:N_old]):
        raise ConfigurationError(
            "fingerprint mismatch between reduced model and basis"
        )
    vectors = basis.vectors
    new_vector = np.asarray(new_vector, dtype=float)

    A_rb_q = []
    for A, old in zip(problem.A_q, model.A_rb_q):
        y_new = A @ new_vector
        G = np.empty((N_old + 1, N_old + 1))
        G[:N_old, :N_old] = old
        for m in range(N_old):
            y_m = A @ vectors[m]
            cross = vectors[m] @ y_new
            mirror = new_vector @ y_m
            G[m, N_old] = (cross + mirror) / 2.0
            G[N_old, m] = G[m, N_old]
        G[N_old, N_old] = new_vector @ y_new
        A_rb_q.append(G)
    f_rb_q = [np.append(old, new_vector @ f)
              for old, f in zip(model.f_rb_q, problem.f_q)]
    return ReducedModel(
        A_rb_q=A_rb_q, f_rb_q=f_rb_q,
        theta_a=model.theta_a, theta_f=model.theta_f,
        domain=model.domain, mu_bar=model.mu_bar,
        parametrically_coercive=model.parametrically_coercive,
        problem_fingerprint=model.problem_fingerprint,
        basis_fingerprints=prints,
        provenance=model.provenance,
    )


def eval_model_thetas(model, mu):
    """Coefficient evaluation from the model's own expressions."""
    mu = np.asarray(mu, dtype=float)
    theta_a = np.array([t.evaluate(mu) for t in model.theta_a])
    theta_f = np.array([t.evaluate(mu) for t in model.theta_f])
    return theta_a, theta_f


def rb_solve(model: ReducedModel, mu) -> RBSolution:
    """Online solve: assemble the N x N system and factor it directly."""
    if model.N < 1:
        raise ConfigurationError("reduced model is empty")
    mu = np.asarray(mu, dtype=float)
    theta_a, theta_f = eval_model_thetas(model, mu)
    A = theta_a[0] * model.A_rb_q[0]
    for t, Aq in zip(theta_a[1:], model.A_rb_q[1:]):
        A = A + t * Aq
    f = theta_f[0] * model.f_rb_q[0]
    for t, fq in zip(theta_f[1:], model.f_rb_q[1:]):
        f = f + t * fq
    try:
        c = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), f)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"reduced system is not positive definite at mu={mu.tolist()} "
            f"(theta_a={theta_a.tolist()}): {exc}"
        ) from exc
    s_rb = float(c @ f)
    out_of_domain = not model.domain.contains(mu)
    return RBSolution(mu=mu, coefficients=c, s_rb=s_rb,
                      out_of_domain=out_of_domain,
                      heuristic_bound=not model.parametrically_coercive)


def lift(basis: ReducedBasis, coefficients):
    """Reconstruct the truth-space vector sum_i c_i xi_i (validation only)."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape[0] != basis.N:
        raise ConfigurationError(
            f"{coefficients.shape[0]} coefficients for a basis of size {basis.N}"
        )
    return coefficients @ basis.vectors
