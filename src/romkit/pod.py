"""Proper orthogonal decomposition via the MxM correlation eigenproblem.

The correlation matrix C_mq = (1/M) (psi_m, psi_q)_X is formed with its upper
triangle computed once (exact symmetry), densely eigendecomposed, and the
basis assembled from snapshot combinations. Basis vectors are renormalized
to unit X-norm so that reduced operators stay well conditioned; eigenvalues
below 1e-12 * lambda_1 are treated as numerically zero and never inverted.
Snapshots are not mean-centered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError
from .hashing import digest_hex
from .problem import AffineProblem
from .truth import solve_fom

RANK_CUTOFF = 1e-12


@dataclass
class SnapshotSet:
    """Ordered truth solutions with the inner product used to compare them."""

    parameters: list            # mu_1 .. mu_M
    snapshots: np.ndarray       # (M, n_free), row m = psi_m
    solve_residuals: np.ndarray
    problem: AffineProblem

    @property
    def M(self):
        return self.snapshots.shape[0]


@dataclass
class PodSpectrum:
    eigenvalues: np.ndarray   # descending, clamped at zero
    eigenvectors: np.ndarray  # (M, M), column i is v_i
    retained: int

    @property
    def rank(self):
        if self.eigenvalues.size == 0 or self.eigenvalues[0] <= 0:
            return 0
        return int(np.sum(self.eigenvalues > RANK_CUTOFF * self.eigenvalues[0]))


@dataclass
class ReducedBasis:
    """X-orthonormal basis; row i of ``vectors`` is xi_i."""

    vectors: np.ndarray  # (N, n_free)
    provenance: object   # PodSpectrum | GreedyHistory
    problem: AffineProblem

    @property
    def N(self):
        return self.vectors.shape[0]

    def vector_fingerprints(self):
        """Per-vector content hashes; prefix-comparable across extensions."""
        return [digest_hex(np.ascontiguousarray(v)) for v in self.vectors]


def collect_snapshots(problem: AffineProblem, parameters) -> SnapshotSet:
    """Solve the truth problem at every parameter, in input order."""
    solutions = [solve_fom(problem, mu) for mu in parameters]
    return SnapshotSet(
        parameters=[np.asarray(mu, dtype=float) for mu in parameters],
        snapshots=np.array([sol.u for sol in solutions]),
        solve_residuals=np.array([sol.solve_residual for sol in solutions]),
        problem=problem,
    )


def correlation_matrix(snapshots: SnapshotSet) -> np.ndarray:
    """C_mq = (1/M) psi_m^T X psi_q, exactly symmetric."""
    S = snapshots.snapshots
    M = snapshots.M
    Y = (snapshots.problem.X @ S.T).T  # row m = X psi_m
    C = np.zeros((M, M))
    for m in range(M):
        for q in range(m, M):
            C[m, q] = (S[m] @ Y[q]) / M
            C[q, m] = C[m, q]
    return C


def pod_spectrum(snapshots: SnapshotSet) -> PodSpectrum:
    C = correlation_matrix(snapshots)
    w, V = scipy.linalg.eigh(C)
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    if w.size and w[0] > 0:
        floor = -RANK_CUTOFF * w[0]
        if np.any(w < floor):
            raise NumericalError(
                f"correlation matrix has eigenvalue {w.min():.3e} below the "
                f"clamping floor {floor:.3e}"
            )
    np.clip(w, 0.0, None, out=w)
    return PodSpectrum(eigenvalues=w, eigenvectors=V, retained=0)


def pod_basis(snapshots: SnapshotSet, n_modes: int | None = None,
              energy_tol: float | None = None) -> ReducedBasis:
    """POD basis by fixed size or by retained energy 1 - energy_tol.

    xi_i = (1 / sqrt(M * lambda_i)) sum_m (v_i)_m psi_m, followed by a
    Gram-Schmidt cleanup pass (span-preserving) to pin X-orthonormality.
    """
    if (n_modes is None) == (energy_tol is None):
        raise ConfigurationError("specify exactly one of n_modes / energy_tol")
    spectrum = pod_spectrum(snapshots)
    w = spectrum.eigenvalues
    rank = spectrum.rank
    if n_modes is not None:
        if n_modes < 1 or n_modes > rank:
            raise ConfigurationError(
                f"requested {n_modes} modes but the numerical rank is {rank}"
            )
        N = n_modes
    else:
        total = w.sum()
        cumulative = np.cumsum(w)
        N = int(np.searchsorted(cumulative, (1.0 - energy_tol) * total) + 1)
        N = min(max(N, 1), rank)
    spectrum.retained = N

    S = snapshots.snapshots
    M = snapshots.M
    vectors = np.empty((N, S.shape[1]))
    for i in range(N):
        vectors[i] = (spectrum.eigenvectors[:, i] @ S) / np.sqrt(M * w[i])

    # span-preserving orthonormality cleanup against roundoff in 1/sqrt(lambda)
    from .greedy import orthonormalize_rows
    vectors = orthonormalize_rows(vectors, snapshots.problem.X)
    return ReducedBasis(vectors=vectors, provenance=spectrum,
                        problem=snapshots.problem)


def project_onto_basis(basis: ReducedBasis, w):
    """X-orthogonal projection onto the basis: coefficients and lifted vector."""
    w = np.asarray(w, dtype=float)
    coefficients = basis.vectors @ (basis.problem.X @ w)
    projection = coefficients @ basis.vectors
    return coefficients, projection
