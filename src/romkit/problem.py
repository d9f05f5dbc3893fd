"""Affinely parametrized problem abstraction.

An :class:`AffineProblem` bundles the parameter-independent operator blocks
A_q and load blocks f_q with their scalar coefficient functions theta_a,
theta_f, the parameter domain, the reference parameter and the inner-product
matrix X. It can be built from the built-in thermal block or ingested from
an external manifest of Matrix Market files.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg

from .assembly import (assemble_inner_product, assemble_thermal_block_operators,
                       build_dofmap, build_mesh)
from .errors import ConfigurationError, NumericalError, ThetaEvalError
from .thetas import ThetaExpression, parse_theta

COERCIVITY_SAMPLE_COUNT = 1000
X_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class ParameterDomain:
    """Box parameter domain with a per-component sampling scale."""

    intervals: tuple  # ((lo, hi), ...)
    scales: tuple     # ("lin" | "log", ...)

    def __post_init__(self):
        if len(self.intervals) != len(self.scales):
            raise ConfigurationError("intervals and scales length mismatch")
        for (lo, hi), scale in zip(self.intervals, self.scales):
            if not lo < hi:
                raise ConfigurationError(f"empty interval [{lo}, {hi}]")
            if scale not in ("lin", "log"):
                raise ConfigurationError(f"unknown scale {scale!r}")
            if scale == "log" and lo <= 0:
                raise ConfigurationError("log scale requires lo > 0")

    @property
    def p(self):
        return len(self.intervals)

    def contains(self, mu):
        mu = np.asarray(mu, dtype=float)
        return all(lo <= v <= hi for v, (lo, hi) in zip(mu, self.intervals))

    def midpoint(self):
        """Midpoint on each component's sampling scale."""
        out = []
        for (lo, hi), scale in zip(self.intervals, self.scales):
            if scale == "log":
                out.append(float(np.sqrt(lo * hi)))
            else:
                out.append(0.5 * (lo + hi))
        return np.array(out)


@dataclass
class AffineProblem:
    """Parametrized model: affine blocks, coefficients, domain and X."""

    A_q: list
    f_q: list
    theta_a: list
    theta_f: list
    domain: ParameterDomain
    mu_bar: np.ndarray
    X: sp.csr_matrix
    parametrically_coercive: bool
    compliant: bool = True
    descriptor: dict = field(default_factory=dict)

    @property
    def Q_a(self):
        return len(self.A_q)

    @property
    def Q_f(self):
        return len(self.f_q)

    @property
    def p(self):
        return self.domain.p

    @property
    def n_free(self):
        return self.X.shape[0]

    @cached_property
    def _x_factor(self):
        return scipy.sparse.linalg.factorized(self.X.tocsc())

    def solve_x(self, b):
        """Solve X x = b; X is factorized once per problem, on first use,
        and each solution is checked by its relative residual."""
        x = self._x_factor(b)
        b_norm = np.linalg.norm(b)
        if b_norm == 0:
            return np.zeros_like(b)
        res = np.linalg.norm(b - self.X @ x) / b_norm
        if res > X_SOLVE_TOL:
            x = x + self._x_factor(b - self.X @ x)
            res = np.linalg.norm(b - self.X @ x) / b_norm
            if res > X_SOLVE_TOL:
                raise NumericalError(
                    f"X-solve stalled at relative residual {res:.3e}"
                )
        return x

    @property
    def theta_a_bar(self):
        return np.array([t.evaluate(self.mu_bar) for t in self.theta_a])

    def validate(self):
        n = self.X.shape[0]
        for q, A in enumerate(self.A_q):
            if A.shape != (n, n):
                raise ConfigurationError(
                    f"A_{q + 1} has shape {A.shape}, expected {(n, n)}"
                )
        for q, f in enumerate(self.f_q):
            if f.shape != (n,):
                raise ConfigurationError(
                    f"f_{q + 1} has length {f.shape[0]}, expected {n}"
                )
        if len(self.theta_a) != len(self.A_q) or len(self.theta_f) != len(self.f_q):
            raise ConfigurationError("coefficient/block count mismatch")
        return self


def eval_thetas(problem: AffineProblem, mu):
    """Evaluate all coefficient functions at ``mu``.

    Out-of-domain parameters are evaluated anyway (extrapolation is the
    caller's risk); a warning is emitted, and online answers carry a flag.
    """
    mu = np.asarray(mu, dtype=float)
    if not problem.domain.contains(mu):
        warnings.warn(f"parameter {mu.tolist()} is outside the declared domain",
                      stacklevel=2)
    theta_a = np.empty(problem.Q_a)
    for q, expr in enumerate(problem.theta_a):
        try:
            theta_a[q] = expr.evaluate(mu)
        except ThetaEvalError as exc:
            raise ThetaEvalError(f"theta_a[{q}]: {exc}") from exc
    theta_f = np.empty(problem.Q_f)
    for q, expr in enumerate(problem.theta_f):
        try:
            theta_f[q] = expr.evaluate(mu)
        except ThetaEvalError as exc:
            raise ThetaEvalError(f"theta_f[{q}]: {exc}") from exc
    return theta_a, theta_f


def make_thermal_block(n: int, B: int, mu_lo: float, mu_hi: float) -> AffineProblem:
    """Built-in compliant benchmark: BxB conductivity blocks on the unit square.

    Dirichlet top edge, unit flux on the base, theta_a^q(mu) = mu_q,
    theta_f = 1, mu_bar = (1, ..., 1), X = sum_q A_q, log-scaled domain
    [mu_lo, mu_hi]^(B*B).
    """
    if not 0 < mu_lo < mu_hi:
        raise ConfigurationError(
            f"need 0 < mu_lo < mu_hi, got ({mu_lo}, {mu_hi})"
        )
    mesh = build_mesh(n, B)
    dofmap = build_dofmap(mesh)
    A_list, f_list = assemble_thermal_block_operators(mesh, dofmap)
    p = B * B
    mu_bar = np.ones(p)
    X = assemble_inner_product(A_list, mu_bar)
    domain = ParameterDomain(
        intervals=tuple((mu_lo, mu_hi) for _ in range(p)),
        scales=tuple("log" for _ in range(p)),
    )
    theta_a = [parse_theta(f"mu[{q}]", p) for q in range(p)]
    theta_f = [parse_theta("1.0", p)]
    descriptor = {"type": "thermal", "n": n, "B": B,
                  "mu_lo": mu_lo, "mu_hi": mu_hi}
    return AffineProblem(
        A_q=A_list, f_q=f_list, theta_a=theta_a, theta_f=theta_f,
        domain=domain, mu_bar=mu_bar, X=X,
        parametrically_coercive=True, descriptor=descriptor,
    ).validate()


def sample_parameters(domain: ParameterDomain, count: int, strategy: str,
                      seed: int = 0):
    """Deterministic parameter sampling on the domain's declared scales.

    ``grid``: tensor grid with ceil(count**(1/p)) points per axis, lexicographic
    order. ``random``: independent uniform per component on the declared scale,
    reproducible from ``seed``.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    p = domain.p
    if strategy == "grid":
        per_axis = int(np.ceil(count ** (1.0 / p) - 1e-9))
        axes = []
        for (lo, hi), scale in zip(domain.intervals, domain.scales):
            if per_axis == 1:
                axes.append(np.array([lo]))
            elif scale == "log":
                pts = np.exp(np.linspace(np.log(lo), np.log(hi), per_axis))
                axes.append(np.clip(pts, lo, hi))  # exp/log endpoint roundoff
            else:
                axes.append(np.linspace(lo, hi, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([g.ravel() for g in grids])
        return [points[i] for i in range(points.shape[0])]
    if strategy == "random":
        rng = np.random.default_rng(seed)
        cols = []
        for (lo, hi), scale in zip(domain.intervals, domain.scales):
            u = rng.uniform(size=count)
            if scale == "log":
                pts = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
                cols.append(np.clip(pts, lo, hi))
            else:
                cols.append(lo + u * (hi - lo))
        points = np.column_stack(cols)
        return [points[i] for i in range(count)]
    raise ConfigurationError(f"unknown sampling strategy {strategy!r}")


def _read_matrix(path):
    if not Path(path).exists():
        raise ConfigurationError(f"missing matrix file {path}")
    M = scipy.io.mmread(str(path))
    if sp.issparse(M):
        return M.tocsr()
    return np.asarray(M)


def _check_symmetric(A, name):
    diff = abs(A - A.T)
    max_diff = diff.max() if diff.nnz else 0.0
    scale = abs(A).max()
    if max_diff > 1e-12 * max(scale, 1e-300):
        raise ConfigurationError(
            f"{name} is not symmetric: max asymmetry {max_diff:.3e} "
            f"vs scale {scale:.3e}"
        )


def _check_parametric_coercivity(problem, seed=1234):
    """Sampled coercivity certificate: theta_a > 0 on the domain and A_q PSD.

    Dense sampling (not symbolic analysis); a failure disables the min-theta
    lower bound downstream.
    """
    points = sample_parameters(problem.domain, COERCIVITY_SAMPLE_COUNT,
                               "random", seed=seed)
    for mu in points:
        for expr in problem.theta_a:
            try:
                if expr.evaluate(mu) <= 0:
                    return False
            except ThetaEvalError:
                return False
    # PSD spot-check: random Rayleigh quotients of each block
    rng = np.random.default_rng(seed)
    n = problem.n_free
    V = rng.standard_normal((n, 8))
    for A in problem.A_q:
        quad = np.einsum("ij,ij->j", V, A @ V)
        if np.any(quad < -1e-12 * max(abs(A).max(), 1e-300) * np.einsum("ij,ij->j", V, V).max()):
            return False
    return True


def load_external(manifest_path) -> AffineProblem:
    """Ingest an externally assembled affine problem.

    Manifest (JSON): ``{"p", "domain": [[lo, hi, "lin"|"log"], ...],
    "mu_bar", "theta_a", "theta_f", "A": [paths], "f": [paths],
    "X": path (optional)}``. Matrix paths are relative to the manifest.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ConfigurationError(f"missing manifest {manifest_path}")
    spec = json.loads(manifest_path.read_text())
    base = manifest_path.parent

    p = int(spec["p"])
    domain = ParameterDomain(
        intervals=tuple((float(lo), float(hi)) for lo, hi, _ in spec["domain"]),
        scales=tuple(scale for _, _, scale in spec["domain"]),
    )
    if domain.p != p:
        raise ConfigurationError(f"domain has {domain.p} intervals, expected p={p}")
    mu_bar = np.asarray(spec["mu_bar"], dtype=float)
    if mu_bar.shape != (p,):
        raise ConfigurationError(f"mu_bar has length {mu_bar.size}, expected {p}")

    theta_a = [parse_theta(text, p) for text in spec["theta_a"]]
    theta_f = [parse_theta(text, p) for text in spec["theta_f"]]

    A_list = []
    for i, rel in enumerate(spec["A"]):
        A = _read_matrix(base / rel)
        if sp.issparse(A):
            A = A.tocsr()
        else:
            A = sp.csr_matrix(A)
        _check_symmetric(A, f"A_{i + 1}")
        A_list.append(A)
    n = A_list[0].shape[0]
    for i, A in enumerate(A_list):
        if A.shape != (n, n):
            raise ConfigurationError(
                f"dimension mismatch: A_{i + 1} is {A.shape}, expected {(n, n)}"
            )

    f_list = []
    for i, rel in enumerate(spec["f"]):
        f = _read_matrix(base / rel)
        if sp.issparse(f):
            f = f.toarray()
        f = np.asarray(f, dtype=float).ravel()
        if f.shape != (n,):
            raise ConfigurationError(
                f"dimension mismatch: f_{i + 1} has length {f.size}, expected {n}"
            )
        f_list.append(f)

    if len(theta_a) != len(A_list) or len(theta_f) != len(f_list):
        raise ConfigurationError("theta/block count mismatch in manifest")

    if "X" in spec and spec["X"]:
        X = _read_matrix(base / spec["X"])
        X = X.tocsr() if sp.issparse(X) else sp.csr_matrix(X)
        if X.shape != (n, n):
            raise ConfigurationError(f"X has shape {X.shape}, expected {(n, n)}")
        _check_symmetric(X, "X")
    else:
        theta_bar = np.array([t.evaluate(mu_bar) for t in theta_a])
        if np.any(theta_bar <= 0):
            raise ConfigurationError(
                "cannot form X: theta_a(mu_bar) has non-positive entries"
            )
        X = theta_bar[0] * A_list[0]
        for t, A in zip(theta_bar[1:], A_list[1:]):
            X = X + t * A
        X = X.tocsr()

    problem = AffineProblem(
        A_q=A_list, f_q=f_list, theta_a=theta_a, theta_f=theta_f,
        domain=domain, mu_bar=mu_bar, X=X,
        parametrically_coercive=False,
        descriptor={"type": "external", "manifest": spec,
                    "manifest_path": str(manifest_path.resolve())},
    ).validate()
    problem.parametrically_coercive = _check_parametric_coercivity(problem)
    return problem
