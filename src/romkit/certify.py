"""A-posteriori certification of online answers.

Offline, the Riesz representers of every residual block are computed once
(X-solves) and condensed into Gram blocks; online, the residual dual norm is
a quadratic form in the coefficient values, with no truth-size object in
sight. The coercivity lower bound is the min-theta bound, rigorous exactly
when the problem is parametrically coercive. Five estimators are emitted per
certificate; effectivity validation against truth solves lives here too.

The Gram-based dual norm loses accuracy near convergence: once the residual
drops ~7 orders of magnitude below the load scale, cancellation dominates
and squared norms can go slightly negative. Negative values are clamped to
zero and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .pod import ReducedBasis
from .problem import AffineProblem, eval_thetas
from .reduced import (ReducedModel, eval_model_thetas, lift, problem_fingerprint,
                      rb_solve)
from .truth import assemble_at, mu_norm, solve_fom, stability_constants, v_norm

CANCELLATION_REL = 1e-12


@dataclass
class ResidualData:
    """Gram blocks of the residual Riesz representers in the X inner product.

    ``rep_f``/``rep_a`` hold the representers themselves; they are needed to
    extend the data hierarchically and are dropped when a model is reloaded
    from disk (the online phase only touches the Gram blocks).
    """

    G_ff: np.ndarray               # (Q_f, Q_f)
    G_fa: np.ndarray               # (Q_f, Q_a, N)
    G_aa: np.ndarray               # (Q_a, N, Q_a, N)
    problem_fingerprint: str
    basis_fingerprints: list = field(default_factory=list)
    rep_f: np.ndarray | None = None   # (Q_f, n_free)
    rep_a: np.ndarray | None = None   # (Q_a, N, n_free)

    @property
    def N(self):
        return self.G_fa.shape[2]

    @property
    def Q_a(self):
        return self.G_fa.shape[1]

    @property
    def Q_f(self):
        return self.G_ff.shape[0]

    def truncate(self, N: int) -> "ResidualData":
        if N > self.N:
            raise ConfigurationError(f"cannot truncate to N={N} > {self.N}")
        return ResidualData(
            G_ff=self.G_ff, G_fa=self.G_fa[:, :, :N].copy(),
            G_aa=self.G_aa[:, :N, :, :N].copy(),
            problem_fingerprint=self.problem_fingerprint,
            basis_fingerprints=self.basis_fingerprints[:N],
            rep_f=self.rep_f,
            rep_a=None if self.rep_a is None else self.rep_a[:, :N].copy(),
        )


@dataclass
class StabilityBounds:
    alpha_lb: float
    gamma_ub: float
    rigorous: bool


@dataclass
class Certificate:
    mu: np.ndarray
    s_rb: float
    r_norm: float
    alpha_lb: float
    eta_en: float
    eta_s: float
    eta_s_rel: float
    eta_v: float
    eta_v_rel: float
    eta_v_rel_valid: bool
    r_floor: float = 0.0
    s_rb_nonpositive: bool = False
    cancellation: bool = False
    out_of_domain: bool = False
    rigorous: bool = True

    @property
    def below_floor(self):
        """Residual below the Gram-formula accuracy floor; the estimator
        magnitude (and anything audited against it) is unreliable here."""
        return self.r_norm < self.r_floor


@dataclass
class EffectivityReport:
    mu: np.ndarray
    certificate: Certificate
    s_delta: float
    err_mu: float
    err_v: float
    output_gap: float
    alpha_delta: float
    gamma_delta: float
    eff_en: float | None
    eff_s: float | None
    eff_s_rel: float | None
    eff_v: float | None
    eff_v_rel: float | None
    indeterminate: bool
    ceilings_ok: bool


def riesz_offline(problem: AffineProblem, basis: ReducedBasis) -> ResidualData:
    """Riesz representers of all residual blocks and their Gram blocks."""
    X = problem.X
    Q_f, Q_a, N = problem.Q_f, problem.Q_a, basis.N

    rep_f = np.array([problem.solve_x(f) for f in problem.f_q])
    rep_a = np.empty((Q_a, N, problem.n_free))
    for q, A in enumerate(problem.A_q):
        for n in range(N):
            rep_a[q, n] = problem.solve_x(A @ basis.vectors[n])

    G_ff = np.empty((Q_f, Q_f))
    for i in range(Q_f):
        for j in range(Q_f):
            G_ff[i, j] = rep_f[i] @ (X @ rep_f[j])
    G_fa = np.empty((Q_f, Q_a, N))
    for i in range(Q_f):
        for q in range(Q_a):
            for n in range(N):
                G_fa[i, q, n] = rep_f[i] @ (X @ rep_a[q, n])
    G_aa = np.empty((Q_a, N, Q_a, N))
    for q in range(Q_a):
        for n in range(N):
            Xl = X @ rep_a[q, n]
            for r in range(Q_a):
                for m in range(N):
                    G_aa[q, n, r, m] = Xl @ rep_a[r, m]
    return ResidualData(
        G_ff=G_ff, G_fa=G_fa, G_aa=G_aa,
        problem_fingerprint=problem_fingerprint(problem),
        basis_fingerprints=basis.vector_fingerprints(),
        rep_f=rep_f, rep_a=rep_a,
    )


def riesz_extend(data: ResidualData | None, problem: AffineProblem,
                 basis: ReducedBasis, new_vector) -> ResidualData:
    """Extend the residual data by one basis vector without re-solving old blocks."""
    if data is None:
        return riesz_offline(problem, basis)
    if data.rep_f is None or data.rep_a is None:
        raise ConfigurationError(
            "residual data was loaded without representers and cannot be extended"
        )
    prints = basis.vector_fingerprints()
    N_old = data.N
    if basis.N != N_old + 1:
        raise ConfigurationError(f"basis has N={basis.N}, expected {N_old + 1}")
    if (data.problem_fingerprint != problem_fingerprint(problem)
            or data.basis_fingerprints != prints[:N_old]):
        raise ConfigurationError(
            "fingerprint mismatch between residual data and basis"
        )
    X = problem.X
    Q_f, Q_a = data.Q_f, data.Q_a
    new_vector = np.asarray(new_vector, dtype=float)

    new_reps = np.array([problem.solve_x(A @ new_vector)
                         for A in problem.A_q])
    rep_a = np.concatenate([data.rep_a, new_reps[:, None, :]], axis=1)

    G_fa = np.empty((Q_f, Q_a, N_old + 1))
    G_fa[:, :, :N_old] = data.G_fa
    for i in range(Q_f):
        for q in range(Q_a):
            G_fa[i, q, N_old] = data.rep_f[i] @ (X @ rep_a[q, N_old])
    G_aa = np.empty((Q_a, N_old + 1, Q_a, N_old + 1))
    G_aa[:, :N_old, :, :N_old] = data.G_aa
    for q in range(Q_a):
        Xl = X @ rep_a[q, N_old]
        for r in range(Q_a):
            for m in range(N_old + 1):
                val = Xl @ rep_a[r, m]
                G_aa[q, N_old, r, m] = val
                G_aa[r, m, q, N_old] = val
    return ResidualData(
        G_ff=data.G_ff, G_fa=G_fa, G_aa=G_aa,
        problem_fingerprint=data.problem_fingerprint,
        basis_fingerprints=prints,
        rep_f=data.rep_f, rep_a=rep_a,
    )


def _dual_norm_squared(data: ResidualData, theta_a, theta_f, coefficients):
    c = np.asarray(coefficients, dtype=float)
    N = c.shape[0]
    if N > data.N:
        raise ConfigurationError(
            f"{N} coefficients exceed residual data size N={data.N}"
        )
    t_ff = float(theta_f @ data.G_ff @ theta_f)
    cross = float(np.einsum("f,fqn,q,n->", theta_f, data.G_fa[:, :, :N],
                            theta_a, c))
    T = np.outer(theta_a, c)
    quad = float(np.einsum("qn,qnrm,rm->", T, data.G_aa[:, :N, :, :N], T))
    raw = t_ff - 2.0 * cross + quad
    clamped = max(raw, 0.0)
    cancellation = raw < -CANCELLATION_REL * t_ff
    return raw, clamped, cancellation, t_ff


def residual_dual_norm(data: ResidualData, model_or_problem, mu,
                       coefficients) -> float:
    """Online residual dual norm ||r(.; mu)||_{V*} from the Gram blocks."""
    if isinstance(model_or_problem, AffineProblem):
        theta_a, theta_f = eval_thetas(model_or_problem, mu)
    else:
        theta_a, theta_f = eval_model_thetas(model_or_problem, mu)
    _, clamped, _, _ = _dual_norm_squared(data, theta_a, theta_f, coefficients)
    return float(np.sqrt(clamped))


def stability_bounds(problem_like, mu) -> StabilityBounds:
    """Coercivity lower / continuity upper bound at mu.

    Min/max-theta ratios against the reference parameter; rigorous exactly
    when the problem is parametrically coercive (X = sum theta_bar_q A_q
    with PSD blocks sandwiches the generalized spectrum). Otherwise the
    same ratios are reported as a heuristic, sharpened by sampled Rayleigh
    quotients when the truth operators are at hand.
    """
    mu = np.asarray(mu, dtype=float)
    theta_a = np.array([t.evaluate(mu) for t in problem_like.theta_a])
    ratios = theta_a / problem_like.theta_a_bar
    if problem_like.parametrically_coercive:
        return StabilityBounds(alpha_lb=float(ratios.min()),
                               gamma_ub=float(ratios.max()),
                               rigorous=True)
    if isinstance(problem_like, AffineProblem):
        A, _ = assemble_at(problem_like, mu)
        rng = np.random.default_rng(0)
        V = rng.standard_normal((problem_like.n_free, 16))
        num = np.einsum("ij,ij->j", V, A @ V)
        den = np.einsum("ij,ij->j", V, problem_like.X @ V)
        quotients = num / den
        return StabilityBounds(alpha_lb=float(quotients.min()),
                               gamma_ub=float(quotients.max()),
                               rigorous=False)
    return StabilityBounds(alpha_lb=float(ratios.min()),
                           gamma_ub=float(ratios.max()),
                           rigorous=False)


def certificate(model: ReducedModel, data: ResidualData, mu) -> Certificate:
    """Online certificate: reduced output plus the five error estimators."""
    if (model.problem_fingerprint != data.problem_fingerprint
            or model.basis_fingerprints != data.basis_fingerprints):
        raise ConfigurationError(
            "fingerprint mismatch between reduced model and residual data"
        )
    mu = np.asarray(mu, dtype=float)
    rb = rb_solve(model, mu)
    theta_a, theta_f = eval_model_thetas(model, mu)
    _, clamped, cancellation, t_ff = _dual_norm_squared(
        data, theta_a, theta_f, rb.coefficients)
    r = float(np.sqrt(clamped))
    r_floor = 1e-7 * float(np.sqrt(max(t_ff, 0.0)))
    bounds = stability_bounds(model, mu)
    alpha_lb = bounds.alpha_lb
    eta_en = r / np.sqrt(alpha_lb)
    eta_s = eta_en ** 2
    s_rb_nonpositive = rb.s_rb <= 0
    eta_s_rel = np.nan if s_rb_nonpositive else eta_s / rb.s_rb
    eta_v = r / alpha_lb
    u_rb_v_norm = float(np.linalg.norm(rb.coefficients))  # Parseval
    eta_v_rel = (np.inf if u_rb_v_norm == 0
                 else 2.0 * r / (alpha_lb * u_rb_v_norm))
    return Certificate(
        mu=mu, s_rb=rb.s_rb, r_norm=r, alpha_lb=alpha_lb,
        eta_en=eta_en, eta_s=eta_s, eta_s_rel=eta_s_rel,
        eta_v=eta_v, eta_v_rel=eta_v_rel,
        eta_v_rel_valid=bool(eta_v_rel <= 1.0),
        r_floor=r_floor,
        s_rb_nonpositive=s_rb_nonpositive,
        cancellation=cancellation,
        out_of_domain=rb.out_of_domain,
        rigorous=bounds.rigorous,
    )


INDETERMINATE_REL = 1e-10
CEILING_SLACK = 1.0 + 1e-8


def effectivities(problem: AffineProblem, model: ReducedModel,
                  data: ResidualData, basis: ReducedBasis, mu,
                  constants=None) -> EffectivityReport:
    """Validate one certificate against a truth solve (desk scale only).

    The compliant output gap s_delta - s_rb equals ||e||_mu^2; the energy
    form is used as the denominator of the output effectivities because the
    direct difference cancels catastrophically once the error is small.
    """
    mu = np.asarray(mu, dtype=float)
    cert = certificate(model, data, mu)
    truth = solve_fom(problem, mu)
    rb = rb_solve(model, mu)
    e = truth.u - lift(basis, rb.coefficients)
    err_mu = mu_norm(problem, e, mu)
    err_v = v_norm(problem, e)
    u_delta_v = v_norm(problem, truth.u)
    output_gap = truth.s - rb.s_rb
    if constants is None:
        constants = stability_constants(problem, mu)

    indeterminate = (cert.below_floor
                     or err_mu < INDETERMINATE_REL * max(
                         mu_norm(problem, truth.u, mu), 1e-300))
    if indeterminate:
        eff_en = eff_s = eff_s_rel = eff_v = eff_v_rel = None
        ceilings_ok = True
    else:
        eff_en = cert.eta_en / err_mu
        eff_s = cert.eta_s / err_mu ** 2
        eff_s_rel = (None if cert.s_rb_nonpositive
                     else cert.eta_s_rel * truth.s / err_mu ** 2)
        eff_v = cert.eta_v / err_v
        eff_v_rel = cert.eta_v_rel * u_delta_v / err_v
        ratio = constants.gamma_delta / cert.alpha_lb
        ceilings_ok = (
            eff_en <= np.sqrt(ratio) * CEILING_SLACK
            and eff_s <= ratio * CEILING_SLACK
            and (eff_s_rel is None
                 or eff_s_rel <= (1.0 + cert.eta_s_rel) * ratio * CEILING_SLACK)
            and eff_v <= ratio * CEILING_SLACK
            and (not cert.eta_v_rel_valid
                 or eff_v_rel <= 3.0 * ratio * CEILING_SLACK)
        )
    return EffectivityReport(
        mu=mu, certificate=cert, s_delta=truth.s,
        err_mu=err_mu, err_v=err_v, output_gap=output_gap,
        alpha_delta=constants.alpha_delta, gamma_delta=constants.gamma_delta,
        eff_en=eff_en, eff_s=eff_s, eff_s_rel=eff_s_rel,
        eff_v=eff_v, eff_v_rel=eff_v_rel,
        indeterminate=indeterminate, ceilings_ok=ceilings_ok,
    )
