import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

import romkit
from romkit.errors import ConfigurationError
from romkit.greedy import (DependenceDiagnostic, greedy_build, orthonormalize,
                           orthonormalize_rows)
from romkit.truth import solve_fom, v_norm


def test_orthonormalize_produces_unit_vector(b2_small, rng):
    X = b2_small.X
    first = orthonormalize(rng.standard_normal(b2_small.n_free), [], X)
    second = orthonormalize(rng.standard_normal(b2_small.n_free), [first], X)
    assert abs(v_norm(b2_small, second) - 1.0) <= 1e-12
    assert abs(first @ (X @ second)) <= 1e-12


def test_orthonormalize_detects_dependence(b2_small, rng):
    X = b2_small.X
    first = orthonormalize(rng.standard_normal(b2_small.n_free), [], X)
    again = orthonormalize(3.0 * first, [first], X)
    assert isinstance(again, DependenceDiagnostic)
    assert again.post_norm < 1e-10 * again.pre_norm
    assert isinstance(orthonormalize(np.zeros(b2_small.n_free), [], X),
                      DependenceDiagnostic)


def test_orthonormalize_rows_raises_on_dependence(b2_small, rng):
    v = rng.standard_normal(b2_small.n_free)
    with pytest.raises(Exception, match="dependent"):
        orthonormalize_rows(np.vstack([v, 2.0 * v]), b2_small.X)


def test_greedy_input_validation(b2_narrow):
    training = romkit.sample_parameters(b2_narrow.domain, 4, "grid")
    with pytest.raises(ConfigurationError, match="empty"):
        greedy_build(b2_narrow, [], tol=1e-3, n_max=5)
    with pytest.raises(ConfigurationError):
        greedy_build(b2_narrow, training, tol=0.0, n_max=5)
    with pytest.raises(ConfigurationError):
        greedy_build(b2_narrow, training, tol=1e-3, n_max=0)


def test_greedy_rejects_non_coercive(b2_narrow):
    clone = romkit.make_thermal_block(8, 2, 0.5, 2.0)
    clone.parametrically_coercive = False
    with pytest.raises(ConfigurationError, match="coerciv"):
        greedy_build(clone, [clone.mu_bar], tol=1e-3, n_max=5)


def test_greedy_converges_on_narrow_domain(b2_greedy):
    basis, history, model, data = b2_greedy
    assert history.stopping_reason == "tolerance"
    assert history.max_estimator_per_iteration[-1] <= 1e-6
    assert basis.N == len(history.selected_parameters)
    assert model.A_rb_q[0].shape == (basis.N, basis.N)


def test_greedy_first_parameter_is_midpoint(b2_greedy, b2_narrow):
    _, history, _, _ = b2_greedy
    np.testing.assert_allclose(history.selected_parameters[0],
                               b2_narrow.domain.midpoint())


def test_greedy_estimator_decays(b2_greedy):
    _, history, _, _ = b2_greedy
    trace = np.array(history.max_estimator_per_iteration)
    assert trace[-1] < 1e-4 * trace[0]
    # decay need not be monotone step to step, but must trend firmly down
    assert np.all(trace[5:] < trace[0])


def test_greedy_basis_x_orthonormal(b2_greedy, b2_narrow):
    basis, _, _, _ = b2_greedy
    G = basis.vectors @ (b2_narrow.X @ basis.vectors.T)
    np.testing.assert_allclose(G, np.eye(basis.N), atol=1e-12)


def test_greedy_selections_distinct(b2_greedy):
    _, history, _, _ = b2_greedy
    seen = {tuple(mu) for mu in history.selected_parameters}
    assert len(seen) == len(history.selected_parameters)


def test_greedy_reproduces_selected_snapshots(b2_greedy, b2_narrow):
    basis, history, model, _ = b2_greedy
    for mu in history.selected_parameters[:3]:
        truth = solve_fom(b2_narrow, mu)
        rb = romkit.rb_solve(model, mu)
        lifted = romkit.lift(basis, rb.coefficients)
        err = v_norm(b2_narrow, truth.u - lifted)
        assert err <= 1e-10 * v_norm(b2_narrow, truth.u)


def test_greedy_n_max_stop(b2_narrow):
    training = romkit.sample_parameters(b2_narrow.domain, 16, "grid")
    basis, history, _, _ = greedy_build(b2_narrow, training, tol=1e-14, n_max=3)
    assert history.stopping_reason == "n_max"
    assert basis.N == 3


def test_greedy_factorizes_x_once(b2_narrow, monkeypatch):
    problem = dataclasses.replace(b2_narrow)  # no cached factorization
    X = problem.X.tocsc()
    factorized = scipy.sparse.linalg.factorized
    x_factorizations = []

    def counting_factorized(A):
        if A.shape == X.shape and (A != X).nnz == 0:
            x_factorizations.append(A)
        return factorized(A)

    monkeypatch.setattr(scipy.sparse.linalg, "factorized", counting_factorized)
    training = romkit.sample_parameters(problem.domain, 16, "grid")
    basis, _, _, _ = greedy_build(problem, training, tol=1e-14, n_max=3)
    assert basis.N == 3
    assert len(x_factorizations) == 1


def test_greedy_exact_capture_stops_at_tolerance(b1_small):
    # every snapshot of the one-block problem is a multiple of the first,
    # so the estimator collapses to zero after a single vector
    training = romkit.sample_parameters(b1_small.domain, 5, "grid")
    basis, history, _, _ = greedy_build(b1_small, training, tol=1e-14, n_max=10)
    assert basis.N == 1
    assert history.stopping_reason == "tolerance"


def test_greedy_stagnates_when_training_set_is_exhausted(b2_narrow):
    # an unreachable tolerance forces re-selection of captured snapshots
    training = romkit.sample_parameters(b2_narrow.domain, 16, "grid")
    basis, history, _, _ = greedy_build(b2_narrow, training, tol=1e-300,
                                        n_max=30)
    assert history.stopping_reason == "stagnation"
    assert basis.N <= len(training)
