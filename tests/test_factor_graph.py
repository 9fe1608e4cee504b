import numpy as np
import pytest

from fgred.factor_graph import LinearFactor, SupplementedGraph
from fgred.gauss import GaussianBelief, NotPositiveDefiniteError
from fgred.metrics import QualityKind, quality
from reference import posterior_belief, sample_measurements


def random_graph(rng, n_vars=2, var_dim=2, n_base=2, n_supp=4):
    """Random full-rank linear Gaussian factor graph."""
    state = n_vars * var_dim
    factors = []
    for k in range(n_base + n_supp):
        args = tuple(sorted(rng.choice(n_vars, size=int(rng.integers(1, n_vars + 1)), replace=False).tolist()))
        rows = int(rng.integers(1, 4))
        A = np.zeros((rows, state))
        for a in args:
            A[:, a * var_dim:(a + 1) * var_dim] = rng.standard_normal((rows, var_dim))
        G = rng.standard_normal((rows, rows))
        gamma = G @ G.T + np.eye(rows)
        z = rng.standard_normal(rows)
        factors.append(LinearFactor(A=A, z=z, gamma=gamma, args=args))
    # anchor factor keeps the base full-rank
    anchor = LinearFactor(
        A=np.eye(state), z=rng.standard_normal(state), gamma=np.eye(state), args=tuple(range(n_vars))
    )
    factors.insert(0, anchor)
    base = tuple(range(n_base + 1))
    return SupplementedGraph(factors=factors, base=base, n_vars=n_vars, var_dim=var_dim)


def test_factor_validation():
    A = np.ones((2, 4))
    gamma = np.eye(2)
    f = LinearFactor(A=A, z=np.zeros(2), gamma=gamma, args=(1, 0))
    assert f.args == (0, 1)  # sorted
    assert f.rows == 2
    with pytest.raises(ValueError):
        LinearFactor(A=A, z=np.zeros(3), gamma=gamma, args=(0,))
    with pytest.raises(NotPositiveDefiniteError, match="^gamma is not positive definite"):
        LinearFactor(A=A, z=np.zeros(2), gamma=-gamma, args=(0,))
    with pytest.raises(ValueError, match="^gamma is not symmetric"):
        LinearFactor(A=A, z=np.zeros(2), gamma=[[1.0, 0.5], [0.0, 1.0]], args=(0,))
    with pytest.raises(ValueError):
        f.A[0, 0] = 5.0  # read-only


def test_factor_information():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    G = rng.standard_normal((3, 3))
    gamma = G @ G.T + np.eye(3)
    f = LinearFactor(A=A, z=rng.standard_normal(3), gamma=gamma, args=(0, 1))
    assert np.allclose(f.information(), A.T @ gamma @ A, atol=1e-12)
    assert np.allclose(f.weighted_rhs(), A.T @ gamma @ f.z)


def test_information_additivity_disjoint_unions():
    rng = np.random.default_rng(1)
    g = random_graph(rng)
    supp = list(g.supplemental)
    J1, J2 = supp[:2], supp[2:]
    d1 = g.stack_subgraph(J1)
    d2 = g.stack_subgraph(J2)
    both = g.stack_subgraph(J1 + J2)
    assert np.allclose(both, d1 + d2, atol=1e-12)


def test_loewner_monotone_in_subset():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng)
        supp = list(g.supplemental)
        J = supp[:2]
        Jp = supp[:3]
        diff = g.stack_subgraph(Jp) - g.stack_subgraph(J)
        assert np.linalg.eigvalsh(diff).min() >= -1e-10


def test_mutual_information_monotone_and_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(8):
        g = random_graph(rng)
        supp = list(g.supplemental)
        prev = 0.0
        for k in range(len(supp) + 1):
            J = supp[:k]
            mi = quality(g, J, QualityKind.WB)
            assert mi >= prev - 1e-10
            prev = mi
            # determinant identity
            lam_b = g.prior_belief().info
            delta = g.stack_subgraph(J)
            direct = 0.5 * np.linalg.slogdet(np.eye(lam_b.shape[0]) + delta @ np.linalg.inv(lam_b))[1]
            assert mi == pytest.approx(direct, abs=1e-9)


def test_posterior_all_factors_equals_full_stack():
    rng = np.random.default_rng(4)
    g = random_graph(rng)
    post = posterior_belief(g, g.supplemental)
    # build from scratch: sum of all informations, solve normal equations
    lam = sum(f.information() for f in g.factors)
    rhs = sum(f.weighted_rhs() for f in g.factors)
    assert np.allclose(post.info, lam, atol=1e-9)
    assert np.allclose(post.mean, np.linalg.solve(lam, rhs), atol=1e-9)


def test_posterior_empty_returns_prior():
    rng = np.random.default_rng(5)
    g = random_graph(rng)
    assert posterior_belief(g, ()) is g.prior_belief()


def test_posterior_rejects_base_indices():
    rng = np.random.default_rng(6)
    g = random_graph(rng)
    with pytest.raises(ValueError):
        posterior_belief(g, (0,))


def test_rank_deficient_base_rejected():
    A = np.zeros((1, 2))
    A[0, 0] = 1.0
    f = LinearFactor(A=A, z=np.zeros(1), gamma=np.eye(1), args=(0,))
    with pytest.raises(ValueError, match="full-rank"):
        SupplementedGraph(factors=[f], base=(0,), n_vars=1, var_dim=2)


def test_args_outside_variables_rejected():
    # a negative index would slice a block counted from the end of the state
    A = np.zeros((1, 6))
    A[0, 2] = 1.0
    for args in ((-2,), (3,), (0, 3)):
        f = LinearFactor(A=A, z=np.zeros(1), gamma=np.eye(1), args=args)
        with pytest.raises(ValueError, match=r"^factor 0: args .* outside \[0, 3\)$"):
            SupplementedGraph(factors=[f], base=(0,), n_vars=3, var_dim=2)


def test_sample_measurements_moments():
    rng = np.random.default_rng(8)
    g = random_graph(rng, n_supp=2)
    J = list(g.supplemental)[:1]
    f = g.factors[J[0]]
    x = rng.standard_normal(g.state_dim)
    Z = np.stack([sample_measurements(g, J, x, rng_seed=s) for s in range(4000)])
    expect_mean = f.A @ x
    cov = np.linalg.inv(f.gamma)
    se = np.sqrt(np.diag(cov) / 4000)
    assert np.all(np.abs(Z.mean(axis=0) - expect_mean) < 4 * se)


def test_prior_belief_sample_moments():
    rng = np.random.default_rng(9)
    g = random_graph(rng)
    prior = g.prior_belief()
    X = prior.sample(np.random.default_rng(0), 50_000)
    cov = prior.cov()
    se = np.sqrt(np.diag(cov) / 50_000)
    assert np.all(np.abs(X.mean(axis=0) - prior.mean) < 4 * se)
    assert np.allclose(np.cov(X.T), cov, atol=5 * np.abs(cov).max() / np.sqrt(50_000) + 0.01)
