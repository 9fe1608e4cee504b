import logging

import numpy as np
import pytest
from scipy import integrate

import fgred.metrics as metrics
from fgred.factor_graph import LinearFactor, SupplementedGraph
from fgred.gauss import GaussianBelief
from fgred.lattice import validate_antichain
from fgred.metrics import (
    QualityKind,
    SpecificQuality,
    quality,
    quality_info,
    redundancy_mc,
    redundancy_mc_info,
    redundancy_pair_info,
    wass_coefficients_info,
    wb_coefficients_info,
)
from reference import blas_thread_counts, redundancy_mc_x_space, redundancy_quadrature_1d_info


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * np.eye(n)


def random_system(rng, n=3, m=4):
    """(prior belief, delta, A, gamma) for one source."""
    info_b = random_spd(rng, n)
    mu_b = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    gamma = random_spd(rng, m)
    return GaussianBelief(mean=mu_b, info=info_b), A.T @ gamma @ A, A, gamma


def two_source_graph(rng, n_vars=1, var_dim=2):
    state = n_vars * var_dim
    anchor = LinearFactor(
        A=np.eye(state), z=rng.standard_normal(state),
        gamma=random_spd(rng, state), args=tuple(range(n_vars)),
    )
    factors = [anchor]
    for _ in range(2):
        rows = int(rng.integers(1, 4))
        A = rng.standard_normal((rows, state))
        factors.append(LinearFactor(A=A, z=rng.standard_normal(rows),
                                    gamma=random_spd(rng, rows), args=tuple(range(n_vars))))
    return SupplementedGraph(factors=factors, base=(0,), n_vars=n_vars, var_dim=var_dim)


def quadrature_1d(g, alpha, kind):
    """1-D quadrature redundancy of an antichain of a graph's factor sets."""
    deltas = [g.stack_subgraph(src) for src in alpha.sources]
    return redundancy_quadrature_1d_info(g.prior_belief(), deltas, kind)


def gauss_kl(mu0, cov0, mu1, cov1):
    """KL(N0 || N1), textbook closed form."""
    k = len(mu0)
    inv1 = np.linalg.inv(cov1)
    d = mu1 - mu0
    return 0.5 * (
        np.trace(inv1 @ cov0) + d @ inv1 @ d - k
        + np.linalg.slogdet(cov1)[1] - np.linalg.slogdet(cov0)[1]
    )


def test_quality_kind_parse():
    assert QualityKind.parse("wb") is QualityKind.WB
    assert QualityKind.parse("WASS") is QualityKind.WASS
    assert QualityKind.parse(QualityKind.WB) is QualityKind.WB
    with pytest.raises(ValueError):
        QualityKind.parse("nope")


def test_specific_info_matches_kl_oracle():
    # the information-theoretic specific quality equals the KL divergence
    # between the measurement distribution given x and its marginal
    rng = np.random.default_rng(0)
    for _ in range(10):
        belief, delta, A, gamma = random_system(rng)
        co = wb_coefficients_info(belief, delta)
        cov_b = belief.cov()
        cov_z_given_x = np.linalg.inv(gamma)
        cov_z = cov_z_given_x + A @ cov_b @ A.T
        for _ in range(3):
            x = belief.mean + rng.standard_normal(belief.dim)
            want = gauss_kl(A @ x, cov_z_given_x, A @ belief.mean, cov_z)
            got = co.at((x - belief.mean)[None, :])[0]
            assert got == pytest.approx(want, abs=1e-8)


def test_wass_specific_matches_nested_mc():
    # error-reduction form: prior Wasserstein error minus expected posterior
    # Wasserstein error, the expectation estimated by brute-force z sampling
    rng = np.random.default_rng(1)
    belief, delta, A, gamma = random_system(rng)
    co = wass_coefficients_info(belief, delta)
    x = belief.mean + rng.standard_normal(belief.dim)

    cov_b = belief.cov()
    lam_t = belief.info + delta
    cov_t = np.linalg.inv(lam_t)
    n_draws = 200_000
    zrng = np.random.default_rng(42)
    Z = A @ x + zrng.multivariate_normal(np.zeros(A.shape[0]), np.linalg.inv(gamma), n_draws)
    rhs = (belief.info @ belief.mean)[None, :] + Z @ (A.T @ gamma).T
    mu_post = np.linalg.solve(lam_t, rhs.T).T
    prior_err = np.trace(cov_b) + (belief.mean - x) @ (belief.mean - x)
    post_err = np.trace(cov_t) + ((mu_post - x) ** 2).sum(axis=1)
    vals = prior_err - post_err
    got = co.at((x - belief.mean)[None, :])[0]
    se = vals.std() / np.sqrt(n_draws)
    assert abs(vals.mean() - got) < 4 * se


def test_expected_specific_equals_quality():
    # averaging each specific quality over the prior recovers the quality
    rng = np.random.default_rng(2)
    for _ in range(6):
        belief, delta, _, _ = random_system(rng)
        xrng = np.random.default_rng(7)
        X = belief.sample(xrng, 40_000)
        co_wb = wb_coefficients_info(belief, delta)
        co_wa = wass_coefficients_info(belief, delta)
        for co, kind in ((co_wb, QualityKind.WB), (co_wa, QualityKind.WASS)):
            vals = co.at(X[:20_000] - belief.mean)
            q = quality_info(belief, delta, kind)
            se = vals.std() / np.sqrt(len(vals))
            assert abs(vals.mean() - q) < 4 * se


def test_wass_quality_trace_form():
    rng = np.random.default_rng(4)
    belief, delta, _, _ = random_system(rng)
    lam_t = belief.info + delta
    want = 2.0 * np.trace(np.linalg.inv(belief.info) - np.linalg.inv(lam_t))
    assert quality_info(belief, delta, QualityKind.WASS) == pytest.approx(want, abs=1e-10)


def test_quality_monotone_in_source_set():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = two_source_graph(rng)
        for kind in QualityKind:
            q1 = quality(g, (1,), kind)
            q12 = quality(g, (1, 2), kind)
            assert q1 <= q12 + 1e-10
            assert quality(g, (), kind) == pytest.approx(0.0, abs=1e-12)


def test_coefficient_matrices_psd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        belief, delta, _, _ = random_system(rng, n=int(rng.integers(1, 6)))
        co_wb = wb_coefficients_info(belief, delta)
        # W = M / 2
        assert np.linalg.eigvalsh(2.0 * co_wb.W).min() >= -1e-8
        co_wa = wass_coefficients_info(belief, delta)
        # c = tr N' and N' is PSD
        assert co_wa.c >= 0.0
        # N may be indefinite; the recorded minimum eigenvalue is the witness
        assert co_wa.w_min_eig == pytest.approx(np.linalg.eigvalsh(co_wa.W).min(), abs=1e-9)


def test_indefinite_n_logged_and_eigenvalue_lazy(caplog):
    # this prior and source do not commute and N has eigenvalue -0.78
    belief = GaussianBelief(mean=np.zeros(2), info=np.array([[1.0, 0.9], [0.9, 1.0]]))
    delta = np.diag([10.0, 0.0])
    with caplog.at_level(logging.INFO, logger="fgred.metrics"):
        co = wass_coefficients_info(belief, delta)
    # without debug logging nothing reads N's spectrum
    assert "w_min_eig" not in vars(co) and not caplog.records
    assert co.w_min_eig == pytest.approx(-0.7802278947049203, rel=1e-12)
    with caplog.at_level(logging.DEBUG, logger="fgred.metrics"):
        wass_coefficients_info(belief, delta)
    assert [r.getMessage() for r in caplog.records] == [
        "Wasserstein N matrix not PSD: min eigenvalue -7.802e-01"
    ]


def test_specific_wb_minimized_at_prior_mean():
    rng = np.random.default_rng(7)
    belief, delta, _, _ = random_system(rng)
    co = wb_coefficients_info(belief, delta)
    at_mean = co.at(np.zeros((1, belief.dim)))[0]
    for _ in range(20):
        x = belief.mean + rng.standard_normal(belief.dim)
        assert co.at((x - belief.mean)[None, :])[0] >= at_mean - 1e-12


def test_self_redundancy_quadrature_matches_quality_1d():
    rng = np.random.default_rng(8)
    for _ in range(8):
        g = two_source_graph(rng, n_vars=1, var_dim=1)
        for kind in QualityKind:
            for J in ((1,), (2,)):
                alpha = validate_antichain([J])
                r = quadrature_1d(g, alpha, kind)
                assert r == pytest.approx(quality(g, J, kind), abs=1e-6)


def test_mc_matches_quadrature_1d():
    rng = np.random.default_rng(9)
    for trial in range(6):
        g = two_source_graph(rng, n_vars=1, var_dim=1)
        alpha = validate_antichain([(1,), (2,)])
        for kind in QualityKind:
            quad = quadrature_1d(g, alpha, kind)
            mc = redundancy_mc(g, alpha, kind, n_samples=40_000, rng_seed=trial)
            assert abs(mc.value - quad) < 4 * mc.std_error + 1e-9


def test_redundancy_monotone_with_shared_samples():
    # adding a source to the antichain can only lower the pointwise min,
    # so with identical draws the estimate is deterministically ordered
    rng = np.random.default_rng(10)
    belief, d1, _, _ = random_system(rng)
    _, d2, _, _ = random_system(rng)
    for kind in QualityKind:
        small = redundancy_mc_info(belief, [d1], kind, n_samples=5000, rng_seed=3)
        big = redundancy_mc_info(belief, [d1, d2], kind, n_samples=5000, rng_seed=3)
        assert big.value <= small.value + 1e-12


def test_argmin_counts():
    rng = np.random.default_rng(11)
    belief, d1, _, _ = random_system(rng)
    _, d2, _, _ = random_system(rng)
    est = redundancy_mc_info(belief, [d1, d2], QualityKind.WB, n_samples=2000, rng_seed=0)
    assert sum(est.argmin_counts) == 2000
    # identical sources tie everywhere; ties go to the first
    est2 = redundancy_mc_info(belief, [d1, d1], QualityKind.WB, n_samples=500, rng_seed=0)
    assert est2.argmin_counts == (500, 0)


def test_redundancy_mc_validation():
    rng = np.random.default_rng(12)
    belief, d1, _, _ = random_system(rng)
    with pytest.raises(ValueError):
        redundancy_mc_info(belief, [], QualityKind.WB)
    for n_samples in (1, 10.0, True):
        with pytest.raises(ValueError, match="^n_samples must be"):
            redundancy_mc_info(belief, [d1], QualityKind.WB, n_samples=n_samples)
    assert redundancy_mc_info(belief, [d1], QualityKind.WB, n_samples=np.int64(10)).n_samples == 10


def test_mc_matches_x_space_reference():
    # standard-normal draws scored with the whitened forms against the same
    # draws mapped to states and scored in x-space
    rng = np.random.default_rng(21)
    belief = GaussianBelief(mean=rng.standard_normal(4), info=random_spd(rng, 4))
    deltas = [random_system(rng, n=4)[1] for _ in range(3)]
    for kind in QualityKind:
        for k in (1, 2, 3):
            got = redundancy_mc_info(belief, deltas[:k], kind, n_samples=4000, rng_seed=k)
            want = redundancy_mc_x_space(belief, deltas[:k], kind, n_samples=4000, rng_seed=k)
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
            assert got.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0.0)
            assert got.argmin_counts == want.argmin_counts


def test_at_matches_per_row_quadratic_form():
    # the one-product scorer against d^T W d row by row, for draws laid out
    # row-major, as the transpose of (dim, n) draws, and as a single row;
    # relative to |c| + |d|^T |W| |d|, since c and the form can cancel
    rng = np.random.default_rng(23)
    belief, delta, _, _ = random_system(rng, n=5)
    draws = rng.standard_normal((5, 300))
    devs = [np.ascontiguousarray(draws.T), draws.T, draws.T[:1]]
    assert devs[0].flags.c_contiguous and devs[1].flags.f_contiguous
    for sq in (wb_coefficients_info(belief, delta), wass_coefficients_info(belief, delta)):
        for dev in devs:
            before = dev.copy()
            want = np.array([sq.c + d @ sq.W @ d for d in dev])
            scale = np.array([abs(sq.c) + np.abs(d) @ np.abs(sq.W) @ np.abs(d) for d in dev])
            assert (np.abs(sq.at(dev) - want) <= 1e-13 * scale).all()
            assert np.array_equal(dev, before)


@pytest.mark.parametrize(
    "name, steps",
    [("redundancy_mc_info", {"_posterior", "at"}), ("quality_info", {"_posterior"})],
)
def test_mc_and_quality_run_on_one_blas_thread(name, steps, openblas_at_two_threads, monkeypatch):
    # the count is 1 wherever the call builds a posterior or scores draws,
    # and the previous count is back after a return and after an exception
    setters = openblas_at_two_threads
    belief, delta, _, _ = random_system(np.random.default_rng(24))
    calls = {
        "redundancy_mc_info": lambda: redundancy_mc_info(belief, [delta] * 2, QualityKind.WB, 100),
        "quality_info": lambda: quality_info(belief, delta, QualityKind.WASS),
    }
    posterior, at, seen = metrics._posterior, SpecificQuality.at, []

    def counting_posterior(prior, d):
        seen.append(("_posterior", blas_thread_counts(setters)))
        return posterior(prior, d)

    def counting_at(sq, dev):
        seen.append(("at", blas_thread_counts(setters)))
        return at(sq, dev)

    monkeypatch.setattr(metrics, "_posterior", counting_posterior)
    monkeypatch.setattr(SpecificQuality, "at", counting_at)
    calls[name]()
    assert {step for step, _ in seen} == steps
    assert all(counts == [1] * len(setters) for _, counts in seen)
    assert blas_thread_counts(setters) == [2] * len(setters)

    class Stop(BaseException):
        pass

    def stop(prior, d):
        raise Stop

    monkeypatch.setattr(metrics, "_posterior", stop)
    with pytest.raises(Stop):
        calls[name]()
    assert blas_thread_counts(setters) == [2] * len(setters)


def test_redundancy_mc_deterministic():
    rng = np.random.default_rng(13)
    belief, d1, _, _ = random_system(rng)
    _, d2, _, _ = random_system(rng)
    a = redundancy_mc_info(belief, [d1, d2], QualityKind.WASS, n_samples=3000, rng_seed=5)
    b = redundancy_mc_info(belief, [d1, d2], QualityKind.WASS, n_samples=3000, rng_seed=5)
    assert a.value == b.value and a.std_error == b.std_error


def test_quadrature_handles_piece_crossings():
    # in 2-D a source that pins x_0 and one that pins x_1 each give the
    # pointwise minimum on part of the prior's mass, so the exact rule must
    # integrate across the switch
    belief = GaussianBelief(mean=np.array([0.3, -0.2]), info=np.array([[1.0, 0.3], [0.3, 2.0]]))
    deltas = [np.diag([4.0, 0.2]), np.diag([0.3, 3.0])]
    n_samples = 200_000
    for kind in QualityKind:
        mc = redundancy_mc_info(belief, deltas, kind, n_samples=n_samples, rng_seed=0)
        assert min(mc.argmin_counts) > 0.05 * n_samples
        exact = redundancy_pair_info(belief, deltas, kind)
        assert abs(mc.value - exact) < 4 * mc.std_error


def test_delta_checked_against_prior():
    rng = np.random.default_rng(14)
    belief, delta, _, _ = random_system(rng)
    skewed = delta.copy()
    skewed[0, 1] += 1.0
    # a 1x1 delta would broadcast against the prior without the shape check
    bad_deltas = [(skewed, "delta is not symmetric")] + [
        (np.eye(n), "prior info has shape") for n in (1, belief.dim + 1)
    ]
    calls = [
        lambda d: wb_coefficients_info(belief, d),
        lambda d: wass_coefficients_info(belief, d),
    ]
    for kind in QualityKind:
        calls.append(lambda d, kind=kind: quality_info(belief, d, kind))
        calls.append(
            lambda d, kind=kind: redundancy_mc_info(belief, [delta, d], kind, n_samples=100)
        )
    for call in calls:
        for bad, message in bad_deltas:
            with pytest.raises(ValueError, match=message):
                call(bad)


def test_graph_sources_must_be_supplemental():
    g = two_source_graph(np.random.default_rng(15))
    for kind in QualityKind:
        with pytest.raises(ValueError, match="non-supplemental"):
            quality(g, (0, 1), kind)
        with pytest.raises(ValueError, match="non-supplemental"):
            redundancy_mc(g, validate_antichain([(0,), (1,)]), kind, n_samples=100)


def test_pair_matches_quadrature_1d():
    # the exact two-source redundancy against the x-space quadrature oracle;
    # in 1-D one source's piece lies below the other's everywhere, and
    # test_quadrature_handles_piece_crossings covers pieces that cross
    rng = np.random.default_rng(16)
    belief = GaussianBelief(mean=np.zeros(1), info=np.array([[1.0]]))
    cases = [(belief, [np.array([[0.5]]), np.array([[3.0]])])]
    for _ in range(10):
        g = two_source_graph(rng, n_vars=1, var_dim=1)
        cases.append((g.prior_belief(), [g.stack_subgraph(J) for J in ((1,), (2,))]))
    for prior, deltas in cases:
        for kind in QualityKind:
            quad = redundancy_quadrature_1d_info(prior, deltas, kind)
            assert redundancy_pair_info(prior, deltas, kind) == pytest.approx(quad, abs=1e-9)


def test_expected_abs_matches_z_quadrature():
    # E|c + lam z^2| against direct quadrature over z; in 1-D the two
    # sources' pieces never cross, so these (c, lam) pairs of opposite sign
    # exercise the Imhof rule, from balanced to strongly dominated, and the
    # bound that skips it when D all but never changes sign
    def by_z(c, lam):
        def f(z):
            return abs(c + lam * z * z) * np.exp(-0.5 * z * z)

        root = np.sqrt(-c / lam)
        points = [root] if root < 40.0 else None
        val, _ = integrate.quad(f, 0.0, 40.0, points=points, epsabs=0.0, epsrel=1e-13, limit=400)
        return 2.0 * val / np.sqrt(2.0 * np.pi)

    cases = [(-1.0, 0.5), (0.3, -2.0), (-4.0, 0.9), (25.85, -0.57), (-0.0167, 0.0152), (-15.0, 1e-3)]
    for c, lam in cases:
        got = metrics._expected_abs(np.array([c]), np.array([[lam]]))[0]
        assert got == pytest.approx(by_z(c, lam), rel=1e-9)


def test_quality_info_is_the_coefficients_quality():
    # quality_info reads the kind's SpecificQuality, so the two agree bit for
    # bit, on a linear graph and on a study world's pose-marginal forms
    from fgred.experiment import solve_world
    from fgred.sim2d import SimConfig, simulate_world

    g = two_source_graph(np.random.default_rng(31), n_vars=2, var_dim=2)
    sol = solve_world(simulate_world(SimConfig(), 3))
    cases = [
        (g.prior_belief(), [g.stack_subgraph(J) for J in ((1,), (2,), (1, 2))]),
        (sol.prior, [sol.deltas[s] for s in sorted(sol.deltas)]),
    ]
    coefficients = {QualityKind.WB: wb_coefficients_info, QualityKind.WASS: wass_coefficients_info}
    for prior, deltas in cases:
        for delta in deltas:
            for kind, coefficients_info in coefficients.items():
                assert quality_info(prior, delta, kind) == coefficients_info(prior, delta).quality
    for J in ((1,), (2,), (1, 2)):
        for kind, coefficients_info in coefficients.items():
            want = coefficients_info(g.prior_belief(), g.stack_subgraph(J)).quality
            assert quality(g, J, kind) == want


def test_stacked_scores_same_bits_as_one_system():
    # systems scored together, in any order, give each source wb_ and
    # wass_coefficients_info's c, W and quality, and each pair
    # redundancy_pair_info's and quality_info's values, bit for bit
    rng = np.random.default_rng(32)
    priors, pairs = [], []
    for _ in range(5):
        belief, d1, _, _ = random_system(rng, n=4)
        priors.append(belief)
        pairs.append([d1, random_system(rng, n=4)[1]])
    coefficients = {QualityKind.WB: wb_coefficients_info, QualityKind.WASS: wass_coefficients_info}
    sources = [d for pair in pairs for d in pair]
    forms = metrics._specific_qualities([p for p in priors for _ in (0, 1)], sources, list(QualityKind))
    for kind, coefficients_info in coefficients.items():
        for k, sq in enumerate(forms[kind]):
            alone = coefficients_info(priors[k // 2], sources[k])
            assert (sq.c, sq.quality) == (alone.c, alone.quality)
            assert sq.W.tobytes() == alone.W.tobytes()
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
        scores = metrics._pair_scores([priors[i] for i in order], [pairs[i] for i in order])
        for kind in QualityKind:
            redundancy, qualities = scores[kind]
            for k, i in enumerate(order):
                assert redundancy[k] == redundancy_pair_info(priors[i], pairs[i], kind)
                assert qualities[k].tolist() == [quality_info(priors[i], d, kind) for d in pairs[i]]


def test_pair_identical_sources_give_quality():
    rng = np.random.default_rng(17)
    belief, delta, _, _ = random_system(rng, n=4)
    for kind in QualityKind:
        assert redundancy_pair_info(belief, [delta, delta], kind) == quality_info(belief, delta, kind)


def test_pair_symmetric_in_sources():
    rng = np.random.default_rng(18)
    for _ in range(5):
        belief, d1, _, _ = random_system(rng, n=4)
        _, d2, _, _ = random_system(rng, n=4)
        for kind in QualityKind:
            assert redundancy_pair_info(belief, [d1, d2], kind) == redundancy_pair_info(
                belief, [d2, d1], kind
            )


def test_pair_constant_difference_gives_min_quality(monkeypatch):
    # two sources whose specific qualities differ by a constant everywhere:
    # every lam is 0, so D never changes sign and E min = min(Q_a, Q_b)
    rng = np.random.default_rng(19)
    belief, delta, _, _ = random_system(rng, n=3)
    base = wb_coefficients_info(belief, delta)
    d_low, d_high = delta, delta.copy()
    shift = {id(d_low): 0.0, id(d_high): 0.75}

    def shifted(prior, d):
        return SpecificQuality(c=base.c + shift[id(d)], W=base.W, quality=base.quality + shift[id(d)])

    monkeypatch.setattr(metrics, "wb_coefficients_info", shifted)
    for pair in ([d_low, d_high], [d_high, d_low]):
        assert redundancy_pair_info(belief, pair, QualityKind.WB) == base.quality
    assert metrics._expected_abs(np.array([-0.75]), np.zeros((1, 3)))[0] == 0.75


def test_pair_validation():
    rng = np.random.default_rng(20)
    belief, d1, _, _ = random_system(rng)
    for deltas in ([d1], [d1, d1, d1]):
        with pytest.raises(ValueError, match="exactly two"):
            redundancy_pair_info(belief, deltas, QualityKind.WB)
    with pytest.raises(ValueError, match="prior info has shape"):
        redundancy_pair_info(belief, [d1, np.eye(1)], QualityKind.WASS)
