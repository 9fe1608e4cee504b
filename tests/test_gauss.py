import logging
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import fgred.gauss as gauss
from fgred.gauss import (
    GaussianBelief,
    NotPositiveDefiniteError,
    check_symmetric,
    cholesky_pd,
    schur_complement,
    solve_pd,
    solve_pd_stack,
)
from fgred.metrics import QualityKind, quality_info
from reference import (
    blas_thread_counts,
    conditional_mean_posterior,
    expected_recentred_quadratic,
    first_bad_minor,
    invert_pd,
)


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + scale * np.eye(n)


def brute_det(M):
    # cofactor expansion, independent of any factorization code
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * M[0, j] * brute_det(minor)
    return total


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 8)
        M = random_spd(rng, n)
        L = cholesky_pd(M)
        assert np.allclose(L @ L.T, M, atol=1e-10)
        assert np.allclose(L, np.tril(L))


def test_cholesky_rejects_indefinite_and_names_minor():
    M = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_pd(M, name="test matrix")
    assert "test matrix" in str(exc.value)
    assert exc.value.minor == 2
    # LAPACK's failure at any order names the first bad leading minor, through
    # solve_pd as well, and a pivot at or below PIVOT_TOL is named with it
    rng = np.random.default_rng(11)
    for n, bad in [(3, 1), (12, 7), (35, 20), (95, 95)]:
        A = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, n))
        M = A @ A.T
        M[bad - 1, bad - 1] -= A[bad - 1, bad - 1] ** 2 + 0.5  # pivot bad fails
        with pytest.raises(
            NotPositiveDefiniteError,
            match=f"^m is not positive definite: leading minor of order {bad} is not positive$",
        ) as exc:
            solve_pd(M, np.ones(n), name="m")
        assert (exc.value.minor, exc.value.pivot) == (bad, None)
    M = np.diag([1.0, 4.0, 1e-22, 9.0])
    with pytest.raises(
        NotPositiveDefiniteError,
        match=r"^m is not positive definite: leading minor of order 3 is not positive "
        r"\(pivot 1.000e-11\)$",
    ) as exc:
        cholesky_pd(M, name="m")
    assert exc.value.minor == 3 and exc.value.pivot == pytest.approx(1e-11)


def test_failing_minor_matches_oracle():
    # the minor named from one factorization is the one that refactoring
    # every leading minor finds, whether potrf stops there (a negative
    # pivot) or runs on past a pivot at or below PIVOT_TOL
    rng = np.random.default_rng(12)
    for trial in range(60):
        n = int(rng.integers(2, 96))
        A = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, n))
        M = A @ A.T
        negative, tiny = (int(k) for k in rng.integers(1, n + 1, size=2))
        if trial % 3 != 0:  # pivot `tiny` is 1e-11: its row and column are cut off
            M[tiny - 1, :] = M[:, tiny - 1] = 0.0
            M[tiny - 1, tiny - 1] = 1e-22
        if trial % 3 != 1:  # the squared pivot `negative` is at most -0.5
            M[negative - 1, negative - 1] = -0.5
        want = first_bad_minor(M)
        assert want == min(negative if trial % 3 != 1 else n, tiny if trial % 3 != 0 else n)
        for factor in (lambda: cholesky_pd(M, name="m"), lambda: solve_pd(M, np.ones(n), name="m")):
            with pytest.raises(NotPositiveDefiniteError, match=f"leading minor of order {want} ") as exc:
                factor()
            assert exc.value.minor == want
            assert exc.value.pivot == (pytest.approx(1e-11) if trial % 3 == 1 else None)
    # potrf stops at minor 3; the 1e-11 pivot before it names minor 2, and
    # as before no pivot is given when the factorization stopped
    M = np.diag([1.0, 1e-22, -1.0, 2.0])
    assert first_bad_minor(M) == 2
    with pytest.raises(
        NotPositiveDefiniteError,
        match=r"^m is not positive definite: leading minor of order 2 is not positive$",
    ) as exc:
        cholesky_pd(M, name="m")
    assert (exc.value.minor, exc.value.pivot) == (2, None)


def test_non_finite_input_rejected():
    nan, inf = np.nan, np.inf
    prior = GaussianBelief(mean=np.zeros(2), info=np.eye(2))
    for M in ([[1.0, nan], [0.0, 1.0]], [[1.0, nan], [nan, 1.0]], [[inf, 0.0], [0.0, 1.0]],
              [[1.0, -inf], [-inf, 1.0]], [[nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="^m is not finite$"):
            check_symmetric(M, name="m")
        with pytest.raises(ValueError, match="^m is not finite$"):
            cholesky_pd(M, name="m")
        with pytest.raises(ValueError, match="^m is not finite$"):
            solve_pd(M, np.ones(2), name="m")
        with pytest.raises(ValueError, match="^info is not finite$"):
            GaussianBelief(mean=np.zeros(2), info=M)
        with pytest.raises(ValueError, match="^information matrix is not finite$"):
            schur_complement(M, np.array([0]))
        for kind in QualityKind:
            with pytest.raises(ValueError, match="^delta is not finite$"):
                quality_info(prior, np.asarray(M), kind)
    for mean in ([nan, 0.0], [0.0, -inf]):
        with pytest.raises(ValueError, match="^mean is not finite$"):
            GaussianBelief(mean=mean, info=np.eye(2))
    # finite entries that overflow M - M.T are asymmetric, not non-finite
    with pytest.raises(ValueError, match="^m is not symmetric"), np.errstate(over="ignore"):
        check_symmetric([[1.0, 1e308], [-1e308, 1.0]], name="m")


def test_cholesky_rejects_semidefinite():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_pd(M)


def test_logdet_against_cofactor_expansion():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        M = random_spd(rng, n)
        belief = GaussianBelief(mean=np.zeros(n), info=M)
        assert belief.logdet_info() == pytest.approx(np.log(brute_det(M)), abs=1e-8)


def test_invert_and_solve():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        M = random_spd(rng, n)
        b = rng.standard_normal(n)
        assert np.allclose(invert_pd(M) @ M, np.eye(n), atol=1e-9)
        assert np.allclose(M @ solve_pd(M, b), b, atol=1e-9)


def test_check_symmetric_symmetrizes_and_rejects():
    M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    S = check_symmetric(M)
    assert np.array_equal(S, S.T)
    with pytest.raises(ValueError):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))
    # a new array with the bits of 0.5 * (M + M.T), whichever path gives it
    rng = np.random.default_rng(10)
    A = rng.standard_normal((6, 6))
    sym = A @ A.T
    assert same_bits(sym, sym.T)  # bitwise symmetric, like J.T @ J
    within = sym.copy()
    within[0, 1] += 1e-14  # asymmetric within SYM_RTOL
    zeros = sym.copy()
    zeros[1, 2] = zeros[2, 1] = zeros[5, 5] = -0.0  # symmetric -0.0 entries
    mixed = zeros.copy()
    mixed[3, 4], mixed[4, 3] = -0.0, 0.0  # equal, but not bitwise
    huge = np.diag([2.0**1023, 1.0])  # doubling overflows
    for M in (sym, np.asfortranarray(sym), within, zeros, mixed, huge, np.zeros((0, 0))):
        before = M.copy()
        with np.errstate(over="ignore"):
            S = check_symmetric(M)
            want = 0.5 * (M + M.T)
        assert same_bits(S, want) and S.flags.c_contiguous == want.flags.c_contiguous
        assert not np.shares_memory(S, M)
        assert M.flags.writeable and same_bits(M, before)
    # a belief freezes its own copy of the information, never the caller's
    info = sym + 6.0 * np.eye(6)
    belief = GaussianBelief(mean=np.zeros(6), info=info)
    assert info.flags.writeable and not belief.info.flags.writeable
    info[0, 0] = 100.0
    assert belief.info[0, 0] != 100.0
    skewed = sym.copy()
    skewed[0, 1] += 1e-6 * np.abs(sym).max()
    match = r"^m is not symmetric: max \|M - M.T\| = .* exceeds 1.0e-10 \* "
    with pytest.raises(ValueError, match=match):
        check_symmetric(skewed, name="m")
    with pytest.raises(ValueError, match=r"^m must be square, got shape \(2, 3\)$"):
        check_symmetric(np.zeros((2, 3)), name="m")


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [2, 3, 5, 12, 35, 95])
def test_lapack_path_matches_scipy_wrappers(n, order):
    # gauss calls potrf, potrs and trtrs directly, with the arguments the
    # scipy.linalg wrappers pass them, so every result keeps its bits
    rng = np.random.default_rng(n)
    sym = random_spd(rng, n)
    skew = rng.standard_normal((n, n)) * 1e-12 * np.abs(sym).max()
    for M in (np.asarray(sym, order=order), np.asarray(sym + np.triu(skew, 1), order=order)):
        S = 0.5 * (M + M.T)  # what check_symmetric hands the factorization
        L = scipy.linalg.cholesky(S, lower=True, check_finite=False)
        assert same_bits(cholesky_pd(M), L)
        for b in (rng.standard_normal(n), np.asarray(rng.standard_normal((n, 4)), order=order)):
            assert same_bits(solve_pd(M, b), scipy.linalg.cho_solve((L, True), b, check_finite=False))
        belief = GaussianBelief(mean=rng.standard_normal(n), info=M)
        inv = scipy.linalg.cho_solve((L, True), np.eye(n), check_finite=False)
        assert same_bits(belief.cov(), 0.5 * (inv + inv.T))
        W = rng.standard_normal((n, n))
        W = np.asarray(W + W.T, order=order)
        half = scipy.linalg.solve_triangular(L, W, lower=True, check_finite=False)
        B = scipy.linalg.solve_triangular(L, half.T, lower=True, check_finite=False)
        assert same_bits(belief.whiten(W), 0.5 * (B + B.T))
        eps = np.random.default_rng(1).standard_normal((n, 3))
        dev = scipy.linalg.solve_triangular(L, eps, lower=True, trans="T", check_finite=False)
        assert same_bits(belief.sample(np.random.default_rng(1), 3), belief.mean[None, :] + dev.T)


def test_schur_complement_against_inverse_subblock():
    rng = np.random.default_rng(4)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        M = random_spd(rng, n)
        k = int(rng.integers(1, n))
        keep = np.sort(rng.choice(n, size=k, replace=False))
        S = schur_complement(M, keep)
        # marginal information = inverse of the kept block of the covariance
        expect = np.linalg.inv(np.linalg.inv(M)[np.ix_(keep, keep)])
        assert np.allclose(S, expect, atol=1e-8)


def test_schur_complement_keep_all_is_identity_op():
    rng = np.random.default_rng(5)
    M = random_spd(rng, 4)
    assert np.allclose(schur_complement(M, np.arange(4)), M)


def test_schur_complement_rejects_singular_marginalized_block():
    M = np.zeros((3, 3))
    M[0, 0] = 1.0
    with pytest.raises(NotPositiveDefiniteError):
        schur_complement(M, np.array([0]))


def test_belief_basic_properties(monkeypatch):
    rng = np.random.default_rng(6)
    info = random_spd(rng, 5)
    mean = rng.standard_normal(5)
    checked, check = [], gauss.check_symmetric

    def counting_check(M, name="matrix"):
        checked.append(name)
        return check(M, name)

    monkeypatch.setattr(gauss, "check_symmetric", counting_check)
    b = GaussianBelief(mean=mean, info=info)
    assert checked == ["info"]  # checked once, then factored unchecked
    assert np.array_equal(b.chol, cholesky_pd(info))
    assert b.dim == 5
    assert np.allclose(b.cov() @ info, np.eye(5), atol=1e-9)
    assert b.logdet_info() == pytest.approx(np.linalg.slogdet(info)[1])
    with pytest.raises(ValueError):
        b.mean[0] = 1.0  # read-only
    with pytest.raises(NotPositiveDefiniteError, match="info is not positive definite"):
        GaussianBelief(mean=mean, info=-info)
    skewed = info.copy()
    skewed[0, 1] += 1.0
    with pytest.raises(ValueError, match="info is not symmetric"):
        GaussianBelief(mean=mean, info=skewed)
    with pytest.raises(ValueError):
        GaussianBelief(mean=mean[:3], info=info)


def test_posterior_is_the_belief_of_the_summed_information():
    # a posterior is the belief (mu_B, Lam_B + Delta) of the one
    # constructor: its own read-only copy of the prior's mean, and the
    # constructor's bits and errors
    from fgred.metrics import _posterior

    rng = np.random.default_rng(12)
    prior = GaussianBelief(mean=rng.standard_normal(4), info=random_spd(rng, 4))
    delta = random_spd(rng, 4)
    _, post = _posterior(prior, delta)
    assert post.mean.tobytes() == prior.mean.tobytes() and not post.mean.flags.writeable
    want = GaussianBelief(mean=prior.mean, info=prior.info + delta)
    assert post.info.tobytes() == want.info.tobytes()
    assert post.chol.tobytes() == want.chol.tobytes()
    with pytest.raises(NotPositiveDefiniteError, match="^info is not positive definite"):
        _posterior(prior, -2.0 * prior.info)
    with pytest.raises(ValueError, match="^mean is not finite$"):
        GaussianBelief(mean=[0.0, np.nan, 0.0, 0.0], info=prior.info)


def test_whiten_matches_explicit_inverse():
    rng = np.random.default_rng(9)
    for n in (1, 3, 6):
        b = GaussianBelief(mean=np.zeros(n), info=random_spd(rng, n))
        W = rng.standard_normal((n, n))
        W = W + W.T
        L_inv = np.linalg.inv(b.chol)
        assert np.allclose(b.whiten(W), L_inv @ W @ L_inv.T, rtol=1e-12, atol=1e-12 * np.abs(W).max())


def test_belief_sampling_moments():
    rng = np.random.default_rng(7)
    info = random_spd(rng, 3)
    mean = np.array([1.0, -2.0, 0.5])
    b = GaussianBelief(mean=mean, info=info)
    X = b.sample(np.random.default_rng(123), 60_000)
    cov = b.cov()
    se_mean = np.sqrt(np.diag(cov) / 60_000)
    assert np.all(np.abs(X.mean(axis=0) - mean) < 4 * se_mean)
    emp = np.cov(X.T)
    assert np.allclose(emp, cov, atol=4 * np.abs(cov).max() / np.sqrt(60_000) + 0.01)


def test_conditional_moments_against_sampling():
    # posterior mean/quadratic given x, averaged over z draws
    rng = np.random.default_rng(8)
    for trial in range(5):
        n, m = 3, 4
        info_b = random_spd(rng, n)
        mu_b = rng.standard_normal(n)
        A = rng.standard_normal((m, n))
        gamma = random_spd(rng, m)
        delta = A.T @ gamma @ A
        x = rng.standard_normal(n)
        belief = GaussianBelief(mean=mu_b, info=info_b)

        lam_t = info_b + delta
        n_draws = 40_000
        zrng = np.random.default_rng(100 + trial)
        noise = zrng.multivariate_normal(np.zeros(m), np.linalg.inv(gamma), n_draws)
        Z = A @ x + noise
        rhs = (info_b @ mu_b)[None, :] + Z @ (A.T @ gamma).T
        mu_post = np.linalg.solve(lam_t, rhs.T).T

        got_mean = conditional_mean_posterior(belief, delta, x)
        se = mu_post.std(axis=0) / np.sqrt(n_draws)
        assert np.all(np.abs(mu_post.mean(axis=0) - got_mean) < 4 * se + 1e-8)

        T = random_spd(rng, n)
        mshift = rng.standard_normal(n)
        vals = np.einsum("ij,jk,ik->i", mu_post + mshift, T, mu_post + mshift)
        got = expected_recentred_quadratic(belief, delta, T, mshift, x)
        se_q = vals.std() / np.sqrt(n_draws)
        assert abs(vals.mean() - got) < 4 * se_q + 1e-8


def gauge_free_odometry_system():
    """J^T J of one odometry factor between two free poses: PSD, rank 3 of 6."""
    from fgred.nonlinear import NonlinearGraph, OdometryFactor
    from reference import linearize

    variables = (("x", 0), ("x", 1))
    odometry = OdometryFactor(variables[0], variables[1], np.array([1.0, 0.0, 0.1]), np.eye(3))
    g = NonlinearGraph(
        variables=variables, factors=(odometry,),
        base=frozenset({0}), sources={},
    )
    J, _ = linearize(g, [0], {v: np.zeros(3) for v in variables}, variables)
    return J.T @ J


def test_solve_pd_stack_matches_solve_pd():
    rng = np.random.default_rng(15)
    for n in (35, 95):
        Ms = np.array([random_spd(rng, n) for _ in range(4)])
        b = rng.standard_normal((4, n))
        # a within-tolerance asymmetric member sends the whole stack down
        # the symmetrizing path, which keeps the bits of the others
        for stack in (Ms, np.concatenate([Ms, (Ms[0] + 1e-13 * np.triu(Ms[0], 1))[None]])):
            rhs = np.concatenate([b, b[:1]])[: len(stack)]
            x, failed = solve_pd_stack(stack, rhs, name="m")
            assert failed == {}
            for i, M in enumerate(stack):
                assert np.array_equal(x[i], solve_pd(M, rhs[i], name="m")), (n, i)
    # a singular member is reported by index; the others still solve
    H = gauge_free_odometry_system()
    with pytest.raises(NotPositiveDefiniteError) as alone:
        solve_pd(H, np.ones(6), name="normal equations 1")
    stack = np.array([random_spd(rng, 6), H, random_spd(rng, 6)])
    b = rng.standard_normal((3, 6))
    x, failed = solve_pd_stack(stack, b, name="normal equations")
    assert list(failed) == [1] and isinstance(failed[1], NotPositiveDefiniteError)
    assert str(failed[1]) == str(alone.value)
    assert np.isnan(x[1]).all()
    for i in (0, 2):
        assert np.array_equal(x[i], solve_pd(stack[i], b[i]))
    # a NaN or inf member raises what _symmetrized raises, naming it
    for bad in (np.nan, np.inf, -np.inf):
        for at in range(3):
            stack = np.array([random_spd(rng, 4) for _ in range(3)])
            stack[at, 1, 2] = stack[at, 2, 1] = bad
            with pytest.raises(ValueError, match=f"^m {at} is not finite$"):
                solve_pd_stack(stack, np.ones((3, 4)), name="m")
            stack[at, 2, 1] = 0.0
            with pytest.raises(ValueError, match=f"^m {at} is not finite$"):
                solve_pd_stack(stack, np.ones((3, 4)), name="m")
    with pytest.raises(ValueError, match=r"^m must be a stack of square matrices, got shape \(2, 3\)$"):
        solve_pd_stack(np.ones((2, 3)), np.ones(2), name="m")


def test_one_blas_thread_restores_counts(openblas_at_two_threads):
    setters = openblas_at_two_threads
    one, two = [1] * len(setters), [2] * len(setters)
    with gauss._one_blas_thread:
        assert blas_thread_counts(setters) == one
        with gauss._one_blas_thread:
            assert blas_thread_counts(setters) == one
        assert blas_thread_counts(setters) == one
    assert blas_thread_counts(setters) == two
    with pytest.raises(RuntimeError, match="inside"):
        with gauss._one_blas_thread:
            raise RuntimeError("inside")
    assert blas_thread_counts(setters) == two


def test_one_blas_thread_overlapping_threads(openblas_at_two_threads):
    setters = openblas_at_two_threads
    n_threads = 6
    barrier = threading.Barrier(n_threads, timeout=10)
    inside = []

    def scoped(k):
        barrier.wait()
        for _ in range(50 + k):
            with gauss._one_blas_thread:
                inside.append(blas_thread_counts(setters))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scoped, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(inside) == sum(50 + k for k in range(n_threads))
    assert all(counts == [1] * len(setters) for counts in inside)
    assert blas_thread_counts(setters) == [2] * len(setters)


def test_one_blas_thread_noop_without_openblas(monkeypatch, caplog):
    real = gauss._openblas_setters()
    before = blas_thread_counts(real)

    def no_maps(*args, **kwargs):
        raise OSError("no /proc here")

    # the uncached lookup finds nothing without /proc/self/maps, and says so
    monkeypatch.setattr(gauss, "open", no_maps, raising=False)
    with caplog.at_level(logging.DEBUG, logger="fgred.gauss"):
        assert gauss._openblas_setters.__wrapped__() == ()
    assert "no OpenBLAS copy found" in caplog.text
    monkeypatch.setattr(gauss, "_openblas_setters", lambda: ())
    with gauss._one_blas_thread:
        assert blas_thread_counts(real) == before
    assert blas_thread_counts(real) == before
