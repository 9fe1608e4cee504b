"""Dense symmetric-matrix helpers and information-form Gaussian beliefs.

Everything downstream (factor graphs, redundancy metrics, the SLAM pipeline)
funnels its linear algebra through this module. Every Cholesky
factorization is of one matrix (`_cholesky_symmetric`), after one symmetry
test (`_symmetrized`), which also rejects NaN and inf, and passes one pivot
rule (`_good_pivots`): the error names the matrix and the first leading
minor that LAPACK stops at or whose pivot is at or below PIVOT_TOL.
`solve_pd_stack` reads only the lower triangle of each member of a stack,
which the factorization reads, so it tests only that the stack is finite;
it factors each member on its own and reports, instead of raising, a
member that fails the pivot rule. The module is the one owner
of the LAPACK routines it binds once at import (`potrf`, `potrs`,
`trtrs`): they are the routines the `scipy.linalg` wrappers call, with the
same arguments, so the results are bit for bit the wrappers', without
their per-call validation and dispatch, which at the dimensions here costs
more than the arithmetic. They are the float64 routines of scipy's
compiled LAPACK module, `scipy.linalg._flapack`, the objects
`scipy.linalg.get_lapack_funcs` returns. `_flapack` loads that extension
from scipy's install and registers it under its name, so a later
`import scipy.linalg` shares it. The `scipy.linalg` package is not
imported: its array API layer imports `numpy.f2py`, `numpy.ma` and
`numpy.testing`, which were most of a cold `import fgred`.
`_one_blas_thread` limits that linear algebra to one BLAS thread for the
length of one block of the study's simulations, and of one public Monte
Carlo redundancy or quality call.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

logger = logging.getLogger(__name__)

# Smallest Cholesky pivot accepted before a matrix is declared numerically
# indefinite, and the relative tolerance for symmetry validation.
PIVOT_TOL = 1e-10
SYM_RTOL = 1e-10

# Doubling any float below this is exact, so for a bitwise symmetric M with
# entries below it, 0.5 * (M + M.T) has M's bits.
_EXACT_DOUBLING = 2.0**1023


def _flapack():
    """scipy's compiled LAPACK module, without importing the `scipy.linalg` package.

    A module already in `sys.modules` is used as is. Otherwise the extension
    file is looked for in scipy's `linalg` directory, loaded and registered
    under its name; if it is not there, the module is imported through its
    package, which is slower but binds the same routines.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    linalg_dir = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [linalg_dir])
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lapack = _flapack()
_potrf, _potrs, _trtrs = _lapack.dpotrf, _lapack.dpotrs, _lapack.dtrtrs


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix required to be PD fails its Cholesky check.

    Carries the order of the first non-positive leading minor so callers can
    report which pivot failed.
    """

    def __init__(self, name: str, minor: int, pivot: float | None = None):
        self.name = name
        self.minor = minor
        self.pivot = pivot
        detail = f" (pivot {pivot:.3e})" if pivot is not None else ""
        super().__init__(
            f"{name} is not positive definite: leading minor of order "
            f"{minor} is not positive{detail}"
        )


def check_symmetric(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that M is square, finite and symmetric; return a new 0.5 * (M + M.T)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return _symmetrized(M, [name])


def _symmetrized(M: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """0.5 * (M + M^T) of each matrix of a stack M (..., n, n), checked.

    A bitwise symmetric stack (J.T @ J, sums and Schur complements of
    symmetric matrices) with every |entry| below _EXACT_DOUBLING is copied,
    which gives the same bits. Any other stack, such as one holding NaN or
    inf, must be finite, and each matrix symmetric within SYM_RTOL relative
    to max(1, its largest |entry|); the error names the first failing matrix
    by names, in C order.
    """
    bits = M.view(np.int64)
    # min and max, not max |M|, so a large stack makes no temporary copy
    bounded = -_EXACT_DOUBLING < M.min(initial=0.0) and M.max(initial=0.0) < _EXACT_DOUBLING
    if bounded and (bits == bits.swapaxes(-1, -2)).all():
        return M.copy()
    Mt = M.swapaxes(-1, -2)
    finite = np.isfinite(M).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        raise ValueError(f"{names[int(np.argmin(finite))]} is not finite")
    skew = np.abs(M - Mt).max(axis=(-2, -1)).reshape(-1)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1))).reshape(-1)
    asymmetric = skew > SYM_RTOL * scale
    if asymmetric.any():
        i = int(np.argmax(asymmetric))
        raise ValueError(
            f"{names[i]} is not symmetric: max |M - M.T| = {skew[i]:.3e} "
            f"exceeds {SYM_RTOL:.1e} * {scale[i]:.3e}"
        )
    return 0.5 * (M + Mt)


def _good_pivots(L: np.ndarray) -> np.ndarray:
    """Whether each pivot of a lower factor, or of a stack of them, exceeds PIVOT_TOL."""
    return L.diagonal(0, -2, -1) > PIVOT_TOL


def cholesky_pd(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric PD matrix.

    Raises NotPositiveDefiniteError naming the offending leading minor when
    the factorization fails or produces a pivot at or below PIVOT_TOL.
    """
    return _cholesky_symmetric(check_symmetric(M, name=name), name)


def _cholesky_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """cholesky_pd of a matrix that `_symmetrized` has returned, or a `solve_pd_stack` member.

    The minor named is potrf's `info`, or an earlier one whose pivot fails
    `_good_pivots`; the pivot is given only when potrf ran to the end.
    """
    L, info = _potrf(M, lower=1)
    good = _good_pivots(L)
    if info or not good.all():
        bad = np.flatnonzero(~good[: info - 1 if info else None])
        k = int(bad[0]) + 1 if bad.size else info
        raise NotPositiveDefiniteError(name, k, None if info else float(L[k - 1, k - 1]))
    return L


@functools.cache
def _openblas_setters() -> tuple:
    """`openblas_set_num_threads_local` of every OpenBLAS copy in the process.

    numpy and scipy each map their own OpenBLAS; both export this unprefixed
    setter from OpenBLAS 0.3.27 on. The copies are found once per process in
    /proc/self/maps and opened with RTLD_NOLOAD, so nothing new is loaded.
    Other BLAS libraries, older OpenBLAS and systems without /proc give none.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                parts[5] for parts in (line.rstrip("\n").split(maxsplit=5) for line in maps)
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
            })
    except OSError:
        paths = []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    if setters:
        logger.debug("one BLAS thread per simulation: limiting %d OpenBLAS copies", len(setters))
    else:
        logger.debug("one BLAS thread per simulation: no OpenBLAS copy found, threads unchanged")
    return tuple(setters)


class _OneBlasThread:
    """Context manager: its body runs on one OpenBLAS thread.

    The dense problems of one simulation (tens of dimensions), and the
    (dim, n) products of a Monte Carlo call, are too small for BLAS threads
    to pay for their synchronization; parallelism belongs to the process
    pool. Despite the setter's name the count is process-wide, so it holds
    for every thread of the process while any scope is open. Scopes may
    nest and overlap across threads: the first to open sets each copy to 1
    and the last to close restores the count the setter returned. Without
    an OpenBLAS copy this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._previous = []

    def __enter__(self):
        with self._lock:
            if self._open == 0:
                self._previous = [(setter, setter(1)) for setter in _openblas_setters()]
            self._open += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._open -= 1
            if self._open == 0:
                for setter, count in reversed(self._previous):
                    setter(count)
                self._previous = []


_one_blas_thread = _OneBlasThread()


def solve_pd(M: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve M x = b for symmetric PD M."""
    L = cholesky_pd(M, name=name)
    return _potrs(L, b, lower=1)[0]


def solve_pd_stack(
    M: np.ndarray, b: np.ndarray, name: str = "matrix"
) -> tuple[np.ndarray, dict[int, NotPositiveDefiniteError]]:
    """`solve_pd` of each member of a stack: M_i x_i = b_i for M (p, n, n), b (p, n).

    Each member stands for the symmetric matrix of its lower triangle,
    which is all the factorization reads, so the upper triangles may be
    left zero and no symmetry is tested. The stack must be finite; the
    error names member i as "<name> i". Each member is factored and solved
    on its own, so a symmetric member's x_i has `solve_pd`'s bits. A member
    that fails the pivot rule does not stop the others: it is returned in
    the dict of failures, keyed by its index, and its row of x is NaN.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError(f"{name} must be a stack of square matrices, got shape {M.shape}")
    x = np.full(np.shape(b), np.nan)
    failed = {}
    for i, Mi in enumerate(M):  # potrf copies each member
        if not np.isfinite(Mi).all():
            raise ValueError(f"{name} {i} is not finite")
        try:
            L = _cholesky_symmetric(Mi, f"{name} {i}")
        except NotPositiveDefiniteError as exc:
            # without its traceback, which holds this frame and so the stack
            failed[i] = exc.with_traceback(None)
            continue
        x[i] = _potrs(L, b[i], lower=1)[0]
    return x, failed


def schur_complement(M: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Marginal information matrix: Schur complement onto the kept indices.

    For an information matrix partitioned over (keep, drop) index sets this is
    M_kk - M_kd M_dd^-1 M_dk, which is the information of the marginal over
    the kept variables. The dropped block must be PD.
    """
    M = check_symmetric(M, name="information matrix")
    keep = np.asarray(keep, dtype=int)
    dropped = np.ones(M.shape[0], dtype=bool)
    dropped[keep] = False
    drop = np.flatnonzero(dropped)
    if drop.size == 0:
        return M.copy()
    A = M[keep[:, None], keep]
    B = M[keep[:, None], drop]
    D = M[drop[:, None], drop]
    out = A - B @ solve_pd(D, B.T, name="marginalized block")
    return 0.5 * (out + out.T)


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian in information form: mean vector and PD information matrix.

    Every belief, a posterior too, is built here: the mean is checked (1-D,
    finite) and copied, and `info` checked, factored once and copied, all
    read-only.
    """

    mean: np.ndarray
    info: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"mean must be 1-D, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean is not finite")
        mean = mean.copy()
        mean.setflags(write=False)
        info = check_symmetric(self.info, name="info")
        if info.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean dim {mean.shape[0]} != info dim {info.shape[0]}"
            )
        chol = _cholesky_symmetric(info, "info")
        info.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the information matrix."""
        return self._chol

    def logdet_info(self) -> float:
        return float(2.0 * np.sum(np.log(np.diagonal(self._chol))))

    def cov(self) -> np.ndarray:
        """Materialized covariance (inverse information), solved once, read-only."""
        cov = self.__dict__.get("_cov")
        if cov is None:
            inv = _potrs(self._chol, np.eye(self.dim, order="F"), lower=1, overwrite_b=1)[0]
            cov = 0.5 * (inv + inv.T)
            cov.setflags(write=False)
            object.__setattr__(self, "_cov", cov)
        return cov

    def whiten(self, W: np.ndarray) -> np.ndarray:
        """L^-1 W L^-T for symmetric W, symmetrized, with info = L L.T.

        For x = mean + L^-T z, (x - mean)^T W (x - mean) = z^T whiten(W) z.
        """
        half = _trtrs(self._chol, W, lower=1)[0]
        B = _trtrs(self._chol, half.T, lower=1)[0]
        return 0.5 * (B + B.T)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` samples, shape (count, dim).

        With info = L L.T, a draw is mean + L^-T eps for standard normal eps;
        this avoids forming the covariance.
        """
        from .sim2d import _check_count  # the package's one rule for counts

        _check_count("count", count, 1)
        eps = rng.standard_normal((self.dim, count))
        dev = _trtrs(self._chol, eps, lower=1, trans=1)[0]
        return self.mean[None, :] + dev.T
