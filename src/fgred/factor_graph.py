"""Linear Gaussian factor graphs with a distinguished base set.

A supplemented graph carries m linear Gaussian factors over a stacked state
of n_vars variables, each of dimension var_dim. A subset B of the factors is
the "base": it must alone determine a proper prior (its information matrix is
PD). The remaining factors are supplemental evidence whose contribution is
measured against that prior.

Factor j has density proportional to exp(-0.5 ||A_j x - z_j||^2_{Gamma_j})
with Gamma_j a PD precision. For an index set J the stacked information
increment is Delta_J = sum_j A_j^T Gamma_j A_j, which is additive over
disjoint sets and monotone in the Loewner order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gauss import (
    GaussianBelief,
    NotPositiveDefiniteError,
    _cholesky_symmetric,
    check_symmetric,
    solve_pd,
)


def _as_index_tuple(J: Iterable[int], m: int, name: str = "J") -> tuple[int, ...]:
    """Normalize an index set to a sorted duplicate-free tuple within [0, m)."""
    idx = sorted({int(j) for j in J})
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise ValueError(f"{name} contains indices outside [0, {m})")
    return tuple(idx)


@dataclass(frozen=True, eq=False)
class LinearFactor:
    """One linear Gaussian factor: residual A x - z weighted by precision gamma.

    :param A: observation matrix, shape (rows, state_dim).
    :param z: measurement vector, shape (rows,).
    :param gamma: PD measurement precision, shape (rows, rows).
    :param args: indices of the variables this factor touches; columns of A
        outside these variable blocks must be zero.
    """

    A: np.ndarray
    z: np.ndarray
    gamma: np.ndarray
    args: tuple[int, ...]

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        z = np.asarray(self.z, dtype=float).reshape(-1)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {A.shape}")
        if z.shape[0] != A.shape[0]:
            raise ValueError(
                f"z has {z.shape[0]} rows but A has {A.shape[0]}"
            )
        gamma = check_symmetric(self.gamma, name="gamma")
        if gamma.shape[0] != A.shape[0]:
            raise ValueError(
                f"gamma dim {gamma.shape[0]} != residual dim {A.shape[0]}"
            )
        _cholesky_symmetric(gamma, "gamma")
        args = tuple(sorted({int(a) for a in self.args}))
        A = A.copy()
        z = z.copy()
        A.setflags(write=False)
        z.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "args", args)

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    def information(self) -> np.ndarray:
        """A^T gamma A, the factor's information increment."""
        out = self.A.T @ self.gamma @ self.A
        return 0.5 * (out + out.T)

    def weighted_rhs(self) -> np.ndarray:
        """A^T gamma z, the factor's contribution to the information vector."""
        return self.A.T @ (self.gamma @ self.z)


class SupplementedGraph:
    """Linear Gaussian factor graph split into base and supplemental factors.

    The base factors must determine a PD information matrix on their own;
    their posterior is the prior belief against which supplemental evidence
    is measured.
    """

    def __init__(
        self,
        factors: Sequence[LinearFactor],
        base: Iterable[int],
        n_vars: int,
        var_dim: int,
    ):
        if n_vars < 1 or var_dim < 1:
            raise ValueError("n_vars and var_dim must be positive")
        factors = tuple(factors)
        state_dim = n_vars * var_dim
        for j, f in enumerate(factors):
            if f.A.shape[1] != state_dim:
                raise ValueError(
                    f"factor {j}: A has {f.A.shape[1]} columns, "
                    f"state dim is {state_dim}"
                )
            if f.args and (f.args[0] < 0 or f.args[-1] >= n_vars):
                raise ValueError(
                    f"factor {j}: args {f.args} outside [0, {n_vars})"
                )
            mask = np.ones(state_dim, dtype=bool)
            for v in f.args:
                mask[v * var_dim : (v + 1) * var_dim] = False
            if np.any(f.A[:, mask] != 0.0):
                raise ValueError(
                    f"factor {j}: nonzero columns outside its variable blocks"
                )
        base_t = _as_index_tuple(base, len(factors), name="base")
        if not base_t:
            raise ValueError("base set must be nonempty")
        self._factors = factors
        self._base = base_t
        self._n_vars = int(n_vars)
        self._var_dim = int(var_dim)
        info = self.stack_subgraph(base_t)
        rhs = sum(factors[j].weighted_rhs() for j in base_t)
        try:
            mean = solve_pd(info, rhs, name="base information")
        except NotPositiveDefiniteError as exc:
            raise ValueError(
                f"base graph is not full-rank: {exc}"
            ) from exc
        self._prior = GaussianBelief(mean=mean, info=info)

    @property
    def factors(self) -> tuple[LinearFactor, ...]:
        return self._factors

    @property
    def m(self) -> int:
        """Number of factors."""
        return len(self._factors)

    @property
    def n_vars(self) -> int:
        return self._n_vars

    @property
    def var_dim(self) -> int:
        return self._var_dim

    @property
    def state_dim(self) -> int:
        return self._n_vars * self._var_dim

    @property
    def base(self) -> tuple[int, ...]:
        return self._base

    @property
    def supplemental(self) -> tuple[int, ...]:
        """Indices of the non-base factors, ascending."""
        base = set(self._base)
        return tuple(j for j in range(self.m) if j not in base)

    def stack_subgraph(self, J: Iterable[int]) -> np.ndarray:
        """Information increment Delta_J of a factor index set J.

        Delta_J = sum_{j in J} A_j^T Gamma_j A_j; the empty set gives zeros.
        Additive over disjoint sets by construction.
        """
        delta = np.zeros((self.state_dim, self.state_dim))
        for j in _as_index_tuple(J, self.m):
            delta += self._factors[j].information()
        return 0.5 * (delta + delta.T)

    def prior_belief(self) -> GaussianBelief:
        """Posterior of the base factors alone (the prior for this graph)."""
        return self._prior
