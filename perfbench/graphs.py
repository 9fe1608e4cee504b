"""Seeded random linear factor graphs with three measurement sources.

Each graph has N_VARS variables of dimension VAR_DIM. The base factors are a
unary prior on every variable and a relative factor between neighbours, so
the prior is proper and correlated. Each source holds FACTORS_PER_SOURCE
binary factors with random observation blocks.
"""
from __future__ import annotations

import numpy as np

from fgred.factor_graph import LinearFactor, SupplementedGraph

N_VARS = 6
VAR_DIM = 2
N_SOURCES = 3
FACTORS_PER_SOURCE = 3


def _random_pd(rng: np.random.Generator, k: int, scale: float) -> np.ndarray:
    g = rng.normal(size=(k, k))
    return scale * (g @ g.T / k + 0.25 * np.eye(k))


def _factor(rng, blocks: dict, precision_scale: float) -> LinearFactor:
    d = N_VARS * VAR_DIM
    A = np.zeros((VAR_DIM, d))
    for v, block in blocks.items():
        A[:, v * VAR_DIM : (v + 1) * VAR_DIM] = block
    return LinearFactor(
        A=A,
        z=rng.normal(size=VAR_DIM),
        gamma=_random_pd(rng, VAR_DIM, precision_scale),
        args=tuple(blocks),
    )


def lattice_graph(seed: int, index: int) -> tuple[SupplementedGraph, list[tuple[int, ...]]]:
    """Graph `index` of a seed, and each source's supplemental factor indices."""
    rng = np.random.default_rng([seed, index])
    eye = np.eye(VAR_DIM)
    factors = [_factor(rng, {v: eye}, 0.5) for v in range(N_VARS)]
    factors += [_factor(rng, {v: -eye, v + 1: eye}, 2.0) for v in range(N_VARS - 1)]
    base = list(range(len(factors)))
    sources = []
    for _ in range(N_SOURCES):
        idx = []
        for _ in range(FACTORS_PER_SOURCE):
            a, b = (int(v) for v in rng.choice(N_VARS, size=2, replace=False))
            blocks = {a: rng.normal(size=(VAR_DIM, VAR_DIM)), b: rng.normal(size=(VAR_DIM, VAR_DIM))}
            idx.append(len(factors))
            factors.append(_factor(rng, blocks, 1.0))
        sources.append(tuple(idx))
    graph = SupplementedGraph(factors=factors, base=base, n_vars=N_VARS, var_dim=VAR_DIM)
    return graph, sources
