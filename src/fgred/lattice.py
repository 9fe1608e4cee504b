"""Antichain lattice over measurement sources.

Redundancy is evaluated on collections of sources (index sets) in which no
source contains another. Such antichains are partially ordered by

    alpha <= beta  iff  every source in beta has a subset source in alpha,

the refinement order used by partial information decomposition. For n
predictors the nonempty antichains over nonempty subsets number 1, 4, 18,
166 for n = 1..4 (the free distributive lattice minus its bounds).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

# The four antichains over predictors {1, 2} that bivariate_atoms inverts.
_ATOM_KEYS = {
    "both": frozenset({frozenset({1}), frozenset({2})}),
    "s1": frozenset({frozenset({1})}),
    "s2": frozenset({frozenset({2})}),
    "joint": frozenset({frozenset({1, 2})}),
}


def _as_source(s: Iterable[int]) -> frozenset[int]:
    src = frozenset(int(i) for i in s)
    if not src:
        raise ValueError("sources must be nonempty index sets")
    return src


def _canonical(sources: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(set(sources), key=lambda s: (len(s), sorted(s))))


def _comparable_pair(
    sources: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The first two distinct sources of which one contains the other, or None."""
    return next(((a, b) for a, b in combinations(sources, 2) if a <= b or b <= a), None)


@dataclass(frozen=True)
class Antichain:
    """A set of pairwise subset-incomparable sources, canonically ordered."""

    sources: tuple[frozenset[int], ...]

    def __post_init__(self):
        sources = _canonical(_as_source(s) for s in self.sources)
        if not sources:
            raise ValueError("an antichain must contain at least one source")
        pair = _comparable_pair(sources)
        if pair:
            raise ValueError(
                f"not an antichain: {sorted(pair[0])} and {sorted(pair[1])} "
                "are subset-comparable"
            )
        object.__setattr__(self, "sources", sources)

    def __iter__(self):
        return iter(self.sources)

    def __len__(self):
        return len(self.sources)

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in self.sources)
        return f"Antichain({{{inner}}})"


def validate_antichain(sources: Iterable[Iterable[int]]) -> Antichain:
    """Build an Antichain, rejecting empty input and comparable source pairs."""
    return Antichain(tuple(tuple(s) for s in sources))


def antichain_leq(a: Antichain, b: Antichain) -> bool:
    """Lattice order: a <= b iff each source of b contains some source of a."""
    return all(any(src_a <= src_b for src_a in a.sources) for src_b in b.sources)


def enumerate_antichains(n: int) -> list[Antichain]:
    """All antichains of nonempty subsets of predictors {1, ..., n}, n <= 4.

    Counts are 1, 4, 18, 166 for n = 1..4; beyond that the Dedekind growth
    makes enumeration pointless for this library.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in [1, 4]")
    ground = list(range(1, n + 1))
    subsets = [
        frozenset(c)
        for r in range(1, n + 1)
        for c in combinations(ground, r)
    ]
    out = [
        Antichain(combo)
        for r in range(1, len(subsets) + 1)
        for combo in combinations(subsets, r)
        if _comparable_pair(combo) is None
    ]
    out.sort(key=lambda ac: (len(ac.sources), [(len(s), sorted(s)) for s in ac.sources]))
    return out


def bivariate_atoms(
    imin_values: Mapping,
) -> tuple[float, float, float, float]:
    """Moebius inversion of a bivariate redundancy lattice.

    `imin_values` maps the four antichains over predictors {1, 2} (the pair
    {{1},{2}}, the singletons {{1}} and {{2}}, and the joint {{1,2}}) to
    redundancy values. Returns (R, U1, U2, S): redundancy, the two unique
    informations, and synergy. The four atoms sum to the joint value exactly.
    """
    table = {}
    for k, v in imin_values.items():
        sources = k.sources if isinstance(k, Antichain) else k
        table[frozenset(frozenset(s) for s in sources)] = float(v)
    missing = [name for name, key in _ATOM_KEYS.items() if key not in table]
    if missing:
        raise ValueError(
            f"missing antichain values for Moebius inversion: {missing}"
        )
    r = table[_ATOM_KEYS["both"]]
    u1 = table[_ATOM_KEYS["s1"]] - r
    u2 = table[_ATOM_KEYS["s2"]] - r
    s = table[_ATOM_KEYS["joint"]] - u1 - u2 - r
    return (r, u1, u2, s)
