"""The citizen-level voting world: populations, preference interventions, and
ground-truth Nash equilibria under VCG, median, and random-dictator voting.

Citizen i of country c values pollution as a*q_c - b*q_c^2 - d*Q_W^2 with
Q_W the global total; an intervention lowers a by lambda >= 0.  Countries
play a Nash equilibrium whose closed form, given per-country utility ratios
alpha = A/B and delta = D/B, is

    Q_W = (sum(alpha) / 2) / (1 + sum(delta)),    q_c = alpha_c / 2 - delta_c * Q_W.

Each mechanism has one block solver (``vcg_block``, ``median_block``,
``dictator_block``) over a (B, N) matrix of preference reductions, one
intervention per row.  ``vcg_ne``, ``median_ne``, ``random_dictator_ne`` and
``median_fixed_point_residual`` are one-row views of them, kept only because
the benchmark in ``perfbench/`` calls them.  ``intervention_blocks`` stacks
at most ``BLOCK_ROWS`` = 64 distinct lambda rows per call, which bounds the
(B, N) temporaries; ``dictator_block`` may share one lambda row across any
number of seeds.  Every row's result is bit-identical to solving it alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from mechscm.core import NoConvergence

__all__ = [
    "InvalidConfig",
    "NegativePreference",
    "ParameterRanges",
    "Population",
    "Intervention",
    "NEResult",
    "BLOCK_ROWS",
    "intervention_blocks",
    "generate_population",
    "vcg_ne",
    "vcg_params_block",
    "vcg_block",
    "median_ne",
    "median_block",
    "median_residuals",
    "median_fixed_point_residual",
    "random_dictator_ne",
    "dictator_block",
    "sample_interventions",
    "zero_on_country_interventions",
    "LAMBDA_MAX",
]

LAMBDA_MAX = 0.1
BETA_CONCENTRATION = 10.0
BLOCK_ROWS = 64  # interventions per block-solver call


class InvalidConfig(ValueError):
    pass


class NegativePreference(ValueError):
    """An intervention pushed some citizen's linear preference below zero."""


@dataclass(frozen=True)
class ParameterRanges:
    """Sampling ranges for citizen parameters; b is divided by country size
    and d by the number of countries."""

    a: tuple = (0.35, 0.65)
    b: tuple = (7.0, 13.0)
    d: tuple = (0.05, 0.15)
    size_sigma: float = 0.5


@dataclass(frozen=True)
class Population:
    """Fixed country sizes and per-citizen utility parameters, stored as flat
    arrays over citizens in country-block order."""

    sizes: tuple
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = sum(self.sizes)
        for arr, name in ((self.a, "a"), (self.b, "b"), (self.d, "d")):
            if arr.shape != (n,):
                raise InvalidConfig(f"{name} must have one entry per citizen")
        if np.any(self.a < 0) or np.any(self.b <= 0) or np.any(self.d < 0):
            raise InvalidConfig("require a >= 0, b > 0, d >= 0")
        # Each country's first citizen index.
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(self.sizes, initial=0))[:-1])

    @property
    def n_countries(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return int(sum(self.sizes))

    def country_slice(self, c: int) -> slice:
        start = self.offsets[c]
        return slice(start, start + self.sizes[c])


@dataclass(frozen=True)
class Intervention:
    """Per-citizen preference reductions, each in [0, LAMBDA_MAX]."""

    lam: np.ndarray

    def __post_init__(self):
        if np.any(self.lam < -1e-15) or np.any(self.lam > LAMBDA_MAX + 1e-12):
            raise InvalidConfig(f"lambda values must lie in [0, {LAMBDA_MAX}]")

    @classmethod
    def zero(cls, pop: Population) -> "Intervention":
        return cls(np.zeros(pop.total))

    def validate_for(self, pop: Population) -> None:
        _preferences(pop, self.lam[None])


@dataclass(frozen=True)
class NEResult:
    q: np.ndarray
    Q_W: float
    iterations: int = 0
    residual: float = 0.0
    dictators: tuple = ()


# ---------------------------------------------------------------------------
# Population and intervention sampling


def _largest_remainder_sizes(raw: np.ndarray, total: int) -> tuple:
    shares = raw / raw.sum() * total
    base = np.floor(shares).astype(int)
    remainder = total - int(base.sum())
    order = np.argsort(-(shares - base), kind="stable")
    base[order[:remainder]] += 1
    # every country keeps at least one citizen
    while np.any(base == 0):
        base[np.argmax(base)] -= 1
        base[np.argmin(base)] += 1
    return tuple(int(s) for s in base)


def generate_population(
    seed: int,
    n_countries: int = 5,
    total_citizens: int = 1000,
    ranges: ParameterRanges = ParameterRanges(),
) -> Population:
    """Log-normal country sizes scaled to the exact total (largest-remainder
    rounding), citizen parameters i.i.d. uniform within the scaled ranges."""
    if total_citizens < n_countries:
        raise InvalidConfig("need at least one citizen per country")
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(mean=0.0, sigma=ranges.size_sigma, size=n_countries)
    sizes = _largest_remainder_sizes(raw, total_citizens)

    a = rng.uniform(ranges.a[0], ranges.a[1], size=total_citizens)
    b = np.empty(total_citizens)
    d = rng.uniform(ranges.d[0] / n_countries, ranges.d[1] / n_countries, size=total_citizens)
    offset = 0
    for n_c in sizes:
        b[offset : offset + n_c] = rng.uniform(
            ranges.b[0] / n_c, ranges.b[1] / n_c, size=n_c
        )
        offset += n_c
    return Population(sizes=sizes, a=a, b=b, d=d)


def _citizen_lambdas(mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Citizen-level draws with the given country mean: Beta with mean
    10*mean and concentration 10, scaled back into [0, LAMBDA_MAX]."""
    m = mean / LAMBDA_MAX
    if m <= 0.0:
        return np.zeros(size)
    if m >= 1.0:
        return np.full(size, LAMBDA_MAX)
    shape_a = m * BETA_CONCENTRATION
    shape_b = (1.0 - m) * BETA_CONCENTRATION
    return rng.beta(shape_a, shape_b, size=size) * LAMBDA_MAX


def _draw_interventions(pop: Population, seed: int, n: int, untouched: int | None = None) -> list:
    """Each draw samples a per-country mean uniform on [0, LAMBDA_MAX] and
    then citizen values around it; country ``untouched`` keeps lambda zero
    and draws no citizen values."""
    if n < 1:
        raise InvalidConfig("need n >= 1 interventions")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        means = rng.uniform(0.0, LAMBDA_MAX, size=pop.n_countries)
        lam = np.zeros(pop.total)
        for c in range(pop.n_countries):
            if c != untouched:
                lam[pop.country_slice(c)] = _citizen_lambdas(means[c], pop.sizes[c], rng)
        iv = Intervention(lam)
        iv.validate_for(pop)
        out.append(iv)
    return out


def sample_interventions(pop: Population, seed: int, n: int) -> list:
    """Seeded interventions that perturb every country."""
    return _draw_interventions(pop, seed, n)


def zero_on_country_interventions(
    pop: Population, c: int, seed: int, n: int = 10
) -> list:
    """Interventions that leave country ``c`` untouched but perturb all other
    countries, used to trace out the equilibrium line for one country."""
    if not 0 <= c < pop.n_countries:
        raise InvalidConfig(f"no country {c}")
    return _draw_interventions(pop, seed, n, untouched=c)


# ---------------------------------------------------------------------------
# Nash equilibria


def intervention_blocks(interventions) -> Iterator[tuple]:
    """(row slice, stacked (B, N) lambdas) for each run of at most BLOCK_ROWS
    consecutive interventions: the input of the block solvers."""
    for start in range(0, len(interventions), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        yield rows, np.stack([iv.lam for iv in interventions[rows]])


def _preferences(pop: Population, lam: np.ndarray) -> np.ndarray:
    """a - lambda per row of a (B, N) block, which must have one column per
    citizen and keep every a - lambda non-negative."""
    if lam.ndim != 2 or lam.shape[1] != pop.total:
        raise InvalidConfig("intervention length must equal the citizen count")
    x = pop.a - lam
    if np.any(x < -1e-12):
        raise NegativePreference("a - lambda must stay non-negative")
    return x


def _closed_form(alpha: np.ndarray, delta: np.ndarray) -> tuple:
    """Levels (B, C) and totals (B,) for alpha (B, C) and delta (C,) or (B, C)."""
    total = 0.5 * alpha.sum(axis=1) / (1.0 + delta.sum(axis=-1))
    return alpha / 2.0 - delta * total[:, None], total


def vcg_params_block(pop: Population, lam: np.ndarray) -> tuple:
    """Ground-truth ratios under truthful aggregation: alpha (B, C), delta (C,)."""
    x = _preferences(pop, lam)
    slices = [pop.country_slice(c) for c in range(pop.n_countries)]
    B = np.array([np.sum(pop.b[sl]) for sl in slices])
    A = np.stack([x[:, sl].sum(axis=1) for sl in slices], axis=1)
    return A / B, np.array([np.sum(pop.d[sl]) for sl in slices]) / B


def vcg_block(pop: Population, lam: np.ndarray) -> tuple:
    """Truthful reporting aggregates each country's coefficients, so each
    equilibrium is the closed form at the summed parameters: (q, Q_W)."""
    return _closed_form(*vcg_params_block(pop, lam))


def vcg_ne(pop: Population, iv: Intervention) -> NEResult:
    q, total = vcg_block(pop, iv.lam[None])
    return NEResult(q=q[0], Q_W=float(total[0]))


def _median_targets(pop: Population, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each citizen votes for their individually optimal pollution level given
    the other countries' current total; the country target is the lower
    median of its citizens' votes.  Per row of x = a - lambda and q (B, C)."""
    # votes = (x - 2d * (sum(q) - q_country)) / (2 (b + d)), in one buffer
    votes = np.repeat(q, pop.sizes, axis=1)
    np.subtract(q.sum(axis=1, keepdims=True), votes, out=votes)
    votes *= 2.0 * pop.d
    np.subtract(x, votes, out=votes)
    votes /= 2.0 * (pop.b + pop.d)
    targets = np.empty(q.shape)
    for c, size in enumerate(pop.sizes):
        block = votes[:, pop.country_slice(c)]
        block.partition((size - 1) // 2, axis=1)
        targets[:, c] = block[:, (size - 1) // 2]
    return targets


def median_block(
    pop: Population,
    lam: np.ndarray,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> tuple:
    """Damped synchronous iteration on the per-country median vote, from all
    pollution levels zero, on every row at once; a row stops at the first
    update step of 2-norm at most ``tol``.  Returns the levels (B, C), each
    row's iteration count and final step norm; NoConvergence if any row has
    not stopped after ``max_iter`` iterations."""
    if max_iter < 1:
        raise InvalidConfig("need max_iter >= 1")
    x = _preferences(pop, lam)
    n = len(x)
    levels, iterations, norms = np.empty((n, pop.n_countries)), np.empty(n, int), np.empty(n)
    rows, q = np.arange(n), np.zeros(levels.shape)
    for iteration in range(1, max_iter + 1):
        step = damping * (_median_targets(pop, x, q) - q)
        q = q + step
        norm = np.sqrt((step * step).sum(axis=1))
        done = norm <= tol
        if done.any():
            finished = rows[done]
            levels[finished], iterations[finished], norms[finished] = q[done], iteration, norm[done]
            rows, q, x = rows[~done], q[~done], x[~done]
            if rows.size == 0:
                return levels, iterations, norms
    raise NoConvergence(
        f"median iteration did not reach {tol} in {max_iter} steps on {rows.size} rows",
        float(norm[~done].max()),
        max_iter,
    )


def median_ne(
    pop: Population,
    iv: Intervention,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> NEResult:
    q, iterations, norms = median_block(pop, iv.lam[None], damping, tol, max_iter)
    return NEResult(
        q=q[0], Q_W=float(np.sum(q[0])), iterations=int(iterations[0]), residual=float(norms[0])
    )


def median_residuals(pop: Population, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the max-norm gap between the levels q (B, C) and the median
    votes they induce."""
    return np.abs(_median_targets(pop, _preferences(pop, lam), q) - q).max(axis=1)


def median_fixed_point_residual(pop: Population, iv: Intervention, q: np.ndarray) -> float:
    return float(median_residuals(pop, iv.lam[None], np.asarray(q)[None])[0])


def dictator_block(pop: Population, lam: np.ndarray, seeds) -> tuple:
    """One uniformly drawn citizen per country dictates its country's utility
    ratios; each equilibrium is the closed form at those ratios.  Row j draws
    from ``default_rng(seeds[j])``, one country at a time; ``lam`` has one
    row per seed or one shared row.  Returns (q, Q_W, dictator indices)."""
    x = np.broadcast_to(_preferences(pop, lam), (len(seeds), pop.total))
    idx = np.empty((len(seeds), pop.n_countries), dtype=int)
    for row, rng in zip(idx, map(np.random.default_rng, seeds)):
        row[:] = [start + int(rng.integers(size)) for start, size in zip(pop.offsets, pop.sizes)]
    alpha = x[np.arange(len(seeds))[:, None], idx] / pop.b[idx]
    return (*_closed_form(alpha, pop.d[idx] / pop.b[idx]), idx)


def random_dictator_ne(pop: Population, iv: Intervention, seed: int) -> NEResult:
    q, total, idx = dictator_block(pop, iv.lam[None], [seed])
    return NEResult(q=q[0], Q_W=float(total[0]), dictators=tuple(int(i) for i in idx[0]))
