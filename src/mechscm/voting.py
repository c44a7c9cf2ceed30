"""The citizen-level voting world: populations, preference interventions, and
ground-truth Nash equilibria under VCG, median, and random-dictator voting.

Citizen i of country c values pollution as a*q_c - b*q_c^2 - d*Q_W^2 with
Q_W the global total; an intervention lowers a by lambda >= 0.  Countries
play a Nash equilibrium whose closed form, given per-country utility ratios
alpha = A/B and delta = D/B, is

    Q_W = (sum(alpha) / 2) / (1 + sum(delta)),    q_c = alpha_c / 2 - delta_c * Q_W.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from mechscm.core import NoConvergence

__all__ = [
    "InvalidConfig",
    "NegativePreference",
    "ParameterRanges",
    "Population",
    "Intervention",
    "CountryParams",
    "NEResult",
    "generate_population",
    "ne_from_params",
    "vcg_ne",
    "vcg_country_params",
    "median_ne",
    "median_fixed_point_residual",
    "random_dictator_ne",
    "sample_interventions",
    "zero_on_country_interventions",
    "LAMBDA_MAX",
]

LAMBDA_MAX = 0.1
BETA_CONCENTRATION = 10.0


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
        # Country layout: each country's first citizen index, and each
        # citizen's country.
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(self.sizes, initial=0))[:-1])
        country_of = np.repeat(np.arange(len(self.sizes)), self.sizes)
        country_of.flags.writeable = False
        object.__setattr__(self, "country_of", country_of)

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
        if len(self.lam) != pop.total:
            raise InvalidConfig("intervention length must equal the citizen count")
        if np.any(pop.a - self.lam < -1e-12):
            raise NegativePreference("a - lambda must stay non-negative")


@dataclass(frozen=True)
class CountryParams:
    alpha: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        if self.alpha.shape != self.delta.shape:
            raise InvalidConfig("alpha and delta must have equal length")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.delta))):
            raise InvalidConfig("parameters must be finite")
        if np.any(self.delta < 0):
            raise InvalidConfig("delta must be non-negative")


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


def ne_from_params(p: CountryParams) -> NEResult:
    """Closed-form equilibrium of the country-level quadratic game."""
    total = float(0.5 * np.sum(p.alpha) / (1.0 + np.sum(p.delta)))
    q = p.alpha / 2.0 - p.delta * total
    return NEResult(q=q, Q_W=total)


def vcg_ne(pop: Population, iv: Intervention) -> NEResult:
    """Truthful reporting aggregates each country's coefficients, so the
    equilibrium is the closed form at the summed parameters."""
    return ne_from_params(vcg_country_params(pop, iv))


def vcg_country_params(pop: Population, iv: Intervention) -> CountryParams:
    """Ground-truth (alpha, delta) under truthful aggregation."""
    iv.validate_for(pop)
    A = np.empty(pop.n_countries)
    B = np.empty(pop.n_countries)
    D = np.empty(pop.n_countries)
    for c in range(pop.n_countries):
        sl = pop.country_slice(c)
        A[c] = np.sum(pop.a[sl] - iv.lam[sl])
        B[c] = np.sum(pop.b[sl])
        D[c] = np.sum(pop.d[sl])
    return CountryParams(alpha=A / B, delta=D / B)


def _median_targets(pop: Population, iv: Intervention, q: np.ndarray) -> np.ndarray:
    """Each citizen votes for their individually optimal pollution level given
    the other countries' current total; the country target is the lower
    median of its citizens' votes."""
    Q_minus = float(np.sum(q)) - q[pop.country_of]
    votes = (pop.a - iv.lam - 2.0 * pop.d * Q_minus) / (2.0 * (pop.b + pop.d))
    targets = np.empty(pop.n_countries)
    for c in range(pop.n_countries):
        block = np.sort(votes[pop.country_slice(c)])
        targets[c] = block[(len(block) - 1) // 2]
    return targets


def median_ne(
    pop: Population,
    iv: Intervention,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> NEResult:
    """Damped synchronous iteration on the per-country median vote, from all
    pollution levels zero, stopping when the update step's 2-norm is at most
    ``tol``."""
    if max_iter < 1:
        raise InvalidConfig("need max_iter >= 1")
    iv.validate_for(pop)
    q = np.zeros(pop.n_countries)
    for iteration in range(1, max_iter + 1):
        targets = _median_targets(pop, iv, q)
        step = damping * (targets - q)
        q = q + step
        step_norm = float(np.linalg.norm(step))
        if step_norm <= tol:
            return NEResult(q=q, Q_W=float(np.sum(q)), iterations=iteration, residual=step_norm)
    raise NoConvergence(
        f"median iteration did not reach {tol} in {max_iter} steps",
        step_norm,
        max_iter,
    )


def median_fixed_point_residual(pop: Population, iv: Intervention, q: np.ndarray) -> float:
    """Max-norm gap between the returned levels and the median votes they
    induce."""
    targets = _median_targets(pop, iv, q)
    return float(np.max(np.abs(targets - q)))


def random_dictator_ne(pop: Population, iv: Intervention, seed: int) -> NEResult:
    """One uniformly drawn citizen per country dictates its country's utility
    ratios; the equilibrium is the closed form at those ratios."""
    iv.validate_for(pop)
    rng = np.random.default_rng(seed)
    alpha = np.empty(pop.n_countries)
    delta = np.empty(pop.n_countries)
    dictators = []
    for c in range(pop.n_countries):
        sl = pop.country_slice(c)
        i = int(rng.integers(pop.sizes[c]))
        idx = sl.start + i
        alpha[c] = (pop.a[idx] - iv.lam[idx]) / pop.b[idx]
        delta[c] = pop.d[idx] / pop.b[idx]
        dictators.append(idx)
    base = ne_from_params(CountryParams(alpha=alpha, delta=delta))
    return NEResult(q=base.q, Q_W=base.Q_W, dictators=tuple(dictators))
