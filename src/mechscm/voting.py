"""The citizen-level voting world: populations, preference interventions, and
ground-truth Nash equilibria under VCG, median, and random-dictator voting.

Citizen i of country c values pollution as a*q_c - b*q_c^2 - d*Q_W^2 with
Q_W the global total; an intervention lowers a by lambda >= 0.  Countries
play a Nash equilibrium whose closed form, given per-country utility ratios
alpha = A/B and delta = D/B, is

    Q_W = (sum(alpha) / 2) / (1 + sum(delta)),    q_c = alpha_c / 2 - delta_c * Q_W.

A ``Population`` keeps only the citizens' a, b and d in country-block order
and each country's first citizen index ``offsets``; every per-country sum,
here and in ``surrogate``, is one ``np.add.reduceat`` over those offsets.

Each mechanism has one block solver (``vcg_block``, ``median_block``,
``dictator_block``) over a (B, N) matrix of preference reductions, one
intervention per row.  ``vcg_ne``, ``median_ne``, ``random_dictator_ne`` and
``median_fixed_point_residual`` are one-row views of them, kept only because
the benchmark in ``perfbench/`` calls them.  ``intervention_blocks`` stacks
at most ``BLOCK_ROWS`` = 64 distinct lambda rows per call, which bounds the
(B, N) temporaries; ``dictator_block`` may share one lambda row across any
number of dictator rows.  Every row is bit-identical to solving it alone.

The median mechanism follows the median voter theorem (Black, JPE 1948): a
country whose level is the vote of its lower-median citizen m sits at the
closed form with m's own ratios alpha_m = (a - lambda)_m / b_m and
delta_m = d_m / b_m.  At the world total Q each citizen's ideal level is
alpha_i / 2 - delta_i Q, and ``median_block`` finds those citizens by a
bracketed Newton's method on Q whose steps are that closed form.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from mechscm.core import NoConvergence

__all__ = [
    "InvalidConfig",
    "NegativePreference",
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
    "draw_dictators",
    "dictator_block",
    "sample_interventions",
    "zero_on_country_interventions",
    "LAMBDA_MAX",
    "A_RANGE",
    "B_RANGE",
    "D_RANGE",
    "SIZE_SIGMA",
]

LAMBDA_MAX = 0.1
BETA_CONCENTRATION = 10.0
BLOCK_ROWS = 64  # interventions per block-solver call
# Citizen parameter ranges: b is divided by its country's size and d by the
# number of countries.  Country sizes are log-normal with sigma SIZE_SIGMA.
A_RANGE = (0.35, 0.65)
B_RANGE = (7.0, 13.0)
D_RANGE = (0.05, 0.15)
SIZE_SIGMA = 0.5


class InvalidConfig(ValueError):
    pass


class NegativePreference(ValueError):
    """An intervention pushed some citizen's linear preference below zero."""


@dataclass(frozen=True)
class Population:
    """Fixed country sizes and per-citizen utility parameters, stored as flat
    arrays over citizens in country-block order, with each country's first
    citizen index ``offsets`` derived once.  a, b and d are kept as read-only
    copies, and unpickling rebuilds the population through the constructor."""

    sizes: tuple
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = sum(self.sizes)
        if not all(size >= 1 for size in self.sizes):
            raise InvalidConfig("every country needs at least one citizen")
        for name in ("a", "b", "d"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.shape != (n,):
                raise InvalidConfig(f"{name} must have one entry per citizen")
        finite = all(np.all(np.isfinite(arr)) for arr in (self.a, self.b, self.d))
        if not (finite and np.all(self.a >= 0) and np.all(self.b > 0) and np.all(self.d >= 0)):
            raise InvalidConfig("require finite a >= 0, b > 0, d >= 0")
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(self.sizes, initial=0))[:-1])

    def __reduce__(self):
        return type(self), (self.sizes, self.a, self.b, self.d)

    @property
    def n_countries(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return int(sum(self.sizes))

    def country_slice(self, c: int) -> slice:
        """Country ``c``'s citizens; InvalidConfig unless ``c`` is an integer
        in [0, C)."""
        if not (isinstance(c, numbers.Integral) and 0 <= c < self.n_countries):
            raise InvalidConfig(f"country {c} outside [0, {self.n_countries})")
        start = self.offsets[c]
        return slice(start, start + self.sizes[c])


@dataclass(frozen=True)
class Intervention:
    """Per-citizen preference reductions, each in [0, LAMBDA_MAX]."""

    lam: np.ndarray

    def __post_init__(self):
        if not (np.all(self.lam >= -1e-15) and np.all(self.lam <= LAMBDA_MAX + 1e-12)):
            raise InvalidConfig(f"lambda values must lie in [0, {LAMBDA_MAX}]")

    @classmethod
    def zero(cls, pop: Population) -> "Intervention":
        return cls(np.zeros(pop.total))


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


def generate_population(seed: int, n_countries: int = 5, total_citizens: int = 1000) -> Population:
    """Log-normal country sizes scaled to the exact total (largest-remainder
    rounding), citizen parameters i.i.d. uniform within the scaled
    ``A_RANGE``, ``B_RANGE`` and ``D_RANGE``."""
    if not 1 <= n_countries <= total_citizens:
        raise InvalidConfig(f"{n_countries} countries: need 1 to {total_citizens}, a citizen each")
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(mean=0.0, sigma=SIZE_SIGMA, size=n_countries)
    sizes = _largest_remainder_sizes(raw, total_citizens)

    a = rng.uniform(A_RANGE[0], A_RANGE[1], size=total_citizens)
    b = np.empty(total_citizens)
    d = rng.uniform(D_RANGE[0] / n_countries, D_RANGE[1] / n_countries, size=total_citizens)
    offset = 0
    for n_c in sizes:
        b[offset : offset + n_c] = rng.uniform(B_RANGE[0] / n_c, B_RANGE[1] / n_c, size=n_c)
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
    and draws no citizen values.  The (n, N) draws are checked at once."""
    if n < 1:
        raise InvalidConfig("need n >= 1 interventions")
    rng = np.random.default_rng(seed)
    lam = np.zeros((n, pop.total))
    for row in lam:
        means = rng.uniform(0.0, LAMBDA_MAX, size=pop.n_countries)
        for c, (start, size) in enumerate(zip(pop.offsets, pop.sizes)):
            if c != untouched:
                row[start : start + size] = _citizen_lambdas(means[c], size, rng)
    _preferences(pop, lam)
    return [Intervention(row) for row in lam]


def sample_interventions(pop: Population, seed: int, n: int) -> list:
    """Seeded interventions that perturb every country."""
    return _draw_interventions(pop, seed, n)


def zero_on_country_interventions(
    pop: Population, c: int, seed: int, n: int = 10
) -> list:
    """Interventions that leave country ``c`` untouched but perturb all other
    countries, used to trace out the equilibrium line for one country."""
    pop.country_slice(c)  # InvalidConfig unless c names a country
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
    if not np.all(x >= -1e-12):
        raise NegativePreference("a - lambda must stay non-negative")
    if not np.all(np.isfinite(x)):
        raise InvalidConfig("lambda values must be finite")
    return x


def _closed_form(alpha: np.ndarray, delta: np.ndarray) -> tuple:
    """Levels (B, C) and totals (B,) for alpha (B, C) and delta (C,) or (B, C)."""
    total = 0.5 * alpha.sum(axis=1) / (1.0 + delta.sum(axis=-1))
    return alpha / 2.0 - delta * total[:, None], total


def _vcg_ratios(pop: Population, x: np.ndarray) -> tuple:
    """Each country's summed ratios alpha (B, C) and delta (C,) for the
    validated x = a - lambda (B, N)."""
    b = np.add.reduceat(pop.b, pop.offsets)
    return np.add.reduceat(x, pop.offsets, axis=1) / b, np.add.reduceat(pop.d, pop.offsets) / b


def vcg_params_block(pop: Population, lam: np.ndarray) -> tuple:
    """Ground-truth ratios under truthful aggregation: alpha (B, C), delta (C,)."""
    return _vcg_ratios(pop, _preferences(pop, lam))


def vcg_block(pop: Population, lam: np.ndarray) -> tuple:
    """Truthful reporting aggregates each country's coefficients, so each
    equilibrium is the closed form at the summed parameters: (q, Q_W)."""
    return _closed_form(*vcg_params_block(pop, lam))


def vcg_ne(pop: Population, iv: Intervention) -> NEResult:
    q, total = vcg_block(pop, iv.lam[None])
    return NEResult(q=q[0], Q_W=float(total[0]))


def _votes(pop: Population, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each citizen's individually optimal pollution level given the other
    countries' current total, per row of x = a - lambda and q (B, C)."""
    # each country's other total is subtracted once and then repeated
    others = np.repeat(q.sum(axis=1, keepdims=True) - q, pop.sizes, axis=1)
    return (x - others * (2.0 * pop.d)) / (2.0 * (pop.b + pop.d))


def _lower_medians(pop: Population, values: np.ndarray) -> tuple:
    """Per row of votes or ideal levels (B, N), each country's lower median
    and the index of a citizen holding it: (medians (B, C), indices (B, C))."""
    median = np.empty((len(values), pop.n_countries), dtype=np.intp)
    for c, (start, size) in enumerate(zip(pop.offsets, pop.sizes)):
        k = (size - 1) // 2
        median[:, c] = start + values[:, start : start + size].argpartition(k, axis=1)[:, k]
    return np.take_along_axis(values, median, axis=1), median


def median_block(
    pop: Population, lam: np.ndarray, tol: float = 1e-6, max_iter: int = 100
) -> tuple:
    """Newton's method on every row's world total Q, from its vcg total.  At
    Q a country's level is the lower median of its citizens' ideal levels, so
    h(Q) = (sum of those medians) - Q falls strictly from h(0) >= 0 to
    h(hi) <= 0, hi = the sum of each country's largest alpha_i/2.  A step
    moves to the closed form at the median citizens, or to the midpoint of
    [lo, hi], narrowed at each step's start, when that total leaves it.  A
    row stops once its levels are within ``tol`` (max norm) of the median
    ideal levels at their total.  Returns the levels (B, C), each row's step
    count and ``median_residuals`` (each vote's gap to a level is b/(b+d) of
    the ideal level's, so at most ``tol``); NoConvergence if any row has not
    stopped after ``max_iter`` (100 by default) steps."""
    if max_iter < 1:
        raise InvalidConfig("need max_iter >= 1")
    if not tol >= 0:
        raise InvalidConfig("need tol >= 0")
    x = _preferences(pop, lam)
    n = len(x)
    levels, steps, rows = np.empty((n, pop.n_countries)), np.empty(n, int), np.arange(n)
    alpha, delta = x / pop.b, pop.d / pop.b
    total = _closed_form(*_vcg_ratios(pop, x))[1]
    lo, hi = np.zeros(n), np.maximum.reduceat(alpha, pop.offsets, axis=1).sum(axis=1) / 2.0
    ideal, median = _lower_medians(pop, alpha / 2.0 - delta * total[:, None])
    for step in range(1, max_iter + 1):
        q, newton = _closed_form(np.take_along_axis(alpha, median, axis=1), delta[median])
        above = ideal.sum(axis=1) > total  # h > 0 at the step's start
        lo, hi = np.where(above, total, lo), np.where(above, hi, total)
        ideal, median = _lower_medians(pop, alpha / 2.0 - delta * newton[:, None])
        gap = np.abs(ideal - q).max(axis=1)
        done = gap <= tol
        levels[rows[done]], steps[rows[done]] = q[done], step
        rows, alpha, lo, hi, total, ideal, median = (
            arr[~done] for arr in (rows, alpha, lo, hi, newton, ideal, median)
        )
        if rows.size == 0:
            return levels, steps, median_residuals(pop, lam, levels)
        bisect = ~((lo < total) & (total < hi))
        if bisect.any():
            total[bisect] = 0.5 * (lo[bisect] + hi[bisect])
            ideal[bisect], median[bisect] = _lower_medians(
                pop, alpha[bisect] / 2.0 - delta * total[bisect, None]
            )
    worst = float(gap[~done].max())
    raise NoConvergence(f"median Newton did not reach {tol} in {max_iter} steps", worst, max_iter)


def median_ne(
    pop: Population, iv: Intervention, tol: float = 1e-6, max_iter: int = 100
) -> NEResult:
    """One row of ``median_block``: Newton steps on the world total until the
    levels are within ``tol`` of the median ideal levels at that total, at
    most ``max_iter`` (100); ``iterations`` counts the steps and ``residual``
    is the gap to the median votes the levels induce."""
    q, steps, residuals = median_block(pop, iv.lam[None], tol, max_iter)
    return NEResult(
        q=q[0], Q_W=float(np.sum(q[0])), iterations=int(steps[0]), residual=float(residuals[0])
    )


def median_residuals(pop: Population, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the max-norm gap between the levels q (B, C) and the median
    votes they induce."""
    x = _preferences(pop, lam)
    if np.shape(q) != (len(x), pop.n_countries):
        raise InvalidConfig(f"levels q of shape {np.shape(q)}, need {(len(x), pop.n_countries)}")
    return np.abs(_lower_medians(pop, _votes(pop, x, q))[0] - q).max(axis=1)


def median_fixed_point_residual(pop: Population, iv: Intervention, q: np.ndarray) -> float:
    return float(median_residuals(pop, iv.lam[None], np.asarray(q)[None])[0])


def draw_dictators(pop: Population, rng, n: int) -> np.ndarray:
    """(n, C) citizen indices, one uniform draw per row and country, from
    ``default_rng(rng)`` for anything it accepts (a Generator advances)."""
    return pop.offsets + np.random.default_rng(rng).integers(pop.sizes, size=(n, pop.n_countries))


def dictator_block(pop: Population, lam: np.ndarray, dictators) -> tuple:
    """In row j, citizen ``dictators[j, c]``, who must belong to country c
    (``draw_dictators`` draws them so), dictates c's utility ratios; each
    equilibrium is the closed form at those ratios.  ``lam`` has one row per
    dictator row or one shared row.  Returns (q, Q_W)."""
    x, idx, c = _preferences(pop, lam), np.asarray(dictators), pop.n_countries
    if idx.dtype.kind not in "iu" or idx.shape[1:] != (c,) or len(x) not in (1, len(idx)):
        raise InvalidConfig(
            f"{idx.dtype} dictators of shape {idx.shape} for {len(x)} lambda rows; need"
            f" integers, one row of {c} per lambda row or all sharing one"
        )
    if not np.all((pop.offsets <= idx) & (idx - pop.offsets < pop.sizes)):
        raise InvalidConfig("every dictator must be a citizen of their own country")
    x = np.broadcast_to(x, (len(idx), pop.total))
    b = pop.b[idx]
    return _closed_form(x[np.arange(len(idx))[:, None], idx] / b, pop.d[idx] / b)


def random_dictator_ne(pop: Population, iv: Intervention, seed: int) -> NEResult:
    idx = draw_dictators(pop, seed, 1)
    q, total = dictator_block(pop, iv.lam[None], idx)
    return NEResult(q=q[0], Q_W=float(total[0]), dictators=tuple(int(i) for i in idx[0]))
