"""Population generation, closed-form equilibria, and the three voting
mechanisms, each checked against independent best-response oracles."""

import numpy as np
import pytest

from mechscm.core import NoConvergence
from mechscm.surrogate import make_dataset
from mechscm.voting import (
    BLOCK_ROWS,
    LAMBDA_MAX,
    Intervention,
    InvalidConfig,
    NegativePreference,
    Population,
    ParameterRanges,
    _citizen_lambdas,
    generate_population,
    median_block,
    median_fixed_point_residual,
    median_ne,
    random_dictator_ne,
    sample_interventions,
    vcg_block,
    vcg_ne,
    vcg_params_block,
    zero_on_country_interventions,
)


def country_utility(alpha: float, delta: float, q_c: float, q_others: float) -> float:
    """U/B for one country: alpha*q - q^2 - delta*(q + Q_others)^2."""
    return alpha * q_c - q_c**2 - delta * (q_c + q_others) ** 2


def closed_form(alpha, delta) -> tuple:
    """(q, Q_W) of the closed-form equilibrium at the given country ratios,
    through ``vcg_block``: one citizen per country with b = 1, a = alpha and
    d = delta makes vcg's summed ratios alpha and delta exactly."""
    C = len(alpha)
    pop = Population(sizes=(1,) * C, a=np.asarray(alpha), b=np.ones(C), d=np.asarray(delta))
    q, total = vcg_block(pop, np.zeros((1, C)))
    return q[0], float(total[0])


def golden_section_argmax(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Independent 1-D oracle: golden-section search on a concave function."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Population generation


def test_population_deterministic_and_shapes():
    p1 = generate_population(seed=42)
    p2 = generate_population(seed=42)
    assert p1.sizes == p2.sizes
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b) and np.array_equal(p1.d, p2.d)
    assert p1.n_countries == 5 and p1.total == 1000
    assert sum(p1.sizes) == 1000 and all(s >= 1 for s in p1.sizes)
    assert p1.offsets == tuple(int(x) for x in np.cumsum((0,) + p1.sizes[:-1]))


def test_population_parameter_ranges():
    pop = generate_population(seed=7)
    assert np.all(pop.a >= 0.35) and np.all(pop.a <= 0.65)
    for c in range(pop.n_countries):
        sl = pop.country_slice(c)
        n_c = pop.sizes[c]
        assert np.all(pop.b[sl] >= 7.0 / n_c) and np.all(pop.b[sl] <= 13.0 / n_c)
    assert np.all(pop.d >= 0.05 / 5) and np.all(pop.d <= 0.15 / 5)


def test_population_size_dispersion_varies():
    sizes = generate_population(seed=3).sizes
    assert len(set(sizes)) > 1


def test_population_invalid_config():
    with pytest.raises(InvalidConfig):
        generate_population(seed=0, n_countries=10, total_citizens=5)


# ---------------------------------------------------------------------------
# Interventions


def test_sample_interventions_bounds_and_shape():
    pop = generate_population(seed=1)
    ivs = sample_interventions(pop, seed=5, n=20)
    assert len(ivs) == 20
    for iv in ivs:
        assert iv.lam.shape == (pop.total,)
        assert np.all(iv.lam >= 0.0) and np.all(iv.lam <= LAMBDA_MAX + 1e-12)
    with pytest.raises(InvalidConfig):
        sample_interventions(pop, seed=5, n=0)


def test_citizen_lambda_mean_matches_target():
    # law of large numbers on the specified Beta: the empirical mean over
    # 10_000 draws must match the country mean within 0.003
    rng = np.random.default_rng(123)
    for mean in (0.01, 0.04, 0.09):
        draws = _citizen_lambdas(mean, 10_000, rng)
        assert abs(float(draws.mean()) - mean) < 0.003


def test_zero_on_country_block():
    pop = generate_population(seed=2)
    ivs = zero_on_country_interventions(pop, c=1, seed=9, n=10)
    assert len(ivs) == 10
    for iv in ivs:
        assert np.all(iv.lam[pop.country_slice(1)] == 0.0)
        for c in (0, 2, 3, 4):
            block = iv.lam[pop.country_slice(c)]
            assert np.all(block >= 0.0) and block.max() > 0.0
    other = zero_on_country_interventions(pop, c=1, seed=10, n=10)
    assert not np.array_equal(ivs[0].lam, other[0].lam)


def test_intervention_validation():
    pop = generate_population(seed=4)
    with pytest.raises(InvalidConfig):
        Intervention(np.full(pop.total, 0.2))
    tiny = Population(
        sizes=(1,),
        a=np.array([0.05]),
        b=np.array([1.0]),
        d=np.array([0.0]),
    )
    with pytest.raises(NegativePreference):
        Intervention(np.array([0.1])).validate_for(tiny)


# ---------------------------------------------------------------------------
# Closed-form equilibrium


def test_ne_single_country_no_externality():
    q, total = closed_form([1.0], [0.0])
    assert total == pytest.approx(0.5) and q[0] == pytest.approx(0.5)


def test_ne_two_symmetric_countries():
    # oracle: hand evaluation of both formulas
    q, total = closed_form([1.0, 1.0], [0.5, 0.5])
    assert total == pytest.approx(0.5)
    assert np.allclose(q, [0.25, 0.25])
    assert abs(q.sum() - total) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_ne_is_best_response_perturbation_oracle(seed):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(1, 6))
    alpha, delta = rng.uniform(0.1, 20.0, size=C), rng.uniform(0.0, 2.0, size=C)
    q, total = closed_form(alpha, delta)
    assert abs(q.sum() - total) <= 1e-12
    for c in range(C):
        q_others = total - q[c]
        here = country_utility(alpha[c], delta[c], q[c], q_others)
        for eps in (-1e-3, 1e-3):
            moved = country_utility(alpha[c], delta[c], q[c] + eps, q_others)
            assert moved <= here + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ne_matches_golden_section_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    C = int(rng.integers(2, 6))
    alpha, delta = rng.uniform(0.1, 20.0, size=C), rng.uniform(0.0, 2.0, size=C)
    q, total = closed_form(alpha, delta)
    for c in range(C):
        q_others = total - q[c]
        star = golden_section_argmax(
            lambda x: country_utility(alpha[c], delta[c], x, q_others), -5.0, 25.0
        )
        assert abs(star - q[c]) <= 1e-6


# ---------------------------------------------------------------------------
# VCG


def test_vcg_matches_summed_coefficients():
    pop = Population(
        sizes=(2, 2),
        a=np.array([0.5, 0.5, 0.4, 0.6]),
        b=np.array([5.0, 5.0, 4.0, 6.0]),
        d=np.array([0.02, 0.02, 0.03, 0.01]),
    )
    iv = Intervention.zero(pop)
    res = vcg_ne(pop, iv)
    q, total = closed_form([1.0 / 10.0, 1.0 / 10.0], [0.04 / 10.0, 0.04 / 10.0])
    assert np.allclose(res.q, q) and res.Q_W == pytest.approx(total)


@pytest.mark.parametrize("seed", range(5))
def test_vcg_intervention_monotonicity(seed):
    # raising any single lambda never increases total pollution
    pop = generate_population(seed=seed, n_countries=3, total_citizens=30)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 0.05, size=pop.total)
    base = vcg_ne(pop, Intervention(lam))
    for _ in range(10):
        i = int(rng.integers(pop.total))
        bumped = lam.copy()
        bumped[i] = min(LAMBDA_MAX, bumped[i] + 0.03)
        res = vcg_ne(pop, Intervention(bumped))
        assert res.Q_W <= base.Q_W + 1e-12
        c = next(c for c in range(pop.n_countries) if i in range(pop.total)[pop.country_slice(c)])
        alphas = vcg_params_block(pop, np.stack([bumped, lam]))[0]
        assert alphas[0, c] <= alphas[1, c] + 1e-12


def test_vcg_equals_dictator_with_single_citizens():
    pop = Population(
        sizes=(1, 1, 1),
        a=np.array([0.5, 0.4, 0.6]),
        b=np.array([8.0, 9.0, 10.0]),
        d=np.array([0.02, 0.01, 0.03]),
    )
    iv = Intervention(np.array([0.05, 0.0, 0.1]))
    v = vcg_ne(pop, iv)
    for seed in (0, 1, 2):
        r = random_dictator_ne(pop, iv, seed=seed)
        assert np.allclose(r.q, v.q) and r.Q_W == pytest.approx(v.Q_W)


# ---------------------------------------------------------------------------
# Median


def test_median_single_citizen_no_externality():
    pop = Population(
        sizes=(2, 1),
        a=np.array([0.5, 0.5, 0.4]),
        b=np.array([5.0, 5.0, 8.0]),
        d=np.zeros(3),
    )
    iv = Intervention(np.array([0.1, 0.1, 0.0]))
    res = median_ne(pop, iv)
    want = (pop.a - iv.lam) / (2 * pop.b)
    assert res.q[0] == pytest.approx(want[0], abs=1e-5)
    assert res.q[1] == pytest.approx(want[2], abs=1e-5)


def test_median_rejects_nonpositive_max_iter():
    pop = generate_population(seed=11)
    with pytest.raises(InvalidConfig):
        median_ne(pop, Intervention.zero(pop), max_iter=0)


def test_median_fixed_point_residual_small():
    pop = generate_population(seed=11)
    for iv in sample_interventions(pop, seed=12, n=3):
        res = median_ne(pop, iv, tol=1e-6)
        assert median_fixed_point_residual(pop, iv, res.q) <= 1e-5
        assert abs(res.q.sum() - res.Q_W) <= 1e-12


def test_median_equals_vcg_for_identical_citizens():
    # all votes coincide with the aggregate optimum when citizens agree
    sizes = (3, 4)
    a = np.concatenate([np.full(3, 0.5), np.full(4, 0.6)])
    b = np.concatenate([np.full(3, 9.0 / 3), np.full(4, 10.0 / 4)])
    d = np.concatenate([np.full(3, 0.02), np.full(4, 0.015)])
    pop = Population(sizes=sizes, a=a, b=b, d=d)
    iv = Intervention.zero(pop)
    med = median_ne(pop, iv, tol=1e-9)
    vcg = vcg_ne(pop, iv)
    assert np.allclose(med.q, vcg.q, atol=1e-5)


# ---------------------------------------------------------------------------
# Random dictator


def test_dictator_deterministic_per_seed():
    pop = generate_population(seed=21)
    iv = sample_interventions(pop, seed=22, n=1)[0]
    r1 = random_dictator_ne(pop, iv, seed=77)
    r2 = random_dictator_ne(pop, iv, seed=77)
    assert r1.dictators == r2.dictators and np.array_equal(r1.q, r2.q)
    r3 = random_dictator_ne(pop, iv, seed=78)
    assert r3.dictators != r1.dictators


def test_dictator_ne_is_best_response_for_dictator():
    pop = generate_population(seed=31, n_countries=3, total_citizens=60)
    iv = sample_interventions(pop, seed=32, n=1)[0]
    res = random_dictator_ne(pop, iv, seed=33)
    for c, idx in enumerate(res.dictators):
        alpha = (pop.a[idx] - iv.lam[idx]) / pop.b[idx]
        delta = pop.d[idx] / pop.b[idx]
        q_others = res.Q_W - res.q[c]
        star = golden_section_argmax(
            lambda q: country_utility(alpha, delta, q, q_others), -5.0, 30.0
        )
        assert abs(star - res.q[c]) <= 1e-6


def test_dictator_average_approaches_population_mean_behavior():
    pop = generate_population(seed=41)
    iv = Intervention.zero(pop)
    qs = np.stack([random_dictator_ne(pop, iv, seed=s).q for s in range(400)])
    spread = qs.std(axis=0)
    assert np.all(spread > 0.0)
    mean_total = qs.sum(axis=1).mean()
    assert np.isfinite(mean_total)


# ---------------------------------------------------------------------------
# Block solvers against the row-by-row solvers they replaced


def _row_by_row(mechanism, pop, interventions, seeds):
    """Each intervention solved alone with per-country sums, a sorted lower
    median and np.linalg.norm: (levels, median iteration counts)."""
    sl = [pop.country_slice(c) for c in range(pop.n_countries)]
    country = np.concatenate([np.full(s.stop - s.start, c) for c, s in enumerate(sl)])
    levels, iterations = [], []
    for iv, seed in zip(interventions, seeds):
        if mechanism == "median":
            q = np.zeros(pop.n_countries)
            for iteration in range(1, 10_001):
                q_minus = float(np.sum(q)) - q[country]
                votes = (pop.a - iv.lam - 2.0 * pop.d * q_minus) / (2.0 * (pop.b + pop.d))
                targets = np.array([np.sort(votes[s])[(len(votes[s]) - 1) // 2] for s in sl])
                step = 0.3 * (targets - q)
                q = q + step
                if float(np.linalg.norm(step)) <= 1e-6:
                    break
            levels.append(q)
            iterations.append(iteration)
            continue
        if mechanism == "vcg":
            b = np.array([np.sum(pop.b[s]) for s in sl])
            alpha = np.array([np.sum(pop.a[s] - iv.lam[s]) for s in sl]) / b
            delta = np.array([np.sum(pop.d[s]) for s in sl]) / b
        else:
            rng = np.random.default_rng(seed)
            idx = [s.start + int(rng.integers(s.stop - s.start)) for s in sl]
            alpha = (pop.a[idx] - iv.lam[idx]) / pop.b[idx]
            delta = pop.d[idx] / pop.b[idx]
        total = float(0.5 * np.sum(alpha) / (1.0 + np.sum(delta)))
        levels.append(alpha / 2.0 - delta * total)
    return np.stack(levels), iterations


@pytest.mark.parametrize("mechanism", ["vcg", "median", "dictator"])
def test_block_ground_truth_matches_row_by_row(mechanism):
    pop = generate_population(seed=8, n_countries=4, total_citizens=300)
    n = BLOCK_ROWS + 7  # a full block and a partial one
    data = make_dataset(mechanism, pop, n, 21)
    seeds = np.random.SeedSequence(21).spawn(2)[1].spawn(n)
    levels, iterations = _row_by_row(mechanism, pop, data.interventions, seeds)
    assert data.q.tobytes() == levels.tobytes()
    if mechanism == "median":
        assert data.iterations.tolist() == iterations
        assert np.all(data.step_norms <= 1e-6)


def test_median_block_raises_when_any_row_fails():
    pop = generate_population(seed=11, total_citizens=300)
    lam = np.stack([iv.lam for iv in sample_interventions(pop, seed=4, n=6)])
    _, iterations, _ = median_block(pop, lam)
    assert iterations.min() < iterations.max()
    with pytest.raises(NoConvergence) as exc:
        median_block(pop, lam, max_iter=int(iterations.min()))
    assert exc.value.iterations == iterations.min() and exc.value.residual > 1e-6
    with pytest.raises(InvalidConfig):
        median_block(pop, lam, max_iter=0)
