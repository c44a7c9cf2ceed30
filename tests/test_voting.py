"""Population generation, closed-form equilibria, and the three voting
mechanisms, each checked against independent best-response oracles."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechscm.core import NoConvergence
from mechscm.surrogate import make_dataset
from mechscm.voting import (
    A_RANGE,
    B_RANGE,
    BLOCK_ROWS,
    D_RANGE,
    LAMBDA_MAX,
    Intervention,
    InvalidConfig,
    NegativePreference,
    Population,
    _citizen_lambdas,
    dictator_block,
    draw_dictators,
    generate_population,
    median_block,
    median_fixed_point_residual,
    median_ne,
    median_residuals,
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
        vcg_block(tiny, np.array([[0.1]]))


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


def test_population_keeps_read_only_copies():
    a, b, d = np.array([0.5, 0.4, 0.6]), np.array([5.0, 5.0, 8.0]), np.array([0.02, 0.01, 0.03])
    pop = Population(sizes=(2, 1), a=a, b=b, d=d)
    for arr in (pop.a, pop.b, pop.d):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1.0
    a[0], b[0] = -1.0, 100.0  # the caller's arrays stay theirs to change
    assert pop.a[0] == 0.5
    alpha, delta = vcg_params_block(pop, np.zeros((1, 3)))
    assert alpha.tolist() == [[(0.5 + 0.4) / 10.0, 0.6 / 8.0]]
    assert delta.tolist() == [(0.02 + 0.01) / 10.0, 0.03 / 8.0]
    assert pop.b.tolist() == [5.0, 5.0, 8.0] and pop.a.dtype == a.dtype


def test_population_derived_arrays_read_only_and_survive_pickling():
    pop = Population(
        sizes=(2, 1), a=np.array([0.5, 0.4, 0.6]), b=np.array([5.0, 5.0, 8.0]),
        d=np.array([0.02, 0.01, 0.03]),
    )
    again = pickle.loads(pickle.dumps(pop))
    for name in ("a", "b", "d"):
        assert not getattr(again, name).flags.writeable, name
        assert np.array_equal(getattr(again, name), getattr(pop, name)), name
    assert again.sizes == pop.sizes and again.offsets == pop.offsets


@pytest.mark.parametrize(
    "n_countries, total_citizens", [(50, 10_000), (5, 1000)], ids=["voting-gt", "table1"]
)
def test_vcg_params_match_exactly_rounded_country_sums(n_countries, total_citizens):
    pop = generate_population(41, n_countries, total_citizens)
    lam = np.stack([iv.lam for iv in sample_interventions(pop, seed=42, n=3)])
    alpha, delta = vcg_params_block(pop, lam)
    sums = lambda values: np.array(
        [math.fsum(values[start : start + size]) for start, size in zip(pop.offsets, pop.sizes)]
    )
    b = sums(pop.b)
    assert np.allclose(delta, sums(pop.d) / b, rtol=1e-14, atol=0.0)
    want = np.stack([sums(pop.a - row) / b for row in lam])
    assert np.allclose(alpha, want, rtol=1e-14, atol=0.0)


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


def test_median_block_returns_empty_arrays_for_zero_rows():
    pop = generate_population(seed=11, n_countries=4, total_citizens=200)
    levels, steps, residuals = median_block(pop, np.zeros((0, pop.total)))
    assert (levels.shape, steps.shape, residuals.shape) == ((0, 4), (0,), (0,))
    assert steps.dtype == int and residuals.dtype == float


@pytest.mark.parametrize("tol", [np.nan, -1e-9])
def test_median_block_rejects_nan_or_negative_tol(tol):
    pop = generate_population(seed=11, n_countries=4, total_citizens=200)
    with pytest.raises(InvalidConfig, match="tol >= 0"):
        median_block(pop, np.zeros((1, pop.total)), tol=tol)


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


def test_draw_dictators_draws_row_by_row_one_citizen_per_country():
    pop = generate_population(seed=8, n_countries=6, total_citizens=40)
    got = draw_dictators(pop, np.random.default_rng(3), 50)
    rng = np.random.default_rng(3)
    for row in got.tolist():
        assert row == [start + int(rng.integers(size)) for start, size in zip(pop.offsets, pop.sizes)]
    for c in range(pop.n_countries):
        sl = pop.country_slice(c)
        assert np.all((sl.start <= got[:, c]) & (got[:, c] < sl.stop))


def test_dictator_block_rows_are_solved_alone():
    pop = generate_population(seed=8, n_countries=4, total_citizens=300)
    rng = np.random.default_rng(5)
    lam = np.stack([iv.lam for iv in sample_interventions(pop, rng, 9)])
    dictators = draw_dictators(pop, rng, 9)
    q, total = dictator_block(pop, lam, dictators)
    for j in range(9):
        q_j, total_j = dictator_block(pop, lam[j : j + 1], dictators[j : j + 1])
        assert q_j.tobytes() == q[j : j + 1].tobytes()
        assert total_j.tobytes() == total[j : j + 1].tobytes()
    shared = dictator_block(pop, lam[:1], dictators)
    repeated = dictator_block(pop, np.repeat(lam[:1], 9, axis=0), dictators)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, repeated))


# ---------------------------------------------------------------------------
# Block solvers against the row-by-row solvers they replaced


def _stable_lower_medians(pop, values):
    """Each country's lower median of values (N,) and the citizen holding
    it, by a stable sort: (medians (C,), indices (C,))."""
    idx = np.array([
        start + np.argsort(values[start : start + size], kind="stable")[(size - 1) // 2]
        for start, size in zip(pop.offsets, pop.sizes)
    ])
    return values[idx], idx


def _sorted_medians(pop, lam, q):
    """Each country's lower median of the votes that levels q induce under
    the lambdas lam, and the citizen casting it: (votes (C,), indices (C,))."""
    q_minus = float(np.sum(q)) - np.repeat(q, pop.sizes)
    return _stable_lower_medians(pop, (pop.a - lam - 2.0 * pop.d * q_minus) / (2.0 * (pop.b + pop.d)))


def _closed_form_by_hand(alpha, delta):
    total = float(0.5 * np.sum(alpha) / (1.0 + np.sum(delta)))
    return alpha / 2.0 - delta * total, total


def _vcg_by_hand(pop, lam):
    """One row's summed country ratios (alpha, delta), each country summed by
    ``np.add.reduceat`` over that row alone."""
    b = np.add.reduceat(pop.b, pop.offsets)
    return np.add.reduceat(pop.a - lam, pop.offsets) / b, np.add.reduceat(pop.d, pop.offsets) / b


def _median_by_hand(pop, lam, tol=1e-6):
    """One row by bracketed Newton on the world total Q from the vcg total:
    each step is the closed form at the lower medians of the ideal levels
    alpha/2 - delta Q, or the bracket midpoint when that total leaves the
    bracket [lo, hi], narrowed at the total each step starts from.  Returns
    (levels, steps, vote residual) at the first step whose levels are within
    ``tol`` of the median ideal levels at their own total."""
    alpha, delta = (pop.a - lam) / pop.b, pop.d / pop.b
    total = _closed_form_by_hand(*_vcg_by_hand(pop, lam))[1]
    lo, hi = 0.0, float(sum(np.max(alpha[s : s + n]) for s, n in zip(pop.offsets, pop.sizes))) / 2.0
    ideal, idx = _stable_lower_medians(pop, alpha / 2.0 - delta * total)
    for step in range(1, 101):
        q, newton = _closed_form_by_hand(alpha[idx], delta[idx])
        lo, hi = (total, hi) if np.sum(ideal) > total else (lo, total)
        ideal, idx = _stable_lower_medians(pop, alpha / 2.0 - delta * newton)
        if np.max(np.abs(ideal - q)) <= tol:
            return q, step, float(np.max(np.abs(_sorted_medians(pop, lam, q)[0] - q)))
        total = newton if lo < newton < hi else 0.5 * (lo + hi)
        if total != newton:
            ideal, idx = _stable_lower_medians(pop, alpha / 2.0 - delta * total)
    raise AssertionError("bracketed Newton did not converge in 100 steps")


def _row_by_row(mechanism, pop, interventions, rng=None):
    """Each intervention solved alone with per-country sums, stably sorted
    lower medians and the closed form by hand, the dictators drawn from the
    generator ``rng`` one country at a time: (levels, median step counts,
    median residuals)."""
    levels, steps, residuals = [], [], []
    for iv in interventions:
        if mechanism == "median":
            q, step, residual = _median_by_hand(pop, iv.lam)
            levels.append(q)
            steps.append(step)
            residuals.append(residual)
        elif mechanism == "vcg":
            levels.append(_closed_form_by_hand(*_vcg_by_hand(pop, iv.lam))[0])
        else:
            idx = [start + int(rng.integers(size)) for start, size in zip(pop.offsets, pop.sizes)]
            alpha, delta = (pop.a[idx] - iv.lam[idx]) / pop.b[idx], pop.d[idx] / pop.b[idx]
            levels.append(_closed_form_by_hand(alpha, delta)[0])
    return np.stack(levels), steps, np.array(residuals)


@pytest.mark.parametrize("mechanism", ["vcg", "median", "dictator"])
def test_block_ground_truth_matches_row_by_row(mechanism):
    pop = generate_population(seed=8, n_countries=4, total_citizens=300)
    n = BLOCK_ROWS + 7  # a full block and a partial one
    data = make_dataset(mechanism, pop, n, 21)
    # one generator draws the interventions, then each row's dictators
    rng = np.random.default_rng(21)
    interventions = sample_interventions(pop, rng, n)
    assert [iv.lam.tobytes() for iv in interventions] == [
        iv.lam.tobytes() for iv in data.interventions
    ]
    levels, steps, residuals = _row_by_row(mechanism, pop, interventions, rng)
    assert data.q.tobytes() == levels.tobytes()
    if mechanism == "median":
        assert data.iterations.tolist() == steps
        assert data.residuals.tobytes() == residuals.tobytes()
        assert np.all(data.residuals <= 1e-6)
        lam = np.stack([iv.lam for iv in data.interventions])
        assert data.residuals.tobytes() == median_residuals(pop, lam, data.q).tobytes()


def _drawn_population(sizes, duplicated, rng, spread=False):
    """Citizens drawn from the ``voting`` ranges; a duplicated citizen copies
    a random member of their own country.  With ``spread``, each citizen's b
    is further scaled by 1e-3 to 1e3 and d by 1 to 100 (log-uniform), far
    beyond ``generate_population``'s spread.  Returns (population, source),
    source mapping each citizen to the one they copy."""
    n, size_of = sum(sizes), np.repeat(sizes, sizes)
    start = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    source = start + rng.integers(0, size_of) if duplicated else np.arange(n)
    a = rng.uniform(*A_RANGE, size=n)
    b = rng.uniform(*B_RANGE, size=n) / size_of
    d = rng.uniform(*D_RANGE, size=n) / len(sizes)
    if spread:
        b, d = b * 10.0 ** rng.uniform(-3, 3, size=n), d * 10.0 ** rng.uniform(0, 2, size=n)
    return Population(sizes=tuple(sizes), a=a[source], b=b[source], d=d[source]), source


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=60),
    n_rows=st.sampled_from([1, 2, 71]),
    duplicated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[1, 2, 3] * 18, n_rows=1, duplicated=True, seed=0)
@example(sizes=[1, 2, 5, 40, 17], n_rows=71, duplicated=True, seed=1)
@example(sizes=[2] * 50, n_rows=2, duplicated=False, seed=2)
def test_median_solvers_match_the_sorted_median_oracle_bytewise(sizes, n_rows, duplicated, seed):
    # argpartition and a stable sort may name different citizens among equal
    # votes, but a duplicated citizen's ratios equal their original's, so
    # ties and tiny countries change no byte; at most 600 (row, country)
    # pairs keep the oracle fast
    sizes = sizes[: max(1, 600 // n_rows)]
    rng = np.random.default_rng(seed)
    pop, source = _drawn_population(sizes, duplicated, rng)
    lam = rng.uniform(0.0, LAMBDA_MAX, size=(n_rows, pop.total))[:, source]
    levels, steps, residuals = median_block(pop, lam)
    want = _row_by_row("median", pop, [Intervention(row) for row in lam])
    assert levels.tobytes() == want[0].tobytes()
    assert steps.tolist() == want[1]
    assert residuals.tobytes() == want[2].tobytes()
    q = levels * rng.uniform(0.5, 1.5, size=levels.shape)
    gaps = [np.abs(_sorted_medians(pop, row, q_row)[0] - q_row).max() for row, q_row in zip(lam, q)]
    assert median_residuals(pop, lam, q).tobytes() == np.array(gaps).tobytes()


@pytest.mark.parametrize(
    "n_countries, total_citizens, n_rows",
    [(50, 10_000, 4), (5, 1000, BLOCK_ROWS + 7)],
    ids=["voting-gt", "table1"],
)
def test_median_block_matches_the_sorted_median_oracle_at_benchmark_shapes(
    n_countries, total_citizens, n_rows
):
    pop = generate_population(41, n_countries, total_citizens)
    lam = np.stack([iv.lam for iv in sample_interventions(pop, seed=42, n=n_rows)])
    levels, steps, residuals = median_block(pop, lam)
    want = _row_by_row("median", pop, [Intervention(row) for row in lam])
    assert levels.tobytes() == want[0].tobytes()
    assert steps.tolist() == want[1] and max(want[1]) <= 4
    assert residuals.tobytes() == want[2].tobytes()


def _check_median_block_converges(sizes, duplicated, seed):
    rng = np.random.default_rng(seed)
    pop, source = _drawn_population(sizes, duplicated, rng, spread=True)
    lam = rng.uniform(0.0, LAMBDA_MAX, size=(8, pop.total))[:, source]
    tol = 1e-12 * float(np.max(pop.a / pop.b))  # relative to the largest alpha
    levels, _, residuals = median_block(pop, lam, tol=tol)
    assert np.all(residuals <= tol)
    assert residuals.tobytes() == median_residuals(pop, lam, levels).tobytes()


SPREAD_POPULATIONS = {
    "sizes": st.lists(st.integers(1, 6), min_size=1, max_size=4),
    "duplicated": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
}


@settings(max_examples=40, deadline=None)
@given(**SPREAD_POPULATIONS)
@example(sizes=[5, 4], duplicated=True, seed=494065905)
@example(sizes=[4, 4, 3], duplicated=False, seed=3609094582)
@example(sizes=[5], duplicated=False, seed=1631013684)
@example(sizes=[4, 3], duplicated=False, seed=2348788851)
def test_median_block_converges_on_spread_citizens(sizes, duplicated, seed):
    # the first two examples cycle under re-selecting the median voters at
    # the levels; without its bisection bracket, Newton's method on the total
    # cycles on the last two
    _check_median_block_converges(sizes, duplicated, seed)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(**SPREAD_POPULATIONS)
def test_median_block_converges_on_spread_citizens_wide(sizes, duplicated, seed):
    _check_median_block_converges(sizes, duplicated, seed)


def test_median_block_raises_when_any_row_fails():
    pop = generate_population(seed=11, total_citizens=300)
    lam = np.stack([iv.lam for iv in sample_interventions(pop, seed=4, n=6)])
    _, steps, _ = median_block(pop, lam)
    assert steps.min() < steps.max()
    with pytest.raises(NoConvergence, match=f"in {steps.min()} steps") as exc:
        median_block(pop, lam, max_iter=int(steps.min()))
    assert exc.value.iterations == steps.min() and exc.value.residual > 1e-6
    with pytest.raises(InvalidConfig):
        median_block(pop, lam, max_iter=0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda pop: Population(sizes=pop.sizes, a=pop.a[1:], b=pop.b, d=pop.d),
            "^a must have one entry per citizen",
            id="population-shape",
        ),
        pytest.param(
            lambda pop: Population(sizes=pop.sizes, a=pop.a, b=-pop.b, d=pop.d),
            "b > 0",
            id="population-sign",
        ),
        pytest.param(
            lambda pop: Population(sizes=(0,) + pop.sizes, a=pop.a, b=pop.b, d=pop.d),
            "every country needs at least one citizen",
            id="empty-country",
        ),
        pytest.param(
            lambda pop: zero_on_country_interventions(pop, pop.n_countries, seed=0),
            r"country 3 outside \[0, 3\)",
            id="unknown-country",
        ),
        pytest.param(
            lambda pop: zero_on_country_interventions(pop, 1.5, 0, 2),
            r"country 1.5 outside \[0, 3\)",
            id="fractional-country",
        ),
        pytest.param(
            lambda pop: vcg_block(pop, np.zeros((1, pop.total - 1))),
            "length must equal the citizen count",
            id="intervention-length",
        ),
        pytest.param(
            lambda pop: generate_population(0, 0, 30),
            "^0 countries: need 1 to 30, a citizen each",
            id="no-countries",
        ),
        pytest.param(
            lambda pop: generate_population(0, -2, 30), "^-2 countries", id="negative-countries"
        ),
        pytest.param(
            lambda pop: median_residuals(pop, np.zeros((2, pop.total)), np.zeros((2, 4))),
            r"levels q of shape \(2, 4\), need \(2, 3\)",
            id="residual-levels-shape",
        ),
        pytest.param(
            lambda pop: median_residuals(pop, np.zeros((2, pop.total)), np.zeros(3)),
            r"levels q of shape \(3,\), need \(2, 3\)",
            id="residual-levels-1d",
        ),
        pytest.param(
            lambda pop: median_fixed_point_residual(pop, Intervention.zero(pop), np.zeros(2)),
            r"levels q of shape \(1, 2\), need \(1, 3\)",
            id="fixed-point-levels-length",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((2, pop.total)), draw_dictators(pop, 0, 3)),
            r"int64 dictators of shape \(3, 3\) for 2 lambda rows",
            id="dictator-rows",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), draw_dictators(pop, 0, 2)[:, :2]),
            r"dictators of shape \(2, 2\) for 1 lambda rows; need integers, one row of 3",
            id="dictator-columns",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), draw_dictators(pop, 0, 1)[0]),
            r"dictators of shape \(3,\)",
            id="dictator-1d",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), draw_dictators(pop, 0, 2) + 0.0),
            "float64 dictators",
            id="dictator-float",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), [[pop.offsets[1], pop.offsets[1], pop.offsets[2]]]),
            "every dictator must be a citizen of their own country",
            id="dictator-other-country",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), [[-1, *pop.offsets[1:]]]),
            "every dictator must be a citizen of their own country",
            id="dictator-negative",
        ),
        pytest.param(
            lambda pop: dictator_block(pop, np.zeros((1, pop.total)), [[0, pop.offsets[1], pop.total]]),
            "every dictator must be a citizen of their own country",
            id="dictator-past-the-end",
        ),
        pytest.param(lambda pop: pop.country_slice(3), r"country 3 outside \[0, 3\)", id="slice-past-the-end"),
        pytest.param(lambda pop: pop.country_slice(-1), r"country -1 outside \[0, 3\)", id="slice-negative"),
        pytest.param(lambda pop: pop.country_slice(1.0), r"country 1.0 outside \[0, 3\)", id="slice-float"),
    ],
)
def test_invalid_voting_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvalidConfig, match=message):
        call(generate_population(seed=0, n_countries=3, total_citizens=30))


def _with_non_finite(values: np.ndarray, bad: float) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flat[out.size // 2] = bad
    return out


def _non_finite_cases(bad: float, suffix: str, raw_block_error: type) -> list:
    return [
        pytest.param(lambda pop: Intervention(_with_non_finite(np.zeros(pop.total), bad)), InvalidConfig, id="intervention" + suffix),
        pytest.param(
            lambda pop: Population(sizes=pop.sizes, a=_with_non_finite(pop.a, bad), b=pop.b, d=pop.d),
            InvalidConfig,
            id="population-a" + suffix,
        ),
        pytest.param(
            lambda pop: Population(sizes=pop.sizes, a=pop.a, b=_with_non_finite(pop.b, bad), d=pop.d),
            InvalidConfig,
            id="population-b" + suffix,
        ),
        pytest.param(
            lambda pop: Population(sizes=pop.sizes, a=pop.a, b=pop.b, d=_with_non_finite(pop.d, bad)),
            InvalidConfig,
            id="population-d" + suffix,
        ),
        pytest.param(
            lambda pop: vcg_block(pop, _with_non_finite(np.zeros((2, pop.total)), bad)), raw_block_error, id="raw-block" + suffix
        ),
    ]


@pytest.mark.parametrize(
    "call, error",
    # a lambda of +inf makes a - lambda = -inf, which is negative; -inf
    # makes it +inf, which is out of range
    _non_finite_cases(np.nan, "", NegativePreference)
    + _non_finite_cases(np.inf, "-inf", NegativePreference)
    + _non_finite_cases(-np.inf, "-neg-inf", InvalidConfig),
)
def test_nan_voting_inputs_raise_typed_errors(call, error):
    # every range check is written so that NaN and +-inf fail it, as an
    # out-of-range value does
    with pytest.raises(error):
        call(generate_population(seed=0, n_countries=3, total_citizens=30))


def test_every_country_keeps_a_citizen_when_rounding_leaves_one_empty():
    # largest-remainder rounding gives one country no citizen at this seed;
    # the rebalancing moves one over from the largest country
    assert generate_population(2, 5, 6).sizes == (1, 1, 1, 1, 2)
