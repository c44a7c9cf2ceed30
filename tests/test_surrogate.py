"""Delta estimation, the network, and gradients through the equilibrium."""

import numpy as np
import pytest

from mechscm import surrogate
from mechscm.voting import (
    BLOCK_ROWS,
    Population,
    generate_population,
    median_block,
    vcg_block,
    vcg_params_block,
    zero_on_country_interventions,
)
from mechscm.surrogate import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DELTA_PROBES,
    DegenerateDesign,
    DeltaEstimate,
    GroundTruthSet,
    NonFinite,
    OmegaNetwork,
    TrainConfig,
    adam_step,
    dictator_baseline,
    estimate_delta,
    evaluate,
    forward,
    loss_and_gradient,
    make_dataset,
    ne_q_hat,
    stochastic_floor,
    train,
)


def tiny_population(seed=0, sizes=(3, 4, 3)) -> Population:
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    return Population(
        sizes=sizes,
        a=rng.uniform(0.35, 0.65, total),
        b=np.concatenate([rng.uniform(7, 13, s) / s for s in sizes]),
        d=rng.uniform(0.01, 0.03, total),
    )


# ---------------------------------------------------------------------------
# Delta estimation


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vcg_delta_regression_exact(seed):
    # the equilibrium line is exactly linear for truthful aggregation, so the
    # regression recovers delta to numerical precision on any seed
    pop = generate_population(seed=seed, n_countries=4, total_citizens=120)
    est = estimate_delta("vcg", pop, seed=seed + 100)
    true = vcg_params_block(pop, np.zeros((1, pop.total)))[1]
    assert est.method == "regression"
    assert np.max(np.abs(est.delta_hat - true)) <= 1e-9


@pytest.mark.parametrize("mechanism", ["vcg", "median"])
def test_estimate_delta_equals_the_per_country_solve(mechanism):
    # 8 countries' probes fill one block and part of another, so rows of
    # different countries share a block solve
    pop = generate_population(seed=3, n_countries=8, total_citizens=400)
    solve = {"vcg": vcg_block, "median": median_block}[mechanism]
    rng = np.random.default_rng(9)
    want = []
    for c in range(pop.n_countries):
        ivs = zero_on_country_interventions(pop, c, rng, n=DELTA_PROBES)
        qs = solve(pop, np.stack([iv.lam for iv in ivs]))[0]
        x = qs.sum(axis=1)
        want.append(-float(np.cov(x, qs[:, c], ddof=0)[0, 1] / float(np.var(x))))
    assert pop.n_countries * DELTA_PROBES > BLOCK_ROWS
    assert estimate_delta(mechanism, pop, 9).delta_hat.tobytes() == np.array(want).tobytes()


def test_single_country_design_degenerate():
    pop = generate_population(seed=5, n_countries=1, total_citizens=20)
    with pytest.raises(DegenerateDesign):
        estimate_delta("vcg", pop, seed=0)


def test_dictator_plug_in_mean():
    pop = Population(
        sizes=(2,),
        a=np.array([0.5, 0.5]),
        b=np.array([1.0, 1.0]),
        d=np.array([0.1, 0.3]),
    )
    est = estimate_delta("dictator", pop, seed=0)
    assert est.method == "plug_in"
    assert est.delta_hat[0] == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# Network forward


def test_forward_zero_weights_gives_zero():
    net = OmegaNetwork.init(6, 2, hidden=(4,), seed=0)
    for w in net.weights:
        w[:] = 0.0
    out = forward(net, np.full(6, 0.05))
    assert np.allclose(out, 0.0)


def test_forward_linear_single_layer_hand_check():
    net = OmegaNetwork((3, 1), dtype=np.float64)
    net.weights[0][:, 0] = [1.0, 2.0, -1.0]
    net.biases[0][:] = 0.5
    lam = np.array([0.01, 0.02, 0.03])
    # input scaling x = 10 * lambda, single affine layer
    want = 0.1 * 1 + 0.2 * 2 + 0.3 * (-1) + 0.5
    assert forward(net, lam)[0] == pytest.approx(want, abs=1e-12)


def test_forward_shape_mismatch():
    net = OmegaNetwork.init(6, 2, hidden=(4,), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_ne_q_hat_matches_closed_form():
    rng = np.random.default_rng(0)
    alpha = rng.uniform(0.5, 15.0, size=(4, 3))
    delta = rng.uniform(0.0, 1.0, size=3)
    got = ne_q_hat(alpha, delta)
    for j in range(4):
        # one citizen per country with b = 1 makes vcg's ratios alpha and delta
        pop = Population(sizes=(1, 1, 1), a=alpha[j], b=np.ones(3), d=delta)
        want, _ = vcg_block(pop, np.zeros((1, 3)))
        assert np.allclose(got[j], want[0], atol=1e-12)


# ---------------------------------------------------------------------------
# Loss and gradients


def test_perfect_predictions_zero_loss_and_gradient():
    net = OmegaNetwork.init(4, 2, hidden=(3,), seed=1)
    lam = np.zeros((3, 4))
    delta = np.array([0.2, 0.1])
    alpha = forward(net, lam)
    q = ne_q_hat(alpha, delta)
    loss, grad = loss_and_gradient(net, lam, q, delta)
    gw, gb = net.layers(grad)
    assert loss == pytest.approx(0.0, abs=1e-20)
    assert all(np.allclose(g, 0.0) for g in gw + gb)


def _numeric_gradient(net, lam, q, delta, h=1e-5):
    grads = []
    for p in net.weights + net.biases:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up, _ = loss_and_gradient(net, lam, q, delta)
            p[idx] = orig - h
            dn, _ = loss_and_gradient(net, lam, q, delta)
            p[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def _random_small_config(seed):
    """A width-4 toy network and batch, re-sampled until every rectifier
    pre-activation sits safely away from its kink."""
    rng = np.random.default_rng(seed)
    while True:
        n_in = int(rng.integers(3, 7))
        n_out = int(rng.integers(2, 4))
        net = OmegaNetwork((n_in, 4, n_out), dtype=np.float64)
        net.params[:] = OmegaNetwork.init(n_in, n_out, hidden=(4,), seed=rng.integers(2**31)).params
        for w in net.weights:
            w += rng.normal(0, 0.3, size=w.shape)
        for b in net.biases:
            b += rng.normal(0, 0.3, size=b.shape)
        lam = rng.uniform(0, 0.1, size=(int(rng.integers(2, 5)), n_in))
        delta = rng.uniform(0.0, 1.0, size=n_out)
        q = rng.normal(0, 1.0, size=(lam.shape[0], n_out))
        _, pre, _ = net.forward_cached(lam)
        if all(np.min(np.abs(z)) > 1e-3 for z in pre[:-1]):
            return net, lam, q, delta


def test_gradient_matches_central_differences_50_configs():
    worst = 0.0
    for seed in range(50):
        net, lam, q, delta = _random_small_config(seed)
        _, grad = loss_and_gradient(net, lam, q, delta)
        gw, gb = net.layers(grad)
        numeric = _numeric_gradient(net, lam, q, delta)
        analytic = gw + gb
        num_flat = np.concatenate([g.ravel() for g in numeric])
        ana_flat = np.concatenate([g.ravel() for g in analytic])
        rel = np.linalg.norm(ana_flat - num_flat) / max(np.linalg.norm(num_flat), 1e-10)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_gradient_single_country_hand_derivation():
    # with one country and delta = 0, q_hat = alpha / 2, so
    # dL/dw = (alpha/2 - q) * dalpha/dw  (batch of one)
    net = OmegaNetwork.init(2, 1, hidden=(), seed=3)
    lam = np.array([[0.02, 0.05]])
    q = np.array([[1.2]])
    delta = np.zeros(1)
    alpha = forward(net, lam)
    loss, grad = loss_and_gradient(net, lam, q, delta)
    gw, gb = net.layers(grad)
    resid = float(alpha[0, 0] / 2.0 - q[0, 0])
    assert loss == pytest.approx(resid**2, abs=1e-12)
    # dalpha/dw_i = 10 * lam_i, dalpha/db = 1
    want_w = resid * (10.0 * lam[0])
    assert np.allclose(gw[0].ravel(), want_w, atol=1e-12)
    assert gb[0][0] == pytest.approx(resid, abs=1e-12)


def test_successive_gradients_are_not_aliased():
    net, lam, q, delta = _random_small_config(0)
    _, first = loss_and_gradient(net, lam, q, delta)
    kept = first.copy()
    _, second = loss_and_gradient(net, lam[:1], q[:1] + 1.0, delta)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def _adam_steps(net, state, steps, seed=3):
    """``steps`` flat Adam steps on ``net`` with random gradients in the
    state's dtype; yields each step's t and per-layer gradients before
    taking the step."""
    rng = np.random.default_rng(seed)
    for t in range(1, steps + 1):
        grad = rng.normal(0.0, 1.0, size=net.params.size) * rng.uniform(0.0, 2.0)
        grad = grad.astype(state.dtype)
        gw, gb = net.layers(grad)
        yield t, gw + gb
        adam_step(net.params, grad, state, TrainConfig(), t)


def test_adam_step_matches_kingma_ba_in_float64():
    # the textbook step on unscaled moments, to rounding over 200 steps
    lr = TrainConfig().learning_rate
    narrow = OmegaNetwork.init(7, 3, hidden=(5, 4), seed=2)
    net = OmegaNetwork(narrow.widths, dtype=np.float64)
    net.params[:] = narrow.params
    ref = [p.copy() for p in net.weights + net.biases]
    m_ref = [np.zeros_like(p) for p in ref]
    v_ref = [np.zeros_like(p) for p in ref]
    state = np.zeros((4, net.params.size))
    for t, grads in _adam_steps(net, state, 200):
        for i, (p, g) in enumerate(zip(ref, grads)):
            m_ref[i] = ADAM_BETA1 * m_ref[i] + (1 - ADAM_BETA1) * g
            v_ref[i] = ADAM_BETA2 * v_ref[i] + (1 - ADAM_BETA2) * (g * g)
            m_hat = m_ref[i] / (1 - ADAM_BETA1**t)
            v_hat = v_ref[i] / (1 - ADAM_BETA2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    for p, r in zip(net.weights + net.biases, ref):
        np.testing.assert_allclose(p, r, rtol=1e-12, atol=0.0)
    for moment, refs, beta in zip(state[:2], (m_ref, v_ref), (ADAM_BETA1, ADAM_BETA2)):
        weights, biases = net.layers(moment)
        for m, r in zip(weights + biases, refs):
            np.testing.assert_allclose(m * (1 - beta), r, rtol=1e-12, atol=0.0)


def test_adam_step_with_float32_state_matches_per_layer_reference():
    # the pairing train runs: float32 params, gradient and Adam state, beside
    # a per-array reference in adam_step's order of operations, byte for byte
    net = OmegaNetwork.init(7, 3, hidden=(5, 4), seed=2)
    ref = [p.copy() for p in net.weights + net.biases]
    m_ref = [np.zeros_like(p) for p in ref]
    v_ref = [np.zeros_like(p) for p in ref]
    state = np.zeros((4, net.params.size), dtype=np.float32)
    for t, grads in _adam_steps(net, state, 100):
        k = ((1 - ADAM_BETA2) / (1 - ADAM_BETA2**t)) ** 0.5
        rate = TrainConfig().learning_rate * (1 - ADAM_BETA1) / (1 - ADAM_BETA1**t) / k
        for i, (p, g) in enumerate(zip(ref, grads)):
            m_ref[i] = m_ref[i] * np.float32(ADAM_BETA1) + g
            v_ref[i] = v_ref[i] * np.float32(ADAM_BETA2) + g * g
            p -= m_ref[i] * np.float32(rate) / (np.sqrt(v_ref[i]) + np.float32(ADAM_EPS / k))
    assert all(p.tobytes() == r.tobytes() for p, r in zip(net.weights + net.biases, ref))
    for moment, moment_ref in ((state[0], m_ref), (state[1], v_ref)):
        weights, biases = net.layers(moment)
        for m, r in zip(weights + biases, moment_ref):
            assert m.dtype == r.dtype == np.float32 and m.tobytes() == r.tobytes()


def test_adam_step_blocks_are_exact(monkeypatch):
    size = 5 * surrogate._ADAM_BLOCK // 2
    rng = np.random.default_rng(5)
    start = rng.normal(0.0, 1.0, size).astype(np.float32)
    grads = rng.normal(0.0, 1.0, (3, size)).astype(np.float32)

    def run():
        params, state = start.copy(), np.zeros((4, size), dtype=np.float32)
        for t, grad in enumerate(grads, 1):
            adam_step(params, grad, state, TrainConfig(), t)
        return params.tobytes() + state[:2].tobytes()

    blocked = run()
    monkeypatch.setattr(surrogate, "_ADAM_BLOCK", size + 1)
    assert run() == blocked


def test_float32_interior_float64_boundaries():
    net = OmegaNetwork.init(6, 3, hidden=(16, 16), seed=4)
    wide = OmegaNetwork(net.widths, dtype=np.float64)
    wide.params[:] = net.params
    rng = np.random.default_rng(4)
    lam = rng.uniform(0.0, 0.1, size=(8, 6))
    q = rng.normal(0.0, 1.0, size=(8, 3))
    delta = rng.uniform(0.0, 1.0, size=3)
    assert net.params.dtype == np.float32
    assert forward(net, lam).dtype == np.float64 and forward(net, lam[0]).dtype == np.float64
    loss, grad = loss_and_gradient(net, lam, q, delta)
    wide_loss, wide_grad = loss_and_gradient(wide, lam, q, delta)
    assert type(loss) is float and grad.dtype == np.float32
    assert loss == pytest.approx(wide_loss, rel=1e-5)
    assert np.linalg.norm(grad - wide_grad) <= 1e-4 * np.linalg.norm(wide_grad)


def _train_killing_a_unit(monkeypatch, flush: bool):
    """1200 Adam steps of a width-8 network whose busiest hidden unit at step
    50 is then made dead (bias -100), so its moments decay towards zero;
    returns (trained params, Adam state)."""
    pop = tiny_population()
    widths = (pop.total, 8, pop.n_countries)
    init = OmegaNetwork.init
    monkeypatch.setattr(OmegaNetwork, "init", staticmethod(lambda *a, **k: init(*a, hidden=(8,), **k)))
    state = []

    def stepping(params, grad, adam, cfg, t):
        adam_step(params, grad, adam, cfg, t)
        if t == 50:
            unit = int(np.argmax(np.abs(OmegaNetwork(widths).layers(adam[0])[1][0])))
            OmegaNetwork(widths).layers(params)[1][0][unit] = -100.0
        state[:] = [adam]

    monkeypatch.setattr(surrogate, "adam_step", stepping)
    if not flush:
        monkeypatch.setattr(surrogate, "_flush_subnormal", lambda adam: None)
    _, res = fit(pop, "vcg", TrainConfig(n_train=48, epochs=400, batch_size=16, seed=1))
    return res.net.params, state[0]


def test_subnormal_flush_zeroes_moments_and_leaves_params_unchanged(monkeypatch):
    tiny = np.finfo(np.float32).tiny
    with monkeypatch.context() as patch:
        params, state = _train_killing_a_unit(patch, flush=True)
    with monkeypatch.context() as patch:
        kept_params, kept_state = _train_killing_a_unit(patch, flush=False)
    assert params.dtype == state.dtype == np.float32
    moments, kept_moments = np.abs(state[:2]), np.abs(kept_state[:2])
    assert not np.any((moments > 0) & (moments < tiny))
    assert np.any((kept_moments > 0) & (kept_moments < tiny))
    assert params.tobytes() == kept_params.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_non_finite_detected():
    net = OmegaNetwork.init(3, 2, hidden=(3,), seed=0)
    net.weights[0][0, 0] = np.inf
    with pytest.raises(NonFinite):
        loss_and_gradient(net, np.full((2, 3), 0.05), np.zeros((2, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# Training loop (small scale) and evaluation plumbing


def small_cfg(seed=0):
    return TrainConfig(n_train=48, n_test=16, epochs=8, batch_size=16, seed=seed)


def fit(pop, mechanism, cfg):
    """Delta estimate and training data from the first two children of the
    config seed, then the trained network: (delta, TrainResult)."""
    delta_seed, data_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    delta = estimate_delta(mechanism, pop, delta_seed)
    train_set = make_dataset(mechanism, pop, cfg.n_train, data_seed)
    return delta, train(pop, mechanism, cfg, train_set=train_set, delta=delta)


def test_training_curve_finite_and_decreasing():
    pop = tiny_population()
    _, res = fit(pop, "vcg", small_cfg())
    assert np.all(np.isfinite(res.curve))
    assert res.curve[-1] < res.curve[0]


def test_training_deterministic():
    pop = tiny_population()
    d1, r1 = fit(pop, "vcg", small_cfg(seed=7))
    d2, r2 = fit(pop, "vcg", small_cfg(seed=7))
    assert d1.delta_hat.tobytes() == d2.delta_hat.tobytes()
    assert abs(r1.curve[-1] - r2.curve[-1]) <= 1e-12
    assert all(
        np.array_equal(w1, w2) for w1, w2 in zip(r1.net.weights, r2.net.weights)
    )


def test_model_mae_matches_forward_and_closed_form():
    pop = tiny_population()
    test_set = make_dataset("vcg", pop, 12, np.random.SeedSequence(5))
    delta, res = fit(pop, "vcg", small_cfg())
    alpha = forward(res.net, np.stack([iv.lam for iv in test_set.interventions]))
    d = delta.delta_hat
    q_hat = alpha / 2.0 - d * alpha.sum(axis=1, keepdims=True) / (2.0 * (1.0 + d.sum()))
    want = float(np.abs(q_hat - test_set.q).mean(axis=0).sum())
    got = evaluate(res.net, delta, pop, "vcg", test_set).model_mae
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_baseline_independent_of_network():
    pop = tiny_population()
    test_set = make_dataset("vcg", pop, 12, np.random.SeedSequence(5))
    delta, res = fit(pop, "vcg", small_cfg())
    other = OmegaNetwork.init(pop.total, pop.n_countries, seed=99)
    r1 = evaluate(res.net, delta, pop, "vcg", test_set)
    r2 = evaluate(other, delta, pop, "vcg", test_set)
    assert r1.baseline_mae == r2.baseline_mae
    assert np.array_equal(r1.per_country_baseline_mae, r2.per_country_baseline_mae)


def test_dictator_floor_exceeds_deterministic_reach():
    pop = tiny_population(sizes=(5, 5, 5))
    test_set = make_dataset("dictator", pop, 10, np.random.SeedSequence(6))
    floor = stochastic_floor(pop, test_set, n_interventions=5, n_redraws=40, seed=0)
    assert floor > 0.0
    # A SeedSequence seed is accepted and draws the same stream as its int.
    assert stochastic_floor(
        pop, test_set, n_interventions=5, n_redraws=40, seed=np.random.SeedSequence(0)
    ) == floor
    delta, res = fit(pop, "dictator", small_cfg())
    rep = evaluate(res.net, delta, pop, "dictator", test_set, baseline_draws=500)
    assert rep.stochastic_floor is not None and rep.stochastic_floor > 0.0
    # a deterministic predictor cannot beat the draw dispersion
    assert rep.model_mae > 0.25 * rep.stochastic_floor


@pytest.mark.parametrize(
    "counts", [{"n_interventions": 0}, {"n_redraws": 0}, {"n_interventions": -1}]
)
def test_stochastic_floor_rejects_empty_counts(counts):
    pop = tiny_population()
    test_set = make_dataset("dictator", pop, 4, 0)
    with pytest.raises(ValueError, match="n_interventions and n_redraws"):
        stochastic_floor(pop, test_set, seed=0, **counts)


def test_stochastic_floor_rejects_empty_test_set():
    pop = tiny_population()
    empty = GroundTruthSet(interventions=(), q=np.zeros((0, pop.n_countries)))
    with pytest.raises(ValueError, match="no interventions"):
        stochastic_floor(pop, empty, seed=0)


def test_dictator_baseline_rejects_no_draws():
    # zero draws would average to a NaN baseline, which evaluate would
    # report as baseline_mae = nan
    pop = tiny_population()
    with pytest.raises(ValueError, match="n_draws"):
        dictator_baseline(pop, n_draws=0)
    test_set = make_dataset("dictator", pop, 4, 0)
    net = OmegaNetwork.init(pop.total, pop.n_countries, hidden=(4,), seed=0)
    delta = estimate_delta("dictator", pop, 0)
    with pytest.raises(ValueError, match="n_draws"):
        evaluate(net, delta, pop, "dictator", test_set, baseline_draws=0)


def test_dictator_baseline_deterministic():
    pop = tiny_population()
    b1 = dictator_baseline(pop, n_draws=100, seed=3)
    b2 = dictator_baseline(pop, n_draws=100, seed=3)
    assert np.array_equal(b1, b2)


def _stage_outputs(stage: str, seed) -> bytes:
    pop = tiny_population()
    if stage == "make_dataset":
        data = make_dataset("dictator", pop, 8, seed)
        return data.q.tobytes() + b"".join(iv.lam.tobytes() for iv in data.interventions)
    if stage == "estimate_delta":
        return estimate_delta("vcg", pop, seed).delta_hat.tobytes()
    if stage == "dictator_baseline":
        return dictator_baseline(pop, n_draws=50, seed=seed).tobytes()
    if stage == "stochastic_floor":
        test_set = make_dataset("dictator", pop, 4, 0)
        return np.float64(stochastic_floor(pop, test_set, 3, 10, seed=seed)).tobytes()
    train_set = make_dataset("dictator", pop, 16, 1)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=seed)
    delta = estimate_delta("dictator", pop, 0)
    return train(pop, "dictator", cfg, train_set=train_set, delta=delta).net.params.tobytes()


@pytest.mark.parametrize(
    "stage", ["make_dataset", "estimate_delta", "dictator_baseline", "stochastic_floor", "train"]
)
def test_a_seed_sequence_seeds_a_stage_without_being_spent(stage):
    # each stage draws from one default_rng(seed), which never spawns from a
    # SeedSequence, so passing the same one twice draws the same values
    seq = np.random.SeedSequence(4)
    assert _stage_outputs(stage, seq) == _stage_outputs(stage, seq)
    assert seq.n_children_spawned == 0


@pytest.mark.parametrize("learning_rate", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_a_learning_rate_not_positive_and_finite(learning_rate):
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        TrainConfig(learning_rate=learning_rate)


@pytest.mark.parametrize(
    "case", ["empty", "short-q", "q-columns", "delta-length", "other-population"]
)
def test_train_rejects_mismatched_shapes_before_the_first_step(case, monkeypatch):
    pop = tiny_population()
    data = make_dataset("vcg", pop, 4, 0)
    delta = estimate_delta("vcg", pop, 0)
    inputs = {
        "empty": (pop, GroundTruthSet((), np.zeros((0, pop.n_countries))), delta),
        "short-q": (pop, GroundTruthSet(data.interventions, data.q[:3]), delta),
        "q-columns": (pop, GroundTruthSet(data.interventions, data.q[:, :2]), delta),
        "delta-length": (pop, data, DeltaEstimate(delta.delta_hat[:2], "regression")),
        "other-population": (tiny_population(sizes=(3, 4, 4)), data, delta),
    }
    pop, data, delta = inputs[case]
    monkeypatch.setattr(surrogate, "adam_step", None)  # a step would raise TypeError
    with pytest.raises(ValueError, match=r"have shapes .*; training needs"):
        train(pop, "vcg", TrainConfig(epochs=1), train_set=data, delta=delta)


@pytest.mark.parametrize("case", ["empty", "short-q", "q-columns", "delta-length"])
def test_evaluate_rejects_mismatched_shapes_before_predicting(case, monkeypatch):
    pop = tiny_population()
    data = make_dataset("vcg", pop, 4, 0)
    delta = estimate_delta("vcg", pop, 0)
    net = OmegaNetwork.init(pop.total, pop.n_countries, hidden=(4,), seed=0)
    inputs = {
        "empty": (GroundTruthSet((), np.zeros((0, pop.n_countries))), delta),
        "short-q": (GroundTruthSet(data.interventions, data.q[:3]), delta),
        "q-columns": (GroundTruthSet(data.interventions, data.q[:, :2]), delta),
        "delta-length": (data, DeltaEstimate(delta.delta_hat[:2], "regression")),
    }
    data, delta = inputs[case]
    monkeypatch.setattr(surrogate, "forward", None)  # a prediction would raise TypeError
    with pytest.raises(ValueError, match=r"have shapes .*; evaluation needs"):
        evaluate(net, delta, pop, "vcg", data)


def test_train_config_rejects_a_count_below_one():
    with pytest.raises(ValueError, match="counts must be positive"):
        TrainConfig(epochs=0)


def test_unknown_mechanism_is_rejected():
    pop = tiny_population()
    train_set = make_dataset("vcg", pop, 4, 0)
    delta = estimate_delta("vcg", pop, 0)
    net = OmegaNetwork.init(pop.total, pop.n_countries, hidden=(4,), seed=0)
    calls = [
        lambda: make_dataset("plurality", pop, 4, 0),
        lambda: estimate_delta("plurality", pop, 0),
        lambda: train(pop, "plurality", TrainConfig(epochs=1), train_set=train_set, delta=delta),
        lambda: evaluate(net, delta, pop, "plurality", train_set),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown mechanism 'plurality'"):
            call()
