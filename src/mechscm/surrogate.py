"""The learned intervention mapping for the voting world.

Two-step construction: (1) per-country pollution-sensitivity ratios are
estimated by regressing a country's equilibrium level on the global total
across interventions that leave that country untouched (plug-in citizen
average for the stochastic dictator mechanism); (2) a fully connected network
maps the citizen-level intervention vector to per-country utility ratios,
trained by Adam through the differentiable closed-form equilibrium so that
predicted equilibria match ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from mechscm.abstraction import InterventionMapping, OmegaVar, PredicateDomain
from mechscm.core import Setting, mech
from mechscm.voting import (
    Intervention,
    Population,
    median_ne,
    random_dictator_ne,
    sample_interventions,
    vcg_country_params,
    vcg_ne,
    zero_on_country_interventions,
)

__all__ = [
    "NonFinite",
    "DegenerateDesign",
    "MECHANISMS",
    "TrainConfig",
    "DeltaEstimate",
    "OmegaNetwork",
    "GroundTruthSet",
    "solve_mechanism",
    "make_dataset",
    "estimate_delta",
    "forward",
    "ne_q_hat",
    "loss_and_gradient",
    "adam_step",
    "train",
    "TrainResult",
    "EvalReport",
    "evaluate",
    "dictator_baseline",
    "stochastic_floor",
    "omega_intervention_mapping",
]

MECHANISMS = ("vcg", "median", "dictator")
INPUT_SCALE = 10.0  # lambda in [0, 0.1] scaled to [0, 1]
HIDDEN_WIDTHS = (128, 256, 256, 128)


class NonFinite(ArithmeticError):
    """An activation, loss, or gradient stopped being finite."""


class DegenerateDesign(ValueError):
    """The regression design had (numerically) no variation."""


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """The seed as a SeedSequence.  A SeedSequence passed in is returned
    as is, so spawning from it advances the caller's own sequence."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


@dataclass(frozen=True)
class TrainConfig:
    n_train: int = 1000
    n_test: int = 500
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.epochs, self.batch_size) < 1:
            raise ValueError("counts must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class DeltaEstimate:
    delta_hat: np.ndarray
    method: str  # "regression" | "plug_in"
    slope_se: Optional[np.ndarray] = None
    fit_points: Optional[tuple] = None  # per country: (Q_W array, q_c array)


# ---------------------------------------------------------------------------
# Network


class OmegaNetwork:
    """Fully connected rectifier network from the citizen intervention vector
    to one utility-ratio output per country; weights Glorot-uniform, biases
    zero, all seeded."""

    def __init__(self, weights: list, biases: list):
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(
        cls,
        input_dim: int,
        output_dim: int,
        hidden: tuple = HIDDEN_WIDTHS,
        seed: int | np.random.SeedSequence = 0,
    ) -> "OmegaNetwork":
        rng = np.random.default_rng(seed)
        widths = [input_dim, *hidden, output_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def widths(self) -> tuple:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward_cached(self, lam: np.ndarray):
        """Returns (output, pre-activations per layer, activations per layer)
        for backpropagation; input is scaled internally."""
        x = np.atleast_2d(lam) * INPUT_SCALE
        activations = [x]
        pre = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = z if i == last else np.maximum(z, 0.0)
            activations.append(h)
        return h, pre, activations

    def backward(self, d_out: np.ndarray, pre: list, activations: list):
        """Gradients of the scalar loss w.r.t. every weight and bias, given
        the gradient at the (linear) output layer."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        for i in reversed(range(len(self.weights))):
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre[i - 1] > 0.0)
        return grads_w, grads_b


def forward(net: OmegaNetwork, lam: np.ndarray | Intervention) -> np.ndarray:
    """Per-country ratio estimates for one intervention vector (or a batch)."""
    if isinstance(lam, Intervention):
        lam = lam.lam
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 1 and lam.shape[0] != net.widths[0]:
        raise ValueError(
            f"input length {lam.shape[0]} does not match network input {net.widths[0]}"
        )
    out, _, _ = net.forward_cached(lam)
    return out[0] if lam.ndim == 1 else out


# ---------------------------------------------------------------------------
# Differentiable equilibrium layer


def ne_q_hat(alpha: np.ndarray, delta_hat: np.ndarray) -> np.ndarray:
    """Closed-form equilibrium levels for a batch of ratio vectors."""
    alpha = np.atleast_2d(alpha)
    gain = 0.5 / (1.0 + float(delta_hat.sum()))
    total = gain * alpha.sum(axis=1, keepdims=True)
    return alpha / 2.0 - delta_hat[None, :] * total


def loss_and_gradient(
    net: OmegaNetwork,
    lam_batch: np.ndarray,
    q_batch: np.ndarray,
    delta_hat: np.ndarray,
):
    """Mean (over the batch) of the squared equilibrium error summed across
    countries, and its gradients via reverse accumulation through both the
    equilibrium formula and the network."""
    out, pre, activations = net.forward_cached(lam_batch)
    gain = 0.5 / (1.0 + float(delta_hat.sum()))
    with np.errstate(invalid="ignore", over="ignore"):
        total = gain * out.sum(axis=1, keepdims=True)
        q_hat = out / 2.0 - delta_hat[None, :] * total
        err = q_hat - q_batch
        batch = lam_batch.shape[0]
        loss = float((err**2).sum() / batch)
    if not np.isfinite(loss):
        raise NonFinite("loss is not finite")

    d_q = 2.0 * err / batch
    # dq_c/dalpha_k = 1{c=k}/2 - delta_c * gain
    d_alpha = 0.5 * d_q - gain * (d_q @ delta_hat)[:, None]
    grads_w, grads_b = net.backward(d_alpha, pre, activations)
    for g in grads_w + grads_b:
        if not np.all(np.isfinite(g)):
            raise NonFinite("gradient is not finite")
    return loss, (grads_w, grads_b)


def adam_step(net, m_state, v_state, grads_w, grads_b, cfg: TrainConfig, t: int):
    params = net.weights + net.biases
    grads = grads_w + grads_b
    for i, (p, g) in enumerate(zip(params, grads)):
        m_state[i] = cfg.beta1 * m_state[i] + (1 - cfg.beta1) * g
        v_state[i] = cfg.beta2 * v_state[i] + (1 - cfg.beta2) * (g * g)
        m_hat = m_state[i] / (1 - cfg.beta1**t)
        v_hat = v_state[i] / (1 - cfg.beta2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


# ---------------------------------------------------------------------------
# Ground truth


@dataclass(frozen=True)
class GroundTruthSet:
    interventions: tuple
    q: np.ndarray  # (n, C)


def solve_mechanism(
    mechanism: str,
    pop: Population,
    iv: Intervention,
    *,
    dictator_seed=None,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
):
    if mechanism == "vcg":
        return vcg_ne(pop, iv)
    if mechanism == "median":
        return median_ne(pop, iv, damping=damping, tol=tol, max_iter=max_iter)
    if mechanism == "dictator":
        return random_dictator_ne(pop, iv, seed=dictator_seed)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def make_dataset(
    mechanism: str,
    pop: Population,
    n: int,
    seed: int | np.random.SeedSequence,
    *,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> GroundTruthSet:
    """Sampled interventions plus their ground-truth equilibria.  The
    stochastic dictator mechanism draws fresh seeded dictators per
    intervention."""
    iv_seed, draw_seed = _seed_sequence(seed).spawn(2)
    ivs = sample_interventions(pop, iv_seed, n)
    rows = [
        solve_mechanism(
            mechanism,
            pop,
            iv,
            dictator_seed=child,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
        ).q
        for iv, child in zip(ivs, draw_seed.spawn(n))
    ]
    return GroundTruthSet(interventions=tuple(ivs), q=np.stack(rows))


# ---------------------------------------------------------------------------
# Step 1: delta estimation


def estimate_delta(
    mechanism: str,
    pop: Population,
    seed: int | np.random.SeedSequence,
    *,
    n_per_country: int = 10,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> DeltaEstimate:
    """Regression of q_c on Q_W over interventions sparing country c (the
    equilibrium line has slope -delta_c); the dictator mechanism instead
    plugs in the citizen average of d/b."""
    if mechanism == "dictator":
        delta = np.array(
            [
                float(np.mean(pop.d[pop.country_slice(c)] / pop.b[pop.country_slice(c)]))
                for c in range(pop.n_countries)
            ]
        )
        return DeltaEstimate(delta_hat=delta, method="plug_in")

    children = _seed_sequence(seed).spawn(pop.n_countries)
    delta = np.empty(pop.n_countries)
    ses = np.empty(pop.n_countries)
    points = []
    for c in range(pop.n_countries):
        ivs = zero_on_country_interventions(pop, c, children[c], n=n_per_country)
        qs = np.array(
            [
                solve_mechanism(
                    mechanism, pop, iv, damping=damping, tol=tol, max_iter=max_iter
                ).q
                for iv in ivs
            ]
        )
        x = qs.sum(axis=1)
        y = qs[:, c]
        x_var = float(np.var(x))
        if x_var < 1e-12:
            raise DegenerateDesign(
                f"Q_W variance {x_var:.3g} across probe interventions for country {c}"
            )
        slope = float(np.cov(x, y, ddof=0)[0, 1] / x_var)
        delta[c] = -slope
        resid = y - (y.mean() + slope * (x - x.mean()))
        dof = max(len(x) - 2, 1)
        ses[c] = float(np.sqrt(resid @ resid / dof / (len(x) * x_var)))
        points.append((x, y))
    return DeltaEstimate(
        delta_hat=delta, method="regression", slope_se=ses, fit_points=tuple(points)
    )


# ---------------------------------------------------------------------------
# Step 2: training


@dataclass
class TrainResult:
    net: OmegaNetwork
    delta: DeltaEstimate
    curve: np.ndarray  # per-epoch mean per-sample loss
    train_set: GroundTruthSet


def train(
    pop: Population,
    mechanism: str,
    cfg: TrainConfig = TrainConfig(),
    *,
    train_set: Optional[GroundTruthSet] = None,
    delta: Optional[DeltaEstimate] = None,
    damping: float = 0.3,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> TrainResult:
    """Estimate delta, generate (or accept) ground truth, then minibatch Adam
    for the configured epochs with per-epoch seeded shuffling."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    ss = np.random.SeedSequence(cfg.seed)
    delta_seed, data_seed, init_seed, warm_seed, shuffle_seed = ss.spawn(5)
    if delta is None:
        delta = estimate_delta(
            mechanism, pop, delta_seed, damping=damping, tol=tol, max_iter=max_iter
        )
    if train_set is None:
        train_set = make_dataset(
            mechanism,
            pop,
            cfg.n_train,
            data_seed,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
        )

    lam_all = np.stack([iv.lam for iv in train_set.interventions])
    q_all = train_set.q
    net = OmegaNetwork.init(pop.total, pop.n_countries, seed=init_seed)
    # Center the output at the un-intervened ratios by inverting the
    # equilibrium map at lambda = 0; the epoch budget then goes entirely to
    # learning the intervention response rather than climbing to the mean.
    if mechanism == "dictator":
        q0 = dictator_baseline(pop, n_draws=200, seed=warm_seed)
    else:
        q0 = solve_mechanism(
            mechanism, pop, Intervention.zero(pop), damping=damping, tol=tol, max_iter=max_iter
        ).q
    net.biases[-1][:] = 2.0 * (q0 + delta.delta_hat * float(q0.sum()))
    params = net.weights + net.biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    shuffle_rng = np.random.default_rng(shuffle_seed)

    curve = np.empty(cfg.epochs)
    t = 0
    n = lam_all.shape[0]
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            t += 1
            try:
                loss, (gw, gb) = loss_and_gradient(net, lam_all[idx], q_all[idx], delta.delta_hat)
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}: {exc}") from exc
            adam_step(net, m_state, v_state, gw, gb, cfg, t)
            epoch_loss += loss * len(idx)
        curve[epoch] = epoch_loss / n
    return TrainResult(net=net, delta=delta, curve=curve, train_set=train_set)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class EvalReport:
    mechanism: str
    n_test: int
    model_mae: float
    baseline_mae: float
    per_country_mae: np.ndarray
    per_country_baseline_mae: np.ndarray
    mae_delta: Optional[np.ndarray] = None
    mae_alpha: Optional[np.ndarray] = None
    stochastic_floor: Optional[float] = None

    @property
    def improvement(self) -> float:
        return 1.0 - self.model_mae / self.baseline_mae

    def to_dict(self) -> dict:
        out = {
            "mechanism": self.mechanism,
            "n_test": self.n_test,
            "model_mae": self.model_mae,
            "baseline_mae": self.baseline_mae,
            "improvement": self.improvement,
            "per_country_mae": [float(x) for x in self.per_country_mae],
            "per_country_baseline_mae": [float(x) for x in self.per_country_baseline_mae],
        }
        if self.mae_delta is not None:
            out["mae_delta"] = [float(x) for x in self.mae_delta]
        if self.mae_alpha is not None:
            out["mae_alpha"] = [float(x) for x in self.mae_alpha]
        if self.stochastic_floor is not None:
            out["stochastic_floor"] = self.stochastic_floor
        return out


def dictator_baseline(
    pop: Population, n_draws: int = 10_000, seed: int | np.random.SeedSequence = 0
) -> np.ndarray:
    """Average un-intervened equilibrium over seeded dictator redraws."""
    zero = Intervention.zero(pop)
    children = _seed_sequence(seed).spawn(n_draws)
    acc = np.zeros(pop.n_countries)
    for child in children:
        acc += random_dictator_ne(pop, zero, seed=child).q
    return acc / n_draws


def stochastic_floor(
    pop: Population,
    test_set: GroundTruthSet,
    n_interventions: int = 20,
    n_redraws: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Outcome dispersion inherent to the dictator draw: the mean (over
    interventions) of the per-country mean absolute deviation of the
    equilibrium across redraws, summed over countries.  A deterministic
    predictor's expected error cannot fall below this level."""
    children = _seed_sequence(seed).spawn(n_interventions * n_redraws)
    total = 0.0
    for j in range(n_interventions):
        iv = test_set.interventions[j % len(test_set.interventions)]
        qs = np.stack(
            [
                random_dictator_ne(pop, iv, seed=children[j * n_redraws + k]).q
                for k in range(n_redraws)
            ]
        )
        total += float(np.abs(qs - qs.mean(axis=0)).mean(axis=0).sum())
    return total / n_interventions


def evaluate(
    net: OmegaNetwork,
    delta: DeltaEstimate,
    pop: Population,
    mechanism: str,
    test_set: GroundTruthSet,
    *,
    baseline_seed: int = 0,
    baseline_draws: int = 10_000,
    floor_seed: int = 0,
) -> EvalReport:
    """Mean absolute error of predicted equilibria summed across countries
    and averaged over the test set, against the constant un-intervened
    baseline (dictator-draw averaged for the stochastic mechanism)."""
    lam = np.stack([iv.lam for iv in test_set.interventions])
    alpha_hat = forward(net, lam)
    q_hat = ne_q_hat(alpha_hat, delta.delta_hat)
    abs_err = np.abs(q_hat - test_set.q)
    per_country = abs_err.mean(axis=0)
    model_mae = float(per_country.sum())

    if mechanism == "dictator":
        q0 = dictator_baseline(pop, n_draws=baseline_draws, seed=baseline_seed)
    else:
        q0 = solve_mechanism(mechanism, pop, Intervention.zero(pop)).q
    base_err = np.abs(q0[None, :] - test_set.q)
    per_country_base = base_err.mean(axis=0)
    baseline_mae = float(per_country_base.sum())

    mae_delta = mae_alpha = None
    if mechanism == "vcg":
        zero_params = vcg_country_params(pop, Intervention.zero(pop))
        true_delta = zero_params.delta
        mae_delta = np.abs(delta.delta_hat - true_delta)
        alphas_true = np.stack(
            [vcg_country_params(pop, iv).alpha for iv in test_set.interventions]
        )
        mae_alpha = np.abs(alpha_hat - alphas_true).mean(axis=0)

    floor = None
    if mechanism == "dictator":
        floor = stochastic_floor(pop, test_set, seed=floor_seed)

    return EvalReport(
        mechanism=mechanism,
        n_test=len(test_set.interventions),
        model_mae=model_mae,
        baseline_mae=baseline_mae,
        per_country_mae=per_country,
        per_country_baseline_mae=per_country_base,
        mae_delta=mae_delta,
        mae_alpha=mae_alpha,
        stochastic_floor=floor,
    )


# ---------------------------------------------------------------------------
# The learned mapping as an intervention mapping


def omega_intervention_mapping(pop: Population, net: OmegaNetwork, delta: DeltaEstimate):
    """Package the trained network plus fixed delta estimates as a partial
    intervention mapping from the per-citizen preference mechanisms to the
    single country-level utility-parameter mechanism."""
    citizen_vars = tuple(
        mech(f"u_c{c}_i{i}")
        for c in range(pop.n_countries)
        for i in range(pop.sizes[c])
    )
    high_var = mech("U*")

    def fn(setting: Setting):
        lam = np.array([setting[v] for v in citizen_vars])
        alpha_hat = forward(net, lam)
        return (tuple(float(x) for x in alpha_hat), tuple(float(x) for x in delta.delta_hat))

    def predicate(setting: Setting) -> bool:
        try:
            lam = np.array([setting[v] for v in citizen_vars])
        except KeyError:
            return False
        return bool(np.all(lam >= 0.0) and np.all(lam <= 0.1 + 1e-12))

    def sampler(rng):
        lam = rng.uniform(0.0, 0.1, size=pop.total)
        return Setting(dict(zip(citizen_vars, lam.tolist())))

    omega_var = OmegaVar(
        high_var=high_var,
        low_vars=citizen_vars,
        fn=fn,
        defined=PredicateDomain(predicate, sampler),
    )
    return InterventionMapping({high_var: omega_var})
