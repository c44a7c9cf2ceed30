"""The learned intervention mapping for the voting world.

Two-step construction: (1) per-country pollution-sensitivity ratios are
estimated by regressing a country's equilibrium level on the global total
across interventions that leave that country untouched (plug-in citizen
average for the stochastic dictator mechanism); (2) a fully connected network
maps the citizen-level intervention vector to per-country utility ratios,
trained by Adam through the differentiable closed-form equilibrium so that
predicted equilibria match ground truth.

Every weight and bias of ``OmegaNetwork`` is a view into one float64 vector
``params`` (per layer: weights row-major, then biases); gradients share the
layout, so ``adam_step`` updates whole vectors in place.  Ground truth is
solved ``voting.BLOCK_ROWS`` interventions at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from mechscm.voting import (
    Intervention,
    Population,
    dictator_block,
    intervention_blocks,
    median_block,
    median_ne,  # noqa: F401  (perfbench's tracer expects it in this namespace)
    sample_interventions,
    vcg_block,
    vcg_params_block,
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
]

MECHANISMS = ("vcg", "median", "dictator")
INPUT_SCALE = 10.0  # lambda in [0, 0.1] scaled to [0, 1]
HIDDEN_WIDTHS = (128, 256, 256, 128)
DELTA_PROBES = 10  # interventions sparing a country, per delta regression


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
    zero, all seeded.  ``weights`` and ``biases`` are views into ``params``."""

    def __init__(self, widths: tuple):
        self.widths = tuple(widths)
        self.params = np.zeros(sum(i * o + o for i, o in zip(self.widths[:-1], self.widths[1:])))
        self.weights, self.biases = self.layers(self.params)

    def layers(self, flat: np.ndarray) -> tuple:
        """Per-layer weight and bias views into a vector laid out like
        ``params``."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(flat[start : start + fan_out])
            start += fan_out
        return weights, biases

    @classmethod
    def init(
        cls,
        input_dim: int,
        output_dim: int,
        hidden: tuple = HIDDEN_WIDTHS,
        seed: int | np.random.SeedSequence = 0,
    ) -> "OmegaNetwork":
        rng = np.random.default_rng(seed)
        net = cls((input_dim, *hidden, output_dim))
        for w in net.weights:
            limit = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
            w[:] = rng.uniform(-limit, limit, size=w.shape)
        return net

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

    def backward(self, d_out: np.ndarray, pre: list, activations: list) -> np.ndarray:
        """Gradient of the scalar loss w.r.t. ``params``, as a new vector in
        the same layout, given the gradient at the (linear) output layer."""
        grad = np.empty_like(self.params)
        grads_w, grads_b = self.layers(grad)
        delta = d_out
        for i in reversed(range(len(self.weights))):
            np.matmul(activations[i].T, delta, out=grads_w[i])
            delta.sum(axis=0, out=grads_b[i])
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre[i - 1] > 0.0)
        return grad


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
    countries, and its gradient w.r.t. ``net.params`` (a new vector per call)
    via reverse accumulation through both the equilibrium formula and the
    network."""
    out, pre, activations = net.forward_cached(lam_batch)
    with np.errstate(invalid="ignore", over="ignore"):
        err = ne_q_hat(out, delta_hat) - q_batch
        batch = lam_batch.shape[0]
        loss = float((err**2).sum() / batch)
    if not np.isfinite(loss):
        raise NonFinite("loss is not finite")

    d_q = 2.0 * err / batch
    # dq_c/dalpha_k = 1{c=k}/2 - delta_c * gain
    gain = 0.5 / (1.0 + float(delta_hat.sum()))
    d_alpha = 0.5 * d_q - gain * (d_q @ delta_hat)[:, None]
    grad = net.backward(d_alpha, pre, activations)
    if not np.isfinite(grad).all():
        raise NonFinite("gradient is not finite")
    return loss, grad


def adam_step(params: np.ndarray, grad: np.ndarray, state: np.ndarray, cfg: TrainConfig, t: int):
    """In-place Adam step t on ``params``; ``state`` rows are the first and
    second moments and two scratch rows.  Operation order is that of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)."""
    m, v, s, u = state
    m *= cfg.beta1
    np.multiply(grad, 1 - cfg.beta1, out=s)
    m += s
    v *= cfg.beta2
    np.multiply(grad, grad, out=s)
    s *= 1 - cfg.beta2
    v += s
    np.divide(m, 1 - cfg.beta1**t, out=s)
    np.divide(v, 1 - cfg.beta2**t, out=u)
    np.sqrt(u, out=u)
    u += cfg.eps
    s *= cfg.learning_rate
    s /= u
    params -= s


# ---------------------------------------------------------------------------
# Ground truth


@dataclass(frozen=True)
class GroundTruthSet:
    interventions: tuple
    q: np.ndarray  # (n, C)
    iterations: Optional[np.ndarray] = None  # median only: per-row iterations
    step_norms: Optional[np.ndarray] = None  # median only: per-row final step 2-norm


def _solve_rows(mechanism: str, pop: Population, interventions, seeds=None) -> tuple:
    """Levels (n, C), solved ``BLOCK_ROWS`` rows at a time, then for median
    each row's iteration count and final step norm; dictator row j draws from
    ``seeds[j]``."""
    parts = []
    for rows, lam in intervention_blocks(interventions):
        if mechanism == "vcg":
            parts.append(vcg_block(pop, lam)[:1])
        elif mechanism == "median":
            parts.append(median_block(pop, lam))
        elif mechanism == "dictator":
            parts.append(dictator_block(pop, lam, seeds[rows])[:1])
        else:
            raise ValueError(f"unknown mechanism {mechanism!r}")
    return tuple(map(np.concatenate, zip(*parts)))


def make_dataset(
    mechanism: str,
    pop: Population,
    n: int,
    seed: int | np.random.SeedSequence,
) -> GroundTruthSet:
    """Sampled interventions plus their ground-truth equilibria.  The
    stochastic dictator mechanism draws fresh seeded dictators per
    intervention."""
    iv_seed, draw_seed = _seed_sequence(seed).spawn(2)
    ivs = sample_interventions(pop, iv_seed, n)
    return GroundTruthSet(tuple(ivs), *_solve_rows(mechanism, pop, ivs, draw_seed.spawn(n)))


# ---------------------------------------------------------------------------
# Step 1: delta estimation


def estimate_delta(
    mechanism: str,
    pop: Population,
    seed: int | np.random.SeedSequence,
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
        ivs = zero_on_country_interventions(pop, c, children[c], n=DELTA_PROBES)
        qs = _solve_rows(mechanism, pop, ivs)[0]
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
    curve: np.ndarray  # per-epoch mean per-sample loss


def train(
    pop: Population,
    mechanism: str,
    cfg: TrainConfig = TrainConfig(),
    *,
    train_set: GroundTruthSet,
    delta: DeltaEstimate,
) -> TrainResult:
    """Fit the network to the given ground truth through the equilibrium
    layer at the given delta estimate: output bias warm-started at the
    un-intervened ratios, then minibatch Adam for the configured epochs with
    per-epoch seeded shuffling."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    # Children 0 and 1 seeded the delta estimate and the training data when
    # train drew them itself; skipping them keeps every trained network
    # bit-identical to those runs.
    init_seed, warm_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(5)[2:]

    lam_all = np.stack([iv.lam for iv in train_set.interventions])
    q_all = train_set.q
    net = OmegaNetwork.init(pop.total, pop.n_countries, seed=init_seed)
    # Center the output at the un-intervened ratios by inverting the
    # equilibrium map at lambda = 0; the epoch budget then goes entirely to
    # learning the intervention response rather than climbing to the mean.
    q0 = _unintervened(mechanism, pop, 200, warm_seed)
    net.biases[-1][:] = 2.0 * (q0 + delta.delta_hat * float(q0.sum()))
    adam = np.zeros((4, net.params.size))
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
                loss, grad = loss_and_gradient(net, lam_all[idx], q_all[idx], delta.delta_hat)
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}: {exc}") from exc
            adam_step(net.params, grad, adam, cfg, t)
            epoch_loss += loss * len(idx)
        curve[epoch] = epoch_loss / n
    return TrainResult(net=net, curve=curve)


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
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    children = _seed_sequence(seed).spawn(n_draws)
    acc = np.zeros(pop.n_countries)
    for q in dictator_block(pop, np.zeros((1, pop.total)), children)[0]:
        acc += q
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
    if min(n_interventions, n_redraws) < 1:
        raise ValueError(
            f"n_interventions and n_redraws must be at least 1, got {n_interventions}, {n_redraws}"
        )
    if not test_set.interventions:
        raise ValueError("the test set holds no interventions")
    children = _seed_sequence(seed).spawn(n_interventions * n_redraws)
    total = 0.0
    for j in range(n_interventions):
        iv = test_set.interventions[j % len(test_set.interventions)]
        qs = dictator_block(pop, iv.lam[None], children[j * n_redraws : (j + 1) * n_redraws])[0]
        total += float(np.abs(qs - qs.mean(axis=0)).mean(axis=0).sum())
    return total / n_interventions


def _unintervened(
    mechanism: str, pop: Population, n_draws: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Equilibrium levels at lambda = 0: the average over ``n_draws`` seeded
    dictator redraws for the stochastic mechanism, else the one solution."""
    if mechanism == "dictator":
        return dictator_baseline(pop, n_draws=n_draws, seed=seed)
    return _solve_rows(mechanism, pop, [Intervention.zero(pop)])[0][0]


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

    q0 = _unintervened(mechanism, pop, baseline_draws, baseline_seed)
    base_err = np.abs(q0[None, :] - test_set.q)
    per_country_base = base_err.mean(axis=0)
    baseline_mae = float(per_country_base.sum())

    mae_delta = mae_alpha = None
    if mechanism == "vcg":
        true_delta = vcg_params_block(pop, np.zeros((1, pop.total)))[1]
        mae_delta = np.abs(delta.delta_hat - true_delta)
        blocks = intervention_blocks(test_set.interventions)
        alphas_true = np.concatenate([vcg_params_block(pop, lam)[0] for _, lam in blocks])
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
