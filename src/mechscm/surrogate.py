"""The learned intervention mapping for the voting world.

Two-step construction: (1) per-country pollution-sensitivity ratios are
estimated by regressing a country's equilibrium level on the global total
across interventions that leave that country untouched (plug-in citizen
average for the stochastic dictator mechanism); (2) a fully connected network
maps the citizen-level intervention vector to per-country utility ratios,
trained by Adam through the differentiable closed-form equilibrium so that
predicted equilibria match ground truth.

Every weight and bias of ``OmegaNetwork`` is a view into one float32 vector
``params`` (per layer: weights row-major, then biases); activations,
gradients and Adam's moments are float32 in the same layout, so
``adam_step`` updates whole vectors in place at half float64's memory
traffic, on moments rescaled so that the bias corrections and the learning
rate fold into per-step Python-float scalars, in blocks that stay in cache.
Float64 holds at the boundaries: each input batch is cast down inside
``forward_cached``, ``forward`` returns float64, and the loss, the
closed-form equilibrium and its gradient run on the up-cast output, whose
gradient is cast down only inside ``backward``.

numpy has no flush-to-zero mode.  A rectifier unit that dies gets exactly
zero gradient, so its first moment decays into float32 subnormals and
sticks there, and every later step on it takes the processor's slow path;
``train`` therefore zeroes every moment below the smallest normal float32
once per epoch, which leaves the trained parameters unchanged.  ``train``
returns the mean of the last quarter of Adam's iterates (tail averaging,
Polyak & Juditsky 1992), which sits nearer the minimum than the last
iterate when the minibatch loss still swings.  Ground truth is solved
``voting.BLOCK_ROWS`` interventions at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from mechscm.voting import (
    Intervention,
    Population,
    _closed_form,
    dictator_block,
    draw_dictators,
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
# Adam's moment decays and denominator offset, the published defaults
# (Kingma & Ba, 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_BLOCK = 1 << 16  # entries; a block's 6 float32 rows (1.5 MB) stay in a 2 MB L2


class NonFinite(ArithmeticError):
    """An activation, loss, or gradient stopped being finite."""


class DegenerateDesign(ValueError):
    """The regression design had (numerically) no variation."""


@dataclass(frozen=True)
class TrainConfig:
    n_train: int = 1000
    n_test: int = 500
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.epochs, self.batch_size) < 1:
            raise ValueError("counts must be positive")
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")


@dataclass(frozen=True)
class DeltaEstimate:
    delta_hat: np.ndarray
    method: str  # "regression" | "plug_in"


# ---------------------------------------------------------------------------
# Network


class OmegaNetwork:
    """Fully connected rectifier network from the citizen intervention vector
    to one utility-ratio output per country; weights Glorot-uniform, biases
    zero, all seeded.  ``weights`` and ``biases`` are views into ``params``,
    which has the given dtype (float64 only for gradient checks)."""

    def __init__(self, widths: tuple, dtype=np.float32):
        self.widths = tuple(widths)
        size = sum(i * o + o for i, o in zip(self.widths[:-1], self.widths[1:]))
        self.params = np.zeros(size, dtype=dtype)
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
        seed=0,
    ) -> "OmegaNetwork":
        rng = np.random.default_rng(seed)
        net = cls((input_dim, *hidden, output_dim))
        for w in net.weights:
            limit = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
            w[:] = rng.uniform(-limit, limit, size=w.shape)
        return net

    def forward_cached(self, lam: np.ndarray):
        """Returns (output, pre-activations per layer, activations per layer)
        for backpropagation, all in the parameters' dtype; input is cast and
        scaled internally."""
        x = np.multiply(np.atleast_2d(lam), INPUT_SCALE, dtype=self.params.dtype)
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
        delta = d_out.astype(self.params.dtype)
        for i in reversed(range(len(self.weights))):
            np.matmul(activations[i].T, delta, out=grads_w[i])
            delta.sum(axis=0, out=grads_b[i])
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre[i - 1] > 0.0)
        return grad


def forward(net: OmegaNetwork, lam: np.ndarray) -> np.ndarray:
    """Per-country ratio estimates, float64, for one intervention vector (or
    a batch)."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 1 and lam.shape[0] != net.widths[0]:
        raise ValueError(
            f"input length {lam.shape[0]} does not match network input {net.widths[0]}"
        )
    out = net.forward_cached(lam)[0].astype(np.float64)
    return out[0] if lam.ndim == 1 else out


# ---------------------------------------------------------------------------
# Differentiable equilibrium layer


def ne_q_hat(alpha: np.ndarray, delta_hat: np.ndarray) -> np.ndarray:
    """Closed-form equilibrium levels for a batch of ratio vectors."""
    return _closed_form(np.atleast_2d(alpha), delta_hat)[0]


def loss_and_gradient(
    net: OmegaNetwork,
    lam_batch: np.ndarray,
    q_batch: np.ndarray,
    delta_hat: np.ndarray,
):
    """Mean (over the batch) of the squared equilibrium error summed across
    countries, in float64, and its gradient w.r.t. ``net.params`` (a new
    vector per call) via reverse accumulation through both the equilibrium
    formula and the network."""
    out, pre, activations = net.forward_cached(lam_batch)
    with np.errstate(invalid="ignore", over="ignore"):
        err = ne_q_hat(out.astype(np.float64), delta_hat) - q_batch
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
    """In-place Adam step t (Kingma & Ba's, up to rounding) on ``params``;
    ``state`` rows are the moments scaled by 1/(1-b1) and 1/(1-b2), then two
    scratch rows.  Per ``_ADAM_BLOCK`` entries, in this order: m = b1*m + g,
    v = b2*v + g*g, p -= rate * m / (sqrt(v) + eps/k), where
    k = sqrt((1-b2)/(1-b2**t)) and rate = lr*(1-b1)/(1-b1**t)/k are Python
    floats (a numpy float64 would make each float32 op a float64 loop)."""
    k = ((1 - ADAM_BETA2) / (1 - ADAM_BETA2**t)) ** 0.5
    rate = float(cfg.learning_rate) * (1 - ADAM_BETA1) / (1 - ADAM_BETA1**t) / k
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        p, g, (m, v, s, u) = params[block], grad[block], state[:, block]
        m *= ADAM_BETA1
        m += g
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        v += s
        np.sqrt(v, out=u)
        u += ADAM_EPS / k
        np.multiply(m, rate, out=s)
        s /= u
        p -= s


def _flush_subnormal(state: np.ndarray) -> None:
    """Zero, in place, every entry of Adam's scaled moments (the first two
    rows of ``state``) below the smallest normal number of their dtype."""
    tiny = np.finfo(state.dtype).tiny
    for moment in state[:2]:
        moment[np.abs(moment) < tiny] = 0


# ---------------------------------------------------------------------------
# Ground truth


@dataclass(frozen=True)
class GroundTruthSet:
    interventions: tuple
    q: np.ndarray  # (n, C)
    iterations: Optional[np.ndarray] = None  # median only: per-row Newton steps
    residuals: Optional[np.ndarray] = None  # median only: per-row fixed-point residual


def _solve_rows(mechanism: str, pop: Population, interventions, dictators=None) -> tuple:
    """Levels (n, C), solved ``BLOCK_ROWS`` rows at a time, each row on its
    own, then for median each row's Newton step count and recorded residual
    (``median_block``); dictator row j has the citizens ``dictators[j]``."""
    parts = []
    for rows, lam in intervention_blocks(interventions):
        if mechanism == "vcg":
            parts.append(vcg_block(pop, lam)[:1])
        elif mechanism == "median":
            parts.append(median_block(pop, lam))
        elif mechanism == "dictator":
            parts.append(dictator_block(pop, lam, dictators[rows])[:1])
        else:
            raise ValueError(f"unknown mechanism {mechanism!r}")
    return tuple(map(np.concatenate, zip(*parts)))


def make_dataset(
    mechanism: str,
    pop: Population,
    n: int,
    seed,
) -> GroundTruthSet:
    """Interventions, then one dictator per country and intervention, drawn
    from ``default_rng(seed)`` for anything it accepts, and their ground-truth
    equilibria; only the stochastic dictator mechanism reads the dictators."""
    rng = np.random.default_rng(seed)
    ivs = sample_interventions(pop, rng, n)
    dictators = draw_dictators(pop, rng, n)
    return GroundTruthSet(tuple(ivs), *_solve_rows(mechanism, pop, ivs, dictators))


# ---------------------------------------------------------------------------
# Step 1: delta estimation


def estimate_delta(
    mechanism: str,
    pop: Population,
    seed,
) -> DeltaEstimate:
    """Regression of q_c on Q_W over interventions sparing country c (the
    equilibrium line has slope -delta_c), every country's drawn in turn from
    one ``default_rng(seed)`` and all solved at once; the dictator mechanism
    instead plugs in the citizen average of d/b."""
    if mechanism == "dictator":
        delta = np.add.reduceat(pop.d / pop.b, pop.offsets) / pop.sizes
        return DeltaEstimate(delta_hat=delta, method="plug_in")

    rng = np.random.default_rng(seed)
    drawn = [
        zero_on_country_interventions(pop, c, rng, DELTA_PROBES) for c in range(pop.n_countries)
    ]
    probes = _solve_rows(mechanism, pop, [iv for ivs in drawn for iv in ivs])[0]
    delta = np.empty(pop.n_countries)
    for c, qs in enumerate(probes.reshape(pop.n_countries, DELTA_PROBES, -1)):
        x = qs.sum(axis=1)
        y = qs[:, c]
        x_var = float(np.var(x))
        if x_var < 1e-12:
            raise DegenerateDesign(
                f"Q_W variance {x_var:.3g} across probe interventions for country {c}"
            )
        delta[c] = -float(np.cov(x, y, ddof=0)[0, 1] / x_var)
    return DeltaEstimate(delta_hat=delta, method="regression")


# ---------------------------------------------------------------------------
# Step 2: training


def _stacked_lambda(pop: Population, data: GroundTruthSet, delta: DeltaEstimate, use: str):
    """The rows' lambda stacked (n, N); ValueError unless there are rows and
    lambda, q and delta_hat fit ``pop``."""
    n, c = len(data.interventions), pop.n_countries
    lam = np.stack([iv.lam for iv in data.interventions]) if n else np.empty(0)
    shapes = (lam.shape, np.shape(data.q), np.shape(delta.delta_hat))
    if not n or shapes != ((n, pop.total), (n, c), (c,)):
        raise ValueError(
            f"lambda, q and delta_hat have shapes {shapes}; {use} needs "
            f"((n, {pop.total}), (n, {c}), ({c},)) with n > 0"
        )
    return lam


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
    per-epoch shuffling.  One generator, ``default_rng(cfg.seed)`` for
    anything it accepts, draws the initial weights, then the warm start's
    dictators, then the shuffles.  The returned network holds the mean of the
    last ``max(1, steps // 4)`` iterates; ``curve`` is the loss along the
    iterates themselves."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    lam_all = _stacked_lambda(pop, train_set, delta, "training")
    n = len(lam_all)
    rng = np.random.default_rng(cfg.seed)
    net = OmegaNetwork.init(pop.total, pop.n_countries, seed=rng)
    # Center the output at the un-intervened ratios by inverting the
    # equilibrium map at lambda = 0; the epoch budget then goes entirely to
    # learning the intervention response rather than climbing to the mean.
    q0 = _unintervened(mechanism, pop, 200, rng)
    net.biases[-1][:] = 2.0 * (q0 + delta.delta_hat * float(q0.sum()))
    adam = np.zeros((4, net.params.size), dtype=net.params.dtype)

    curve = np.empty(cfg.epochs)
    t = 0
    steps = cfg.epochs * -(-n // cfg.batch_size)
    tail = max(1, steps // 4)
    tail_sum = np.zeros_like(net.params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            t += 1
            try:
                loss, grad = loss_and_gradient(net, lam_all[idx], train_set.q[idx], delta.delta_hat)
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}: {exc}") from exc
            adam_step(net.params, grad, adam, cfg, t)
            if t > steps - tail:
                tail_sum += net.params
            epoch_loss += loss * len(idx)
        curve[epoch] = epoch_loss / n
        _flush_subnormal(adam)
    np.divide(tail_sum, tail, out=net.params)
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


def dictator_baseline(pop: Population, n_draws: int = 10_000, seed=0) -> np.ndarray:
    """Average un-intervened equilibrium over ``n_draws`` dictator draws from
    ``default_rng(seed)``, for anything it accepts."""
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    dictators = draw_dictators(pop, seed, n_draws)
    return dictator_block(pop, np.zeros((1, pop.total)), dictators)[0].mean(axis=0)


def stochastic_floor(
    pop: Population,
    test_set: GroundTruthSet,
    n_interventions: int = 20,
    n_redraws: int = 100,
    seed=0,
) -> float:
    """Outcome dispersion inherent to the dictator draw: the mean (over
    interventions) of the per-country mean absolute deviation of the
    equilibrium across redraws, summed over countries, every redraw from
    ``default_rng(seed)``.  A deterministic predictor's expected error
    cannot fall below this level."""
    if min(n_interventions, n_redraws) < 1:
        raise ValueError(
            f"n_interventions and n_redraws must be at least 1, got {n_interventions}, {n_redraws}"
        )
    if not test_set.interventions:
        raise ValueError("the test set holds no interventions")
    dictators = draw_dictators(pop, seed, n_interventions * n_redraws)
    total = 0.0
    for j, redraws in enumerate(dictators.reshape(n_interventions, n_redraws, -1)):
        iv = test_set.interventions[j % len(test_set.interventions)]
        qs = dictator_block(pop, iv.lam[None], redraws)[0]
        total += float(np.abs(qs - qs.mean(axis=0)).mean(axis=0).sum())
    return total / n_interventions


def _unintervened(mechanism: str, pop: Population, n_draws: int, seed) -> np.ndarray:
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
    baseline (dictator-draw averaged for the stochastic mechanism).
    ValueError for an empty test set or shapes that do not fit ``pop``."""
    lam = _stacked_lambda(pop, test_set, delta, "evaluation")
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
