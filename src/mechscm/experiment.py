"""Reproducible Table-1 runs: configuration, then one seeded pipeline of
the surrogate stages (population, delta estimate, disjoint train and test
sets, training, evaluation), artifacts and a run manifest.

Artifacts written to the output directory (every CSV number is written as
``repr(float(x))``, integers as integers):

    ground_truth_train.csv / ground_truth_test.csv
        header: intervention_id,country,q_c,Q_W
    report.json          evaluation report plus thresholds and diagnostics;
                         median runs add median_residual (the largest residual
                         median_block recorded) and median_iterations (min /
                         median / max Newton steps, train and test rows)
    table1_row.csv       header: mechanism,model_mae,baseline_mae,improvement
    per_country.csv      vcg: country,citizens,mae_delta,mae_alpha,mae_q,baseline_mae_q
                         others: country,citizens,mae_q,baseline_mae_q
    training_curve.csv   header: epoch,mean_loss
    manifest.json        keys: config (the ``ExperimentConfig`` fields:
                         mechanism, seed, n_countries, total_citizens,
                         n_train, n_test, epochs, learning_rate); seeds
                         (root plus one int per ``SEED_STAGES`` entry);
                         stage_seconds (delta, data, train, eval); versions
                         (python, numpy); blas_threads (OPENBLAS_, OMP_ and
                         MKL_NUM_THREADS as read, None when unset); artifacts
                         (sha256 of each file above); duration_seconds;
                         thresholds_ok

The configuration sets the population size, the data sizes and the
training length and step only.  Citizen parameters are drawn from the
``voting`` ranges, training batches hold ``TrainConfig.batch_size`` rows, and
every median equilibrium (delta probes, data, warm start and baseline
alike) is solved by ``voting.median_block`` at its defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from mechscm.surrogate import (
    MECHANISMS,
    TrainConfig,
    estimate_delta,
    evaluate,
    make_dataset,
    train,
)
from mechscm.voting import generate_population

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_experiment",
    "ExperimentResult",
    "THRESHOLDS",
    "SEED_STAGES",
]


class ConfigError(ValueError):
    pass


# The vcg margin allows, on top of the spread between seeds, for ~1e-3 of
# rounding-order noise: re-associating the country sums alone moved the
# full-size improvement by up to 0.0009 (seed 41: 0.96427 to 0.96338).
THRESHOLDS = {
    "vcg": {"improvement_min": 0.90, "model_mae_max": 0.15, "mae_delta_max": 1e-6},
    "median": {"improvement_min": 0.80, "median_residual_max": 1e-5},
    "dictator": {"improvement_max": 0.20},
}

# Every stage that draws randomness, in the order its seed is derived from
# the root seed.
SEED_STAGES = ("population", "delta", "train_data", "test_data", "init", "baseline", "floor")


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: str = "vcg"
    seed: int = 0
    n_countries: int = 5
    total_citizens: int = 1000
    n_train: int = 1000
    n_test: int = 500
    epochs: int = 100
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: dict
    thresholds_ok: bool
    out_dir: Path
    artifacts: dict


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row; strings and integers as written, every other value
    as ``repr(float(x))`` so that each number round-trips exactly."""

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    lines = [header] + [",".join(cell(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _atomic_write_json(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _check_thresholds(report: dict) -> bool:
    """A ``<metric>_min`` bound needs the metric at or above it, a
    ``<metric>_max`` bound needs every entry of the metric at or below it; a
    NaN meets neither."""
    return all(
        report[key[:-4]] >= bound if key.endswith("_min") else np.max(report[key[:-4]]) <= bound
        for key, bound in THRESHOLDS[report["mechanism"]].items()
    )


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentResult:
    """Generate the population, estimate delta, draw disjoint train and test
    sets, fit the surrogate, evaluate, and emit all artifacts plus the
    manifest.  Deterministic given the config and the BLAS thread counts."""
    start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = np.random.SeedSequence(cfg.seed).generate_state(len(SEED_STAGES))
    seeds = {name: int(x) for name, x in zip(SEED_STAGES, state)}
    stage_seconds = {}

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter()
        yield
        stage_seconds[name] = time.perf_counter() - t0

    pop = generate_population(seeds["population"], cfg.n_countries, cfg.total_citizens)
    with stage("delta"):
        delta = estimate_delta(cfg.mechanism, pop, seeds["delta"])
    with stage("data"):
        train_set = make_dataset(cfg.mechanism, pop, cfg.n_train, seeds["train_data"])
        test_set = make_dataset(cfg.mechanism, pop, cfg.n_test, seeds["test_data"])
    with stage("train"):
        train_cfg = TrainConfig(
            epochs=cfg.epochs, learning_rate=cfg.learning_rate, seed=seeds["init"]
        )
        result = train(pop, cfg.mechanism, train_cfg, train_set=train_set, delta=delta)
    with stage("eval"):
        report = evaluate(
            result.net,
            delta,
            pop,
            cfg.mechanism,
            test_set,
            baseline_seed=seeds["baseline"],
            floor_seed=seeds["floor"],
        ).to_dict()
        if cfg.mechanism == "median":
            report["median_residual"] = float(
                np.concatenate([train_set.residuals, test_set.residuals]).max()
            )
            its = np.concatenate([train_set.iterations, test_set.iterations])
            report["median_iterations"] = {
                "min": int(its.min()), "median": float(np.median(its)), "max": int(its.max())
            }
    report["delta_hat"] = [float(x) for x in delta.delta_hat]
    report["delta_method"] = delta.method
    report["final_train_loss"] = float(result.curve[-1])
    report["first_train_loss"] = float(result.curve[0])
    report["thresholds"] = THRESHOLDS[cfg.mechanism]
    ok = _check_thresholds(report)
    report["thresholds_ok"] = ok

    if cfg.mechanism == "vcg":
        per_country_header = "country,citizens,mae_delta,mae_alpha,mae_q,baseline_mae_q"
        columns = [report["mae_delta"], report["mae_alpha"]]
    else:
        per_country_header = "country,citizens,mae_q,baseline_mae_q"
        columns = []
    columns += [report["per_country_mae"], report["per_country_baseline_mae"]]
    tables = {
        f"ground_truth_{part}.csv": (
            "intervention_id,country,q_c,Q_W",
            [(j, c, q_c, q.sum()) for j, q in enumerate(data.q) for c, q_c in enumerate(q)],
        )
        for part, data in (("train", train_set), ("test", test_set))
    }
    tables |= {
        "table1_row.csv": (
            "mechanism,model_mae,baseline_mae,improvement",
            [(cfg.mechanism, report["model_mae"], report["baseline_mae"], report["improvement"])],
        ),
        "per_country.csv": (
            per_country_header,
            [(c, pop.sizes[c], *values) for c, values in enumerate(zip(*columns))],
        ),
        "training_curve.csv": ("epoch,mean_loss", list(enumerate(result.curve))),
    }
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    _atomic_write_json(out_dir / "report.json", report)

    artifacts = {name: _sha256(out_dir / name) for name in [*tables, "report.json"]}
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    manifest = {
        "config": asdict(cfg),
        "seeds": {"root": cfg.seed, **seeds},
        "stage_seconds": stage_seconds,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "blas_threads": {name: os.environ.get(name) for name in blas},
        "artifacts": artifacts,
        "duration_seconds": time.perf_counter() - start,
        "thresholds_ok": ok,
    }
    _atomic_write_json(out_dir / "manifest.json", manifest)
    return ExperimentResult(
        config=cfg,
        report=report,
        thresholds_ok=ok,
        out_dir=out_dir,
        artifacts=artifacts,
    )
