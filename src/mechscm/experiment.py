"""Reproducible Table-1 runs: configuration, then one seeded pipeline of
the surrogate stages (population, delta estimate, disjoint train and test
sets, training, evaluation), artifacts and a run manifest.

Artifacts written to the output directory (every CSV number is written as
``repr(float(x))``, integers as integers):

    ground_truth_train.csv / ground_truth_test.csv
        header: intervention_id,country,q_c,Q_W
    report.json          evaluation report plus thresholds and diagnostics
    table1_row.csv       header: mechanism,model_mae,baseline_mae,improvement
    per_country.csv      vcg: country,citizens,mae_delta,mae_alpha,mae_q,baseline_mae_q
                         others: country,citizens,mae_q,baseline_mae_q
    training_curve.csv   header: epoch,mean_loss
    manifest.json        keys: command; config (resolved); seeds (root plus one
                         int per ``SEED_STAGES`` entry); stage_seconds (delta,
                         data, train, eval); versions (python, numpy); artifacts
                         (sha256 of each file above); duration_seconds;
                         thresholds_ok
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from mechscm.surrogate import (
    MECHANISMS,
    TrainConfig,
    estimate_delta,
    evaluate,
    make_dataset,
    train,
)
from mechscm.voting import (
    ParameterRanges,
    generate_population,
    median_fixed_point_residual,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "ExperimentResult",
    "THRESHOLDS",
    "SEED_STAGES",
]


class ConfigError(ValueError):
    pass


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
    a_range: tuple = (0.35, 0.65)
    b_range: tuple = (7.0, 13.0)
    d_range: tuple = (0.05, 0.15)
    size_sigma: float = 0.5
    damping: float = 0.3
    tol: float = 1e-6
    max_iter: int = 10_000
    n_train: int = 1000
    n_test: int = 500
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}")

    def ranges(self) -> ParameterRanges:
        return ParameterRanges(
            a=self.a_range, b=self.b_range, d=self.d_range, size_sigma=self.size_sigma
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("a_range", "b_range", "d_range"):
            out[key] = list(out[key])
        return out


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    raw.update(overrides or {})
    for key in ("a_range", "b_range", "d_range"):
        if key in raw:
            raw[key] = tuple(raw[key])
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**raw)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: dict
    thresholds_ok: bool
    out_dir: Path
    artifacts: dict
    duration: float


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
    t = THRESHOLDS[report["mechanism"]]
    if "improvement_min" in t and report["improvement"] < t["improvement_min"]:
        return False
    if "improvement_max" in t and report["improvement"] > t["improvement_max"]:
        return False
    if "model_mae_max" in t and report["model_mae"] > t["model_mae_max"]:
        return False
    if "mae_delta_max" in t and max(report["mae_delta"]) > t["mae_delta_max"]:
        return False
    if "median_residual_max" in t and report["median_residual"] > t["median_residual_max"]:
        return False
    return True


def run_experiment(
    cfg: ExperimentConfig, out_dir, command: str = "experiment run"
) -> ExperimentResult:
    """Generate the population, estimate delta, draw disjoint train and test
    sets, fit the surrogate, evaluate, and emit all artifacts plus the
    manifest.  Fully deterministic given the config."""
    start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Plain ints, not SeedSequences: a stage spawns from a SeedSequence in
    # place, so a second use of one would draw different values.
    state = np.random.SeedSequence(cfg.seed).generate_state(len(SEED_STAGES))
    seeds = {name: int(x) for name, x in zip(SEED_STAGES, state)}
    solver = {"damping": cfg.damping, "tol": cfg.tol, "max_iter": cfg.max_iter}
    stage_seconds = {}

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter()
        yield
        stage_seconds[name] = time.perf_counter() - t0

    pop = generate_population(
        seeds["population"],
        n_countries=cfg.n_countries,
        total_citizens=cfg.total_citizens,
        ranges=cfg.ranges(),
    )
    with stage("delta"):
        delta = estimate_delta(cfg.mechanism, pop, seeds["delta"], **solver)
    with stage("data"):
        train_set = make_dataset(cfg.mechanism, pop, cfg.n_train, seeds["train_data"], **solver)
        test_set = make_dataset(cfg.mechanism, pop, cfg.n_test, seeds["test_data"], **solver)
    with stage("train"):
        train_cfg = TrainConfig(
            n_train=cfg.n_train,
            n_test=cfg.n_test,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            seed=seeds["init"],
        )
        result = train(
            pop, cfg.mechanism, train_cfg, train_set=train_set, delta=delta, **solver
        )
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
            report["median_residual"] = max(
                median_fixed_point_residual(pop, iv, q)
                for data in (train_set, test_set)
                for iv, q in zip(data.interventions, data.q)
            )
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

    duration = time.perf_counter() - start
    artifacts = {name: _sha256(out_dir / name) for name in [*tables, "report.json"]}
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "seeds": {"root": cfg.seed, **seeds},
        "stage_seconds": stage_seconds,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "artifacts": artifacts,
        "duration_seconds": duration,
        "thresholds_ok": ok,
    }
    _atomic_write_json(out_dir / "manifest.json", manifest)
    return ExperimentResult(
        config=cfg,
        report=report,
        thresholds_ok=ok,
        out_dir=out_dir,
        artifacts=artifacts,
        duration=duration,
    )
