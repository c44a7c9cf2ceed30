"""The seeded Table-1 pipeline: disjoint data, numeric artifacts, a complete
manifest and reproducible runs."""

import csv
import hashlib
import json
import platform

import numpy as np
import pytest

from mechscm.experiment import SEED_STAGES, ExperimentConfig, _check_thresholds, run_experiment
from mechscm.surrogate import MECHANISMS, make_dataset
from mechscm.voting import generate_population

SCALED = {"n_countries": 3, "total_citizens": 60, "n_train": 64, "n_test": 32, "epochs": 2}


@pytest.fixture(scope="module", params=MECHANISMS)
def runs(request, tmp_path_factory):
    """Two runs of one scaled config; the dictator run used to crash."""
    cfg = ExperimentConfig(mechanism=request.param, seed=7, **SCALED)
    return [run_experiment(cfg, tmp_path_factory.mktemp(f"{request.param}_{k}")) for k in range(2)]


def test_train_and_test_rows_disjoint(runs):
    result = runs[0]
    cfg = result.config
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    seeds = manifest["seeds"]
    pop = generate_population(seeds["population"], cfg.n_countries, cfg.total_citizens, cfg.ranges())
    lam = {}
    for part, n in (("train", cfg.n_train), ("test", cfg.n_test)):
        data = make_dataset(cfg.mechanism, pop, n, seeds[f"{part}_data"])
        # the manifest's seeds regenerate the written ground truth
        with open(result.out_dir / f"ground_truth_{part}.csv") as fh:
            q_c = [float(row["q_c"]) for row in csv.DictReader(fh)]
        assert q_c == data.q.ravel().tolist()
        lam[part] = {iv.lam.tobytes() for iv in data.interventions}
        assert len(lam[part]) == n
    assert not lam["train"] & lam["test"]


def test_every_csv_cell_is_a_number(runs):
    result = runs[0]
    for name in result.artifacts:
        if not name.endswith(".csv"):
            continue
        with open(result.out_dir / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for column, cell in row.items():
                if column == "mechanism":
                    assert cell == result.config.mechanism
                else:
                    float(cell)


def test_manifest_complete_and_hashes_match(runs):
    result = runs[0]
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["config"] == result.config.to_dict()
    assert manifest["seeds"]["root"] == result.config.seed
    assert set(manifest["seeds"]) == {"root", *SEED_STAGES}
    assert len({manifest["seeds"][s] for s in SEED_STAGES}) == len(SEED_STAGES)
    assert set(manifest["stage_seconds"]) == {"delta", "data", "train", "eval"}
    assert all(t >= 0.0 for t in manifest["stage_seconds"].values())
    assert manifest["versions"] == {"python": platform.python_version(), "numpy": np.__version__}
    assert manifest["thresholds_ok"] == result.thresholds_ok
    assert len(manifest["artifacts"]) == 6
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((result.out_dir / name).read_bytes()).hexdigest() == digest
    report = json.loads((result.out_dir / "report.json").read_text())
    assert report["thresholds_ok"] == result.thresholds_ok
    is_median = result.config.mechanism == "median"
    for key in ("median_residual", "median_iterations", "median_step_residual_max"):
        assert (key in report) == is_median
    if is_median:
        stats = report["median_iterations"]
        assert 1 <= stats["min"] <= stats["median"] <= stats["max"]
        assert 0.0 <= report["median_step_residual_max"] <= 1e-6


def test_runs_reproducible(runs):
    first, second = runs
    assert first.artifacts == second.artifacts
    assert first.report == second.report


# A report per mechanism that meets every threshold, and one change per
# threshold that breaks only that one.
PASSING = {
    "vcg": {"improvement": 0.95, "model_mae": 0.1, "mae_delta": [1e-9, 2e-9]},
    "median": {"improvement": 0.85, "median_residual": 1e-6},
    "dictator": {"improvement": 0.1},
}


@pytest.mark.parametrize(
    "mechanism, change",
    [
        ("vcg", {"improvement": 0.89}),
        ("vcg", {"model_mae": 0.16}),
        ("vcg", {"mae_delta": [1e-9, 2e-6]}),
        ("median", {"improvement": 0.79}),
        ("median", {"median_residual": 2e-5}),
        ("dictator", {"improvement": 0.21}),
    ],
    ids=["improvement_min", "model_mae_max", "mae_delta_max", "median-improvement_min",
         "median_residual_max", "improvement_max"],
)
def test_each_threshold_fails_its_report_alone(mechanism, change):
    passing = {"mechanism": mechanism, **PASSING[mechanism]}
    assert _check_thresholds(passing)
    assert not _check_thresholds({**passing, **change})


@pytest.mark.slow
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_full_size_meets_thresholds(mechanism, tmp_path):
    """The paper-size run (5 countries, 1000 citizens, 1000/500 rows, 100
    epochs): about a minute or more per mechanism, so opt in with -m slow."""
    result = run_experiment(ExperimentConfig(mechanism=mechanism, seed=0), tmp_path)
    assert result.thresholds_ok, result.report
