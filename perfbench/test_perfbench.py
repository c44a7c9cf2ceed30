"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted, that each
workload's correctness check fires on a deliberately wrong reference, that
an exception inside one op counts as one failed op without ending the run,
that the end-to-end estimators give a single pass's op times and ignore a
uniformly slower pass, and that tracing covers every namespace and accounts
for the traced pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import mechscm  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = workloads.Sizes(
    table1_countries=3,
    table1_citizens=60,
    table1_train=64,
    table1_test=32,
    table1_epochs=1,
    votes_countries=4,
    votes_citizens=200,
    votes_per_pass=3,
    grid_step=0.5,
    grid_per_pass=20,
    fuzz_per_pass=4,
)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3):
    w = workloads.WORKLOADS[name](seed, TINY)
    if name == "table1":
        # tiny training cannot reach the paper's thresholds; the other
        # table1 checks still apply
        w.thresholds = {m: {} for m in workloads.MECHANISMS}
    w.build()
    return w


def failed_ops(w) -> dict:
    result = run.run_pass(w, w.n_first_ops)
    run.check_pass(w, result)
    return result.failures


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_and_outputs_pass(name):
    w = tiny(name)
    passes, _ = run.measure(w, seconds=0.01)
    values, extra = run.end_to_end(0.5, 1e-3, passes, w.n_ops)
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in values.values())
    assert extra["inputs"] == w.n_ops
    assert all(not p.failures for p in passes)

    tracer = Tracer()
    passes, _ = run.measure(w, seconds=0.01, tracer=tracer)
    layer = run.per_layer(tracer, passes)
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert [len(p.latencies) for p in passes][:1] == [w.n_first_ops]
    traced = [p for p in passes if p.traced_latencies is not None]
    assert traced and all(len(p.traced_latencies) == w.n_ops for p in traced)
    assert all(not p.failures for p in passes)


def test_table1_check_fires_on_leaked_test_seed():
    w = tiny("table1")
    w.seeds = [s[:2] + (s[1],) + s[3:] for s in w.seeds]  # test seed = train seed
    failures = failed_ops(w)
    assert len(failures) == len(workloads.MECHANISMS)
    assert all("in both train and test" in r for r in failures.values())


def test_table1_check_fires_on_thresholds():
    w = tiny("table1")
    w.thresholds = {"vcg": {"improvement_min": 2.0}, "median": {"median_residual_max": 0.0}, "dictator": {"improvement_max": -9.0}}
    assert len(failed_ops(w)) == len(workloads.MECHANISMS)


def test_voting_check_fires_on_wrong_reference(monkeypatch):
    w = tiny("voting-gt")
    right = workloads.closed_form
    monkeypatch.setattr(workloads, "closed_form", lambda alpha, delta: right(alpha, delta) + 1e-6)
    failures = failed_ops(w)
    assert len(failures) == w.n_ops
    assert all("vcg" in r and "dictator" in r for r in failures.values())


def test_voting_check_fires_on_unconverged_median(monkeypatch):
    w = tiny("voting-gt")
    median_ne = mechscm.voting.median_ne
    monkeypatch.setattr(mechscm.voting, "median_ne", lambda pop, iv: median_ne(pop, iv, tol=1e-2))
    failures = failed_ops(w)
    assert failures and all("median residual" in r for r in failures.values())


def test_grid_check_fires_on_wrong_verdict():
    w = tiny("abstraction-grid")
    assert (w.n_ops, w.n_first_ops) == (20, 3**4)
    w.expect_matched = False
    assert len(failed_ops(w)) == w.n_first_ops


def test_fuzz_check_fires_on_wrong_verdict():
    w = tiny("agent-fuzz")
    w.expect_agent = True
    assert len(failed_ops(w)) == w.n_ops


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_exception_in_one_op_is_one_failure(name):
    w = tiny(name)
    op = w.op

    def failing(i):
        if i == 1:
            raise RuntimeError("injected")
        return op(i)

    w.op = failing
    failures = failed_ops(w)
    assert list(failures) == [1]
    assert "RuntimeError: injected" in failures[1]


def test_fuzz_shapes_do_not_depend_on_the_seed():
    for k in range(6):
        a, b = workloads.fuzzgen.random_case(1, k), workloads.fuzzgen.random_case(2, k)
        assert [len(g) for g in a.groups] == [len(g) for g in b.groups]
        assert a.target_index == b.target_index
        assert a.low.obj_model.domains == b.low.obj_model.domains


def test_tracer_covers_every_namespace_and_restores():
    original = mechscm.core.distribution
    with Tracer().installed():
        for module in (mechscm.core, mechscm.abstraction, mechscm.rationality, mechscm):
            assert module.distribution is not original
            assert module.distribution.__wrapped__ is original
        assert mechscm.surrogate.median_ne.__wrapped__ is mechscm.voting.median_ne.__wrapped__
        assert hasattr(mechscm.surrogate.OmegaNetwork.forward_cached, "__wrapped__")
    assert mechscm.rationality.distribution is original
    assert not hasattr(mechscm.surrogate.OmegaNetwork.forward_cached, "__wrapped__")


def test_self_times_account_for_the_traced_ops():
    w = tiny("agent-fuzz")
    tracer = Tracer()
    result = run.run_pass(w, w.n_ops, tracer)
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total["bench.op"], rel=1e-9)
    assert tracer.total["bench.op"] == pytest.approx(sum(result.traced_latencies), rel=0.05)
    assert tracer.calls["bench.op"] == w.n_ops
    assert tracer.counts["rationality.contexts"] > 0
    assert not hasattr(mechscm.core.distribution, "__wrapped__")


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct, n = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0 and n == 100
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_one_pass_gives_its_op_times_scaled_by_host_speed():
    latencies = [1e-3 * (1 + (7 * i) % 20) for i in range(20)]
    slow_host = run.Pass(1.0, latencies, [None] * 20, host_s=2 * run.REFERENCE_S)
    values, extra = run.end_to_end(0.5, 2 * run.REFERENCE_S, [slow_host], 20)
    assert values["setup_s"] == pytest.approx(0.25, rel=1e-12)
    assert values["run_s"] == pytest.approx(sum(latencies) / 2, rel=1e-12)
    assert values["op_p50_ms"] == pytest.approx(1e3 * np.median(latencies) / 2, rel=1e-12)
    assert values["op_tail_ms"] == pytest.approx(1e3 * run.tail(latencies)[0] / 2, rel=1e-12)
    assert extra["unscaled"]["run_s"] == pytest.approx(sum(latencies), rel=1e-12)


def test_a_uniformly_slower_pass_changes_nothing():
    latencies = [1e-3 * (1 + (7 * i) % 20) for i in range(20)]
    fast = run.Pass(1.0, latencies, [None] * 20, host_s=run.REFERENCE_S)
    slow = run.Pass(2.0, [2 * x for x in latencies], [None] * 20, host_s=run.REFERENCE_S)
    alone, _ = run.end_to_end(0.5, run.REFERENCE_S, [fast], 20)
    both, _ = run.end_to_end(0.5, run.REFERENCE_S, [slow, fast], 20)
    for name in ("run_s", "op_p50_ms", "op_tail_ms"):
        assert both[name] == pytest.approx(alone[name], rel=1e-12)


def test_import_timing_puts_the_loaded_modules_back():
    before = {n: m for n, m in sys.modules.items() if n.startswith("mechscm")}
    assert run.import_seconds() > 0
    assert {n: m for n, m in sys.modules.items() if n.startswith("mechscm")} == before


def test_median_residual_matches_the_package():
    pop = mechscm.voting.generate_population(5, 4, 300)
    iv = mechscm.voting.sample_interventions(pop, 6, 1)[0]
    q = np.linspace(0.01, 0.02, 4)
    assert workloads.median_residual(pop, iv.lam, q) == pytest.approx(
        mechscm.voting.median_fixed_point_residual(pop, iv, q), rel=1e-12
    )


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "voting-gt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
