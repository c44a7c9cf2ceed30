"""Quotient abstractions and the non-emergence fuzz property."""

import dataclasses
import time

import pytest

from mechscm.core import (
    EMPTY_SETTING,
    DeterministicAssign,
    DeterministicSCM,
    FiniteDomain,
    MechanizedSCM,
    NonFiniteDomain,
    ParameterizedSCM,
    SamplerAssign,
    mech,
    obj,
    solution_distributions,
)
from mechscm.abstraction import check_abstraction, check_strong, full_subset_suite, prop1_preconditions
from mechscm.quotient import quotient_abstraction
from mechscm.rationality import (
    RationalityRelation,
    enumerate_contexts,
    is_nontrivial_agent,
)

import fuzzgen


def quotient_case(index: int):
    """The agent-fuzz generator's case ``index`` at seed 0 with its quotient
    abstraction: (case, high, alignment, tau, omega)."""
    case = fuzzgen.random_case(0, index)
    return (case, *quotient_abstraction(case.low, case.groups))


def two_constant_nodes():
    """Two constant-mechanism low nodes aggregated into one high node."""
    X, Z = obj("X"), obj("Z")
    TX, TZ = mech("X"), mech("Z")
    dom = FiniteDomain((0, 1))
    obj_model = ParameterizedSCM(
        variables=(X, Z),
        parents={X: (), Z: (X,)},
        domains={X: dom, Z: dom},
        param_domains={X: dom, Z: dom},
        assigns={
            X: DeterministicAssign(lambda th, pa: th),
            Z: DeterministicAssign(lambda th, pa: (pa[X] + th) % 2),
        },
    )
    mech_model = DeterministicSCM(
        variables=(TX, TZ),
        domains={TX: dom, TZ: dom},
        assignments={TX: lambda ctx: 1, TZ: lambda ctx: 0},
        parents={TX: frozenset(), TZ: frozenset()},
    )
    return MechanizedSCM(mech_model, obj_model)


def test_quotient_of_constant_pair_rules_out_nontrivial_agency():
    low = two_constant_nodes()
    groups = [(obj("X"), obj("Z"))]
    high, a, t, w = quotient_abstraction(low, groups, names=["XZ"])
    target = mech("XZ")
    report = prop1_preconditions(low, high, a, t, w, target)
    assert report.tau_injective and report.independent_mechanisms and report.conclusion
    rel = RationalityRelation.best_response(target)
    contexts = list(enumerate_contexts(high, target)) or [EMPTY_SETTING]
    for u in fuzzgen.utilities(high, 0, 0):
        assert not is_nontrivial_agent(high, target, rel, u, contexts)


def test_quotient_is_strong_abstraction_small_case():
    case, high, a, t, w = quotient_case(123)
    suite = full_subset_suite(w, include_empty=True)
    report = check_abstraction(case.low, high, a, t, w, suite[:60])
    assert report.ok
    high_domains = {v: high.mech_model.domains[v] for v in high.mech_vars}
    assert check_strong(w, high_domains).ok


def test_quotient_of_continuous_noise_has_no_exact_distribution():
    low = two_constant_nodes()
    X, Z = low.object_vars
    sampled_z = SamplerAssign(lambda th, pa, rng: int(rng.integers(2)))
    low = MechanizedSCM(
        low.mech_model,
        dataclasses.replace(low.obj_model, assigns={**low.obj_model.assigns, Z: sampled_z}),
    )
    high, _, _, _ = quotient_abstraction(low, [(X, Z)])
    with pytest.raises(NonFiniteDomain):
        solution_distributions(high)


def test_quotient_rejects_sibling_reading_mechanisms():
    low = two_constant_nodes()
    X, Z = obj("X"), obj("Z")
    TX, TZ = mech("X"), mech("Z")
    dom = FiniteDomain((0, 1))
    bad_mech = DeterministicSCM(
        variables=(TX, TZ),
        domains={TX: dom, TZ: dom},
        assignments={TX: lambda ctx: ctx[TZ], TZ: lambda ctx: 0},
        parents={TX: frozenset({TZ}), TZ: frozenset()},
    )
    bad = MechanizedSCM(bad_mech, low.obj_model)
    with pytest.raises(ValueError):
        quotient_abstraction(bad, [(X, Z)])


def test_nonemergence_fuzz_200_cases():
    start = time.perf_counter()
    failures = []
    for index in range(200):
        case, high, a, t, w = quotient_case(index)
        target = high.mech_vars[case.target_index]
        pre = prop1_preconditions(case.low, high, a, t, w, target)
        if not pre.conclusion:
            failures.append((index, "preconditions"))
            continue
        contexts = list(enumerate_contexts(high, target)) or [EMPTY_SETTING]
        rel = RationalityRelation.best_response(target)
        for u in fuzzgen.utilities(high, 0, index):
            if is_nontrivial_agent(high, target, rel, u, contexts):
                failures.append((index, u.label))
                break
        if index % 20 == 0:
            suite = (EMPTY_SETTING,) + full_subset_suite(w, include_empty=False)[:8]
            if not check_abstraction(case.low, high, a, t, w, suite).ok:
                failures.append((index, "abstraction"))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 60.0
