"""Alignment maps, the distribution-set consistency check, strongness, and
the non-emergence precondition checker."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechscm.core import (
    EMPTY_SETTING,
    Distribution,
    FiniteDomain,
    Setting,
    exact_distribution,
    mech,
    obj,
)
from mechscm.abstraction import (
    AllOfDomains,
    Alignment,
    ExplicitSettings,
    InterventionMapping,
    MissingVariables,
    OmegaUndefined,
    OmegaVar,
    PartialCollection,
    ValueMapping,
    check_abstraction,
    check_strong,
    dists_match,
    full_subset_suite,
    grid_suite,
    identity_maps,
    prop1_preconditions,
    push_omega,
    push_tau,
)
from mechscm.examples import (
    actor_critic_pair,
    battle_of_sexes,
    shared_utility_pair,
    shared_utility_tables,
)
from mechscm.rationality import RationalityRelation, UtilityFn, enumerate_contexts, is_nontrivial_agent


@pytest.fixture(scope="module")
def ac():
    return actor_critic_pair()


# ---------------------------------------------------------------------------
# push_tau / push_omega


def test_push_tau_actor_critic_identity(ac):
    low_setting = Setting(
        {obj("A"): 1, obj("S"): 0, obj("R"): 1, obj("Q"): (0.2, 0.6), obj("Y"): 0.6, obj("W"): -0.16}
    )
    high = push_tau(ac.alignment, ac.tau, low_setting)
    assert high == Setting({obj("A*"): 1, obj("S*"): 0, obj("R*"): 1})


def test_push_tau_pairing():
    pair = shared_utility_pair("br")
    low = Setting({obj("D1"): 0, obj("D2"): 1, obj("U"): 0})
    high = push_tau(pair.alignment, pair.tau, low)
    assert high == Setting({obj("D*"): (0, 1), obj("U*"): 0})


def test_push_tau_missing_variables(ac):
    with pytest.raises(MissingVariables):
        push_tau(ac.alignment, ac.tau, Setting({obj("A"): 1}))


def test_push_omega_actor_critic(ac):
    low_iv = Setting({mech("S"): (0.3, 0.4), mech("R"): (0.9, 0.1)})
    high_iv = push_omega(ac.alignment, ac.omega, low_iv)
    assert high_iv == Setting({mech("S*"): (0.3, 0.4), mech("R*"): (0.9, 0.1)})


def test_push_omega_empty(ac):
    assert push_omega(ac.alignment, ac.omega, EMPTY_SETTING) == EMPTY_SETTING


def test_push_omega_partial_collection():
    pair = shared_utility_pair("br")
    with pytest.raises(PartialCollection):
        push_omega(pair.alignment, pair.omega, Setting({mech("D1"): 0}))


def test_push_omega_uncollected_variable(ac):
    with pytest.raises(PartialCollection):
        push_omega(ac.alignment, ac.omega, Setting({mech("W"): 1}))


def test_push_omega_undefined_outside_domain(ac):
    restricted = InterventionMapping(
        {
            mech("S*"): OmegaVar(
                mech("S*"),
                (mech("S"),),
                lambda st: st[mech("S")],
                ExplicitSettings((Setting({mech("S"): (0.0, 0.0)}),)),
            )
        }
    )
    out = push_omega(ac.alignment, restricted, Setting({mech("S"): (0.5, 0.5)}))
    assert isinstance(out, OmegaUndefined)


# ---------------------------------------------------------------------------
# Distribution matching


def _point(var, value):
    return exact_distribution({Setting({var: value}): 1.0})


def test_dists_match_symmetric_and_cardinality():
    A = obj("A")
    d0, d1 = _point(A, 0), _point(A, 1)
    both = exact_distribution({Setting({A: 0}): 0.5, Setting({A: 1}): 0.5})
    ok, _ = dists_match([d0, d1], [d1, d0], tol=1e-9)
    assert ok
    ok12, _ = dists_match([d0, d1], [both], tol=1e-9)
    ok21, _ = dists_match([both], [d0, d1], tol=1e-9)
    assert not ok12 and not ok21
    close = exact_distribution({Setting({A: 0}): 0.5 + 1e-12, Setting({A: 1}): 0.5 - 1e-12})
    ok_close, worst = dists_match([both], [close], tol=1e-9)
    assert ok_close and worst <= 1e-9


def _coin(p1):
    X = obj("X")
    return exact_distribution({Setting({X: 0}): 1.0 - p1, Setting({X: 1}): p1})


def test_dists_match_finds_the_best_pairing():
    # Pairing 0.50 with its nearest, 0.55, leaves 0.55 -> 0.44 (0.11); the
    # best pairing, 0.50 -> 0.44 and 0.55 -> 0.55, gives 0.06.
    left, right = [_coin(0.50), _coin(0.55)], [_coin(0.55), _coin(0.44)]
    for a, b in ((left, right), (left[::-1], right), (right, left)):
        ok, worst = dists_match(a, b, tol=0.1)
        assert ok and worst == pytest.approx(0.06)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=5).flatmap(
        lambda left: st.tuples(
            st.just(left),
            st.lists(st.integers(0, 20), min_size=len(left), max_size=len(left)),
            st.permutations(range(len(left))),
            st.permutations(range(len(left))),
        )
    ),
    st.sampled_from([0.0, 0.05, 0.1, 0.3]),
)
def test_dists_match_is_the_bottleneck_matching(case, tol):
    left, right, perm_left, perm_right = case
    set1 = [_coin(k / 20) for k in left]
    set2 = [_coin(k / 20) for k in right]
    expected = dists_match(set1, set2, tol)
    best = min(
        max(dists_match([d1], [set2[j]], tol)[1] for d1, j in zip(set1, perm))
        for perm in itertools.permutations(range(len(set2)))
    )
    assert expected == (best <= tol, best)
    assert dists_match([set1[i] for i in perm_left], [set2[i] for i in perm_right], tol) == expected
    assert dists_match(set2, set1, tol) == expected


# ---------------------------------------------------------------------------
# Reflexivity and small suites


@pytest.mark.parametrize("name", ["bos", "su-br", "su-fm"])
def test_reflexivity_identity_abstraction(name):
    model = {
        "bos": battle_of_sexes,
        "su-br": lambda: shared_utility_pair("br").low,
        "su-fm": lambda: shared_utility_pair("fm").low,
    }[name]()
    a, t, w = identity_maps(model)
    if name == "bos":
        suite = [EMPTY_SETTING]
    else:
        suite = full_subset_suite(w, include_empty=True)[:40]
    report = check_abstraction(model, model, a, t, w, suite)
    assert report.ok


def test_observational_consistency_included(ac):
    report = check_abstraction(
        ac.low, ac.high, ac.alignment, ac.tau, ac.omega, [EMPTY_SETTING]
    )
    assert report.ok
    assert report.entries[0].high_intervention == EMPTY_SETTING


def test_actor_critic_coarse_suite(ac):
    suite = grid_suite(
        InterventionMapping(
            {
                mech("S*"): OmegaVar(
                    mech("S*"),
                    (mech("S"),),
                    lambda st: st[mech("S")],
                    ExplicitSettings(
                        tuple(
                            Setting({mech("S"): (a, b)})
                            for a in (0.0, 0.5, 1.0)
                            for b in (0.0, 0.5, 1.0)
                        )
                    ),
                ),
                mech("R*"): OmegaVar(
                    mech("R*"),
                    (mech("R"),),
                    lambda st: st[mech("R")],
                    ExplicitSettings(
                        tuple(
                            Setting({mech("R"): (a, b)})
                            for a in (0.0, 0.5, 1.0)
                            for b in (0.0, 0.5, 1.0)
                        )
                    ),
                ),
            }
        ),
        [mech("R*"), mech("S*")],
    )
    assert len(suite) == 81
    report = check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, suite)
    assert report.ok


def test_actor_critic_action_only_interventions(ac):
    suite = grid_suite(ac.omega, [mech("A*")])
    report = check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, suite)
    assert report.ok
    # Both sides sample from the same seed, and tau is the identity on the
    # aligned variables, so the pushed samples equal the high-level ones.
    sampled = check_abstraction(
        ac.low, ac.high, ac.alignment, ac.tau, ac.omega, suite + (EMPTY_SETTING,),
        n=20_000, seed=3,
    )
    assert sampled.ok
    assert max(e.max_mismatch for e in sampled.entries) == 0.0


def test_actor_critic_full_grid_under_time_budget(ac):
    import time

    suite = grid_suite(ac.omega, [mech("S*"), mech("R*")])
    assert len(suite) == 11**4
    start = time.perf_counter()
    report = check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, suite)
    elapsed = time.perf_counter() - start
    assert report.ok and report.n_matched == 14641
    assert elapsed < 25.0


# ---------------------------------------------------------------------------
# Shared-utility dichotomy


def test_shared_utility_br_fails_fm_passes():
    u = shared_utility_tables()["coordinate_high"]
    iv = Setting({mech("U"): u})

    br = shared_utility_pair("br")
    fm = shared_utility_pair("fm")
    for n in (None, 1_000):
        report_br = check_abstraction(
            br.low, br.high, br.alignment, br.tau, br.omega, [iv], n=n
        )
        assert not report_br.ok
        entry = report_br.entries[0]
        assert (entry.n_low, entry.n_high) == (2, 1)

        report_fm = check_abstraction(
            fm.low, fm.high, fm.alignment, fm.tau, fm.omega, [iv], n=n
        )
        assert report_fm.ok


def test_shared_utility_fm_full_subset_suite():
    fm = shared_utility_pair("fm")
    suite = full_subset_suite(fm.omega, include_empty=True)
    report = check_abstraction(fm.low, fm.high, fm.alignment, fm.tau, fm.omega, suite)
    assert report.ok


# ---------------------------------------------------------------------------
# Strongness


def test_check_strong_actor_critic(ac):
    high_domains = {v: ac.high.mech_model.domains[v] for v in ac.high.mech_vars}
    report = check_strong(ac.omega, high_domains)
    assert report.ok
    assert all(c == 1.0 for c in report.coverage.values())


def test_check_strong_gap_witnessed(ac):
    pair_box = ac.high.mech_model.domains[mech("S*")]
    restricted = InterventionMapping(
        {
            mech("S*"): OmegaVar(
                mech("S*"),
                (mech("S"),),
                lambda st: st[mech("S")],
                ExplicitSettings(
                    tuple(
                        Setting({mech("S"): (0.0, round(b * 0.1, 12))}) for b in range(11)
                    )
                ),
            )
        }
    )
    report = check_strong(restricted, {mech("S*"): pair_box})
    assert not report.ok
    gaps = report.gaps[mech("S*")]
    assert gaps and all(g[0] != 0.0 for g in gaps)


def test_check_strong_constant_onto_singleton():
    w = InterventionMapping(
        {
            mech("Z"): OmegaVar(
                mech("Z"),
                (mech("z1"),),
                lambda st: "only",
                AllOfDomains({mech("z1"): FiniteDomain((0, 1))}),
            )
        }
    )
    report = check_strong(w, {mech("Z"): FiniteDomain(("only",))})
    assert report.ok


def test_check_strong_sampled_mode(ac):
    high_domains = {v: ac.high.mech_model.domains[v] for v in ac.high.mech_vars}
    report = check_strong(ac.omega, high_domains, n=4000, seed=0)
    assert report.coverage[mech("A*")] == 1.0


def test_sampling_checks_reject_empty_counts(ac):
    high_domains = {v: ac.high.mech_model.domains[v] for v in ac.high.mech_vars}
    with pytest.raises(ValueError, match="n >= 1"):
        check_strong(ac.omega, high_domains, n=0)
    with pytest.raises(ValueError, match="n >= 1"):
        check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, [], n=0)


# ---------------------------------------------------------------------------
# Non-emergence preconditions


def test_prop1_actor_critic_not_applicable(ac):
    report = prop1_preconditions(
        ac.low, ac.high, ac.alignment, ac.tau, ac.omega, mech("A*")
    )
    # the low-level action mechanism responds to the critic, so the
    # independent-mechanism precondition fails and no conclusion follows
    assert not report.independent_mechanisms
    assert not report.conclusion


def test_prop1_state_mechanism_applies(ac):
    report = prop1_preconditions(
        ac.low, ac.high, ac.alignment, ac.tau, ac.omega, mech("S*")
    )
    assert report.tau_injective and report.independent_mechanisms and report.conclusion


def test_prop1_conclusion_backed_by_nontriviality_check(ac):
    # with both preconditions true, the abstracted state mechanism must not be
    # a non-trivial agent for any utility in the registry
    contexts = [
        Setting({mech("A*"): a, mech("R*"): r})
        for a in (0, 1)
        for r in ((0.0, 1.0), (1.0, 0.0), (0.5, 0.5))
    ]
    utilities = [
        UtilityFn.constant(),
        UtilityFn.of_var(obj("R*")),
        UtilityFn.of_var(obj("S*")),
    ]
    rel = RationalityRelation.best_response(mech("S*"))
    for u in utilities:
        assert not is_nontrivial_agent(ac.high, mech("S*"), rel, u, contexts)
