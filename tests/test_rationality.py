"""Agent detection: expected utilities, best response, first-mover, and the
(non-)triviality checks on the worked models."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechscm.abstraction import prop1_preconditions
from mechscm.core import Setting, Table, distribution, induce_scm, mech, obj
from mechscm.examples import (
    BOS_PAYOFF_1,
    BOS_PAYOFF_2,
    actor_critic_pair,
    battle_of_sexes,
    shared_utility_pair,
    shared_utility_tables,
)
from mechscm.rationality import (
    BeliefModel,
    EmptyResponseSet,
    RationalityRelation,
    UtilityFn,
    best_response_set,
    enumerate_contexts,
    expected_utility,
    first_mover_response,
    has_independent_mechanism,
    is_agent,
    is_nontrivial_agent,
)

TD1, TD2, TU1, TU2 = mech("D1"), mech("D2"), mech("U1"), mech("U2")
TA, TS, TR, TQ, TY, TW = (mech(n) for n in "ASRQYW")
TAs, TSs, TRs = mech("A*"), mech("S*"), mech("R*")


@pytest.fixture(scope="module")
def bos():
    return battle_of_sexes()


@pytest.fixture(scope="module")
def ac():
    return actor_critic_pair()


def bos_full(d1, d2):
    return Setting({TD1: d1, TD2: d2, TU1: BOS_PAYOFF_1, TU2: BOS_PAYOFF_2})


def ac_low_full(a, s, r, q=None):
    q = q if q is not None else (
        r[0] * (1 - s[0]) + r[1] * s[0],
        r[0] * (1 - s[1]) + r[1] * s[1],
    )
    return Setting({TA: a, TS: s, TR: r, TQ: q, TY: 1, TW: 1})


# ---------------------------------------------------------------------------
# Expected utility


def test_expected_utility_bos_mixed(bos):
    # oracle: expand the 2x2 expectation by hand from the payoff table:
    # P(O,O) = 2/9 pays 2, P(F,F) = 2/9 pays 1, off-diagonals pay 0
    u1 = UtilityFn.of_var(obj("U1"))
    got = expected_utility(bos, bos_full(2.0 / 3.0, 1.0 / 3.0), u1)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_expected_utility_constant(bos):
    u = UtilityFn.constant(5.0)
    assert expected_utility(bos, bos_full(0.31, 0.94), u) == pytest.approx(5.0)


def test_expected_utility_actor_critic(ac):
    # oracle: E[R | a] = s_a * r_1 + (1 - s_a) * r_0 evaluated by hand
    u = UtilityFn.of_var(obj("R"))
    low = ac.low
    e0 = expected_utility(low, ac_low_full(0, (0.1, 0.9), (0.2, 0.8)), u)
    e1 = expected_utility(low, ac_low_full(1, (0.1, 0.9), (0.2, 0.8)), u)
    assert e0 == pytest.approx(0.26, abs=1e-12)
    assert e1 == pytest.approx(0.74, abs=1e-12)


def test_expected_utility_monte_carlo_close_to_exact(bos):
    u1 = UtilityFn.of_var(obj("U1"))
    full = bos_full(2.0 / 3.0, 1.0 / 3.0)
    exact = expected_utility(bos, full, u1)
    mc = distribution(induce_scm(bos, full), n=100_000, seed=11).expectation(u1)
    assert abs(mc - exact) < 0.02


# ---------------------------------------------------------------------------
# Best response


def high_context(s, r):
    return Setting({TSs: s, TRs: r})


def test_best_response_actor_critic_strict(ac):
    u = UtilityFn.of_var(obj("R*"))
    got = best_response_set(ac.high, TAs, high_context((0.1, 0.9), (0.2, 0.8)), u)
    assert got == (1,)


def test_best_response_actor_critic_tie(ac):
    u = UtilityFn.of_var(obj("R*"))
    got = best_response_set(ac.high, TAs, high_context((0.4, 0.4), (0.2, 0.8)), u)
    assert set(got) == {0, 1}


def test_best_response_constant_utility_is_whole_domain(ac):
    got = best_response_set(ac.high, TAs, high_context((0.1, 0.9), (0.2, 0.8)), UtilityFn.constant())
    assert set(got) == {0, 1}


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=20, deadline=None)
def test_best_response_positive_affine_invariance(scale, shift):
    pair = shared_utility_pair("br")
    base = UtilityFn.of_var(obj("U"))
    scaled = UtilityFn(
        evaluate=lambda s: scale * base(s) + shift,
        depends_on=base.depends_on,
        label="affine",
    )
    tables = shared_utility_tables()
    for table in tables.values():
        for d2 in (0, 1):
            ctx = Setting({TD2: d2, mech("U"): table})
            got1 = best_response_set(pair.low, TD1, ctx, base)
            got2 = best_response_set(pair.low, TD1, ctx, scaled, tie_tol=1e-9 * scale)
            assert set(got1) == set(got2)


# ---------------------------------------------------------------------------
# is_agent / is_nontrivial_agent


def test_actor_critic_high_action_is_agent_on_grid(ac):
    u = UtilityFn.of_var(obj("R*"))
    rel = RationalityRelation.best_response(TAs)
    contexts = list(enumerate_contexts(ac.high, TAs))
    assert len(contexts) == 121 * 121
    verdict = is_agent(ac.high, TAs, rel, u, contexts)
    assert verdict and verdict.counterexample is None


def test_actor_critic_low_action_not_reward_agent(ac):
    # the actor maximizes the critic's estimate, not the true reward; on a
    # context where the critic favors action 1 but the reward favors 0 it
    # violates best response (oracle: brute force over the 2 actions)
    u = UtilityFn.of_var(obj("R"))
    rel = RationalityRelation.best_response(TA)
    bad_ctx = Setting({TR: (0.9, 0.1), TS: (0.1, 0.9), TQ: (0.0, 1.0), TY: 1, TW: 1})
    e0 = expected_utility(ac.low, bad_ctx.set(TA, 0), u)
    e1 = expected_utility(ac.low, bad_ctx.set(TA, 1), u)
    assert e0 > e1  # oracle: action 0 is strictly better for the true reward
    verdict = is_agent(ac.low, TA, rel, u, [bad_ctx])
    assert not verdict
    assert verdict.counterexample == bad_ctx


def test_every_mechanism_is_agent_under_constant_utility(bos, ac):
    rel = RationalityRelation.best_response(TD1)
    ctxs = [bos_full(0.5, 0.25).drop([TD1])]
    assert is_agent(bos, TD1, rel, UtilityFn.constant(), ctxs)
    rel2 = RationalityRelation.best_response(TAs)
    assert is_agent(ac.high, TAs, rel2, UtilityFn.constant(), [high_context((0.3, 0.1), (0.9, 0.2))])


def test_monotone_context_coverage(ac):
    u = UtilityFn.of_var(obj("R*"))
    rel = RationalityRelation.best_response(TAs)
    all_ctx = list(enumerate_contexts(ac.high, TAs))
    subset = all_ctx[::100]
    assert is_agent(ac.high, TAs, rel, u, all_ctx)
    assert is_agent(ac.high, TAs, rel, u, subset)


def test_actor_critic_high_action_nontrivial(ac):
    # responses differ across reward contexts (derived by comparing the two
    # indicator arguments at s = (0, 1))
    u = UtilityFn.of_var(obj("R*"))
    rel = RationalityRelation.best_response(TAs)
    contexts = [
        high_context((0.0, 1.0), (0.9, 0.1)),
        high_context((0.0, 1.0), (0.1, 0.9)),
    ]
    verdict = is_nontrivial_agent(ac.high, TAs, rel, u, contexts)
    assert verdict and verdict.witness is not None


def test_constant_mechanism_is_trivial(ac):
    # the high-level state mechanism is constant, so its conditional never
    # moves across contexts
    u = UtilityFn.constant()
    rel = RationalityRelation.best_response(TSs)
    contexts = [
        Setting({TAs: a, TRs: r})
        for a in (0, 1)
        for r in ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))
    ]
    verdict = is_nontrivial_agent(ac.high, TSs, rel, u, contexts)
    assert verdict.agent_verdict.is_agent and not verdict


def test_nontrivial_agent_rejects_empty_contexts(ac):
    rel = RationalityRelation.best_response(TAs)
    with pytest.raises(ValueError):
        is_nontrivial_agent(ac.high, TAs, rel, UtilityFn.of_var(obj("R*")), [])


# ---------------------------------------------------------------------------
# First mover


def test_first_mover_shared_utility_coordinates_on_high_payoff():
    pair = shared_utility_pair("fm")
    tables = shared_utility_tables()
    shared = UtilityFn.of_var(obj("U"))
    belief = BeliefModel((TD2,), (shared,))
    ctx = Setting({TD2: 0, mech("U"): tables["coordinate_high"]})
    assert first_mover_response(pair.low, TD1, belief, shared, ctx) == (1,)


def test_first_mover_empty_beliefs_reduces_to_best_response():
    pair = shared_utility_pair("br")
    tables = shared_utility_tables()
    shared = UtilityFn.of_var(obj("U"))
    belief = BeliefModel((), ())
    for d2 in (0, 1):
        for table in tables.values():
            ctx = Setting({TD2: d2, mech("U"): table})
            fm = first_mover_response(pair.low, TD1, belief, shared, ctx)
            br = best_response_set(pair.low, TD1, ctx, shared)
            assert set(fm) == set(br)


def test_first_mover_only_zero_table():
    # oracle: enumerate the 4 joint pure settings by hand; only (0,0) pays
    pair = shared_utility_pair("fm")
    tables = shared_utility_tables()
    shared = UtilityFn.of_var(obj("U"))
    belief = BeliefModel((TD2,), (shared,))
    ctx = Setting({TD2: 1, mech("U"): tables["only_zero"]})
    assert first_mover_response(pair.low, TD1, belief, shared, ctx) == (0,)


def test_first_mover_symmetric_table_ties():
    pair = shared_utility_pair("fm")
    tables = shared_utility_tables()
    shared = UtilityFn.of_var(obj("U"))
    belief = BeliefModel((TD2,), (shared,))
    ctx = Setting({TD2: 0, mech("U"): tables["symmetric"]})
    assert set(first_mover_response(pair.low, TD1, belief, shared, ctx)) == {0, 1}


def test_first_mover_dominates_best_response_payoff():
    # first mover secures the payoff-2 outcome; best response in the same
    # context may settle for payoff 1
    pair = shared_utility_pair("br")
    tables = shared_utility_tables()
    shared = UtilityFn.of_var(obj("U"))
    ctx = Setting({TD2: 0, mech("U"): tables["coordinate_high"]})
    belief = BeliefModel((TD2,), (shared,))
    fm_value = first_mover_response(pair.low, TD1, belief, shared, ctx)[0]
    # first-mover expected utility: believed agent coordinates
    fm_joint = Setting({TD1: fm_value, TD2: fm_value, mech("U"): tables["coordinate_high"]})
    br_value = best_response_set(pair.low, TD1, ctx, shared)[0]
    br_joint = ctx.set(TD1, br_value)
    eu_fm = expected_utility(pair.low, fm_joint, shared)
    eu_br = expected_utility(pair.low, br_joint, shared)
    assert eu_fm == pytest.approx(2.0) and eu_br == pytest.approx(1.0)
    assert eu_fm >= eu_br


def test_first_mover_empty_response_set_reported():
    # matching-pennies beliefs: agent 1 wants to match, agent 2 to mismatch,
    # so no joint setting satisfies both best-response constraints
    pair = shared_utility_pair("br")
    shared = UtilityFn.of_var(obj("U"))
    match = UtilityFn(
        evaluate=lambda s: 1.0 if s[obj("D1")] == s[obj("D2")] else 0.0,
        depends_on=frozenset([obj("D1"), obj("D2")]),
        label="match",
    )
    mismatch = UtilityFn(
        evaluate=lambda s: 1.0 if s[obj("D1")] != s[obj("D2")] else 0.0,
        depends_on=frozenset([obj("D1"), obj("D2")]),
        label="mismatch",
    )
    belief = BeliefModel((TD1, TD2), (match, mismatch))
    ctx = Setting({TD1: 0, TD2: 0})
    with pytest.raises(EmptyResponseSet):
        first_mover_response(pair.low, mech("U"), belief, shared, ctx)


def test_custom_relation_can_reject_everything():
    pair = shared_utility_pair("br")
    shared = UtilityFn.of_var(obj("U"))
    rel = RationalityRelation(TD1, lambda m, ctx, u: ())
    verdict = is_agent(
        pair.low,
        TD1,
        rel,
        shared,
        [Setting({TD2: 0, mech("U"): shared_utility_tables()["coordinate_high"]})],
    )
    assert not verdict


@pytest.mark.parametrize("pair_name", ["br", "fm"])
@pytest.mark.parametrize("relation_name", ["br", "fm"])
def test_each_shared_utility_model_is_an_agent_under_its_own_relation(pair_name, relation_name):
    pair = shared_utility_pair(pair_name)
    shared = UtilityFn.of_var(obj("U"))
    relation = {
        "br": RationalityRelation.best_response(TD1),
        "fm": RationalityRelation.first_mover(TD1, BeliefModel((TD2,), (shared,))),
    }[relation_name]
    contexts = list(enumerate_contexts(pair.low, TD1))
    verdict = is_agent(pair.low, TD1, relation, shared, contexts)
    if pair_name == relation_name:
        assert verdict and verdict.checked == 6
    else:
        assert not verdict
        assert verdict.counterexample == Setting(
            {TD2: 0, mech("U"): shared_utility_tables()["coordinate_high"]}
        )


def _unknown_target_calls():
    pair = shared_utility_pair("br")
    shared = UtilityFn.of_var(obj("U"))
    Z = mech("Z")
    ctx = Setting({TD1: 0, TD2: 0, mech("U"): shared_utility_tables()["coordinate_high"]})
    relation = RationalityRelation.best_response(Z)
    return {
        "best_response_set": lambda: best_response_set(pair.low, Z, ctx, shared),
        "is_agent": lambda: is_agent(pair.low, Z, relation, shared, [ctx]),
        "is_nontrivial_agent": lambda: is_nontrivial_agent(pair.low, Z, relation, shared, [ctx]),
        "first_mover_response": lambda: first_mover_response(
            pair.low, Z, BeliefModel((TD2,), (shared,)), shared, ctx
        ),
        "has_independent_mechanism": lambda: has_independent_mechanism(pair.low.mech_model, Z),
        "enumerate_contexts": lambda: enumerate_contexts(pair.low, Z),
        "prop1_preconditions": lambda: prop1_preconditions(
            pair.low, pair.high, pair.alignment, pair.tau, pair.omega, Z
        ),
    }


@pytest.mark.parametrize("name", sorted(_unknown_target_calls()))
def test_unknown_target_is_rejected(name):
    with pytest.raises(ValueError, match="not a variable of the model"):
        _unknown_target_calls()[name]()


# ---------------------------------------------------------------------------
# Independent mechanisms


def test_bos_payoff_mechanism_independent(bos):
    assert has_independent_mechanism(bos.mech_model, TU1)


def test_bos_decision_mechanism_not_independent(bos):
    # oracle: two contexts with different best responses exist (d2 = 0 vs 1)
    assert not has_independent_mechanism(bos.mech_model, TD1)


def test_single_variable_model_independent():
    from mechscm.core import DeterministicSCM, FiniteDomain

    X = mech("X")
    m = DeterministicSCM(
        variables=(X,),
        domains={X: FiniteDomain((0, 1))},
        assignments={X: lambda ctx: 1},
    )
    assert has_independent_mechanism(m, X)


def test_totality_of_response_sets():
    pair = shared_utility_pair("br")
    shared = UtilityFn.of_var(obj("U"))
    tables = shared_utility_tables()
    for table in tables.values():
        for d2 in (0, 1):
            ctx = Setting({TD2: d2, mech("U"): table})
            assert best_response_set(pair.low, TD1, ctx, shared)
            belief = BeliefModel((TD2,), (shared,))
            assert first_mover_response(pair.low, TD1, belief, shared, ctx)
