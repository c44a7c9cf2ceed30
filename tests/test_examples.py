"""The worked models: equilibria, claimed distributions, and cross-checks
between the analytic solution registrations and the grid solver."""

import itertools
import math

import pytest

from mechscm.core import (
    Setting,
    Table,
    distribution,
    induce_scm,
    mech,
    obj,
    solution_distributions,
    solution_set,
    solve_enumerate,
)
from mechscm.examples import (
    BOS_PAYOFF_1,
    BOS_PAYOFF_2,
    actor_critic_pair,
    battle_of_sexes,
    bos_analytic_equilibria,
    shared_utility_pair,
    shared_utility_tables,
)
from mechscm.rationality import UtilityFn, expected_utility

TD1, TD2, TU1, TU2 = mech("D1"), mech("D2"), mech("U1"), mech("U2")


@pytest.fixture(scope="module")
def bos():
    return battle_of_sexes()


def test_bos_three_equilibria(bos):
    got = bos_analytic_equilibria()
    assert got == {(1.0, 1.0), (0.0, 0.0), (2.0 / 3.0, 1.0 / 3.0)}
    sols = solution_set(bos.mech_model)
    assert len(sols) == 3


def test_solution_set_checks_the_intervention_before_the_analytic_set(bos):
    # the registered closed form answers only interventions inside the
    # domains, as the generic solvers do
    with pytest.raises(ValueError, match="outside the domain of ~U1"):
        solution_set(bos.mech_model, Setting({TU1: BOS_PAYOFF_2}))
    assert len(solution_set(bos.mech_model, Setting({TU1: BOS_PAYOFF_1}))) == 3


def test_bos_expected_payoffs_at_equilibria(bos):
    u1 = UtilityFn.of_var(obj("U1"))
    u2 = UtilityFn.of_var(obj("U2"))

    def full(d1, d2):
        return Setting({TD1: d1, TD2: d2, TU1: BOS_PAYOFF_1, TU2: BOS_PAYOFF_2})

    assert expected_utility(bos, full(1.0, 1.0), u1) == pytest.approx(2.0)
    assert expected_utility(bos, full(1.0, 1.0), u2) == pytest.approx(1.0)
    # oracle: both bilinear forms evaluated at (2/3, 1/3) by hand give 2/3
    assert expected_utility(bos, full(2 / 3, 1 / 3), u1) == pytest.approx(2 / 3, abs=1e-12)
    assert expected_utility(bos, full(2 / 3, 1 / 3), u2) == pytest.approx(2 / 3, abs=1e-12)


def test_bos_mixed_equilibrium_distribution(bos):
    # oracle: product of the two marginals, P(O,O) = (2/3)(1/3) = 2/9
    sol = Setting({TD1: 2 / 3, TD2: 1 / 3, TU1: BOS_PAYOFF_1, TU2: BOS_PAYOFF_2})
    d = distribution(induce_scm(bos, sol))
    assert d.prob(Setting({obj("D1"): "O", obj("D2"): "O"}).union(
        Setting({obj("U1"): 2, obj("U2"): 1})
    )) == pytest.approx(2.0 / 9.0, abs=1e-12)
    marg = d.marginal([obj("D1"), obj("D2")])
    assert marg.prob(Setting({obj("D1"): "O", obj("D2"): "O"})) == pytest.approx(2 / 9, abs=1e-12)


def test_bos_solution_distributions_three(bos):
    dists = solution_distributions(bos, Setting())
    assert len(dists) == 3


def test_bos_grid_solver_cross_check():
    """Grid enumeration (no analytic registration) must find exactly the pure
    equilibria; every grid solution lies within one grid step of a registered
    one, and each registered equilibrium satisfies epsilon-best-response."""
    bos = battle_of_sexes(grid_step=0.01)
    grid_sols = solve_enumerate(bos.mech_model)
    pairs = {(s[TD1], s[TD2]) for s in grid_sols}
    assert pairs == {(0.0, 0.0), (1.0, 1.0)}
    analytic = bos_analytic_equilibria()
    for p in pairs:
        assert any(abs(p[0] - q[0]) <= 0.01 and abs(p[1] - q[1]) <= 0.01 for q in analytic)
    # epsilon-best-response residual of every registered equilibrium: each
    # player's value must be within 1e-9 of its best achievable payoff
    u = {TD1: UtilityFn.of_var(obj("U1")), TD2: UtilityFn.of_var(obj("U2"))}
    for d1, d2 in analytic:
        full = Setting({TD1: d1, TD2: d2, TU1: BOS_PAYOFF_1, TU2: BOS_PAYOFF_2})
        for player, other_value in ((TD1, d1), (TD2, d2)):
            eu_here = expected_utility(bos, full, u[player])
            best = max(
                expected_utility(bos, full.set(player, v), u[player])
                for v in [0.0, 0.25, 0.5, 0.75, 1.0, d1, d2]
            )
            assert eu_here >= best - 1e-9


def test_bos_runs_quickly(bos):
    import time

    start = time.perf_counter()
    sols = solution_set(bos.mech_model)
    assert len(sols) == 3
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Actor-critic


def test_actor_critic_solutions_agree_on_action():
    pair = actor_critic_pair()
    TA, TAs = mech("A"), mech("A*")
    iv_low = Setting({mech("S"): (0.1, 0.9), mech("R"): (0.2, 0.8)})
    iv_high = Setting({mech("S*"): (0.1, 0.9), mech("R*"): (0.2, 0.8)})
    (low_sol,) = solution_set(pair.low.mech_model, iv_low)
    (high_sol,) = solution_set(pair.high.mech_model, iv_high)
    assert low_sol[TA] == 1 and high_sol[TAs] == 1
    # the critic's value estimate at the solution
    assert low_sol[mech("Q")] == pytest.approx((0.26, 0.74), abs=1e-12)


def test_actor_critic_tie_resolved_toward_action_one():
    pair = actor_critic_pair()
    iv_low = Setting({mech("S"): (0.5, 0.5), mech("R"): (0.3, 0.7)})
    iv_high = Setting({mech("S*"): (0.5, 0.5), mech("R*"): (0.3, 0.7)})
    (low_sol,) = solution_set(pair.low.mech_model, iv_low)
    (high_sol,) = solution_set(pair.high.mech_model, iv_high)
    assert low_sol[mech("A")] == 1 and high_sol[mech("A*")] == 1


def test_actor_critic_unintervened_defaults():
    pair = actor_critic_pair()
    (sol,) = solution_set(pair.low.mech_model)
    assert sol[mech("R")] == (0.2, 0.8) and sol[mech("S")] == (0.1, 0.9)
    assert sol[mech("A")] == 1


def test_actor_critic_reward_distribution():
    # oracle: P(R=1 | A=1) = s1*r1 + (1-s1)*r0 = 0.74 by hand
    pair = actor_critic_pair()
    iv = Setting({mech("S"): (0.1, 0.9), mech("R"): (0.2, 0.8)})
    (sol,) = solution_set(pair.low.mech_model, iv)
    d = distribution(induce_scm(pair.low, sol))
    r_marg = d.marginal([obj("R")])
    assert r_marg.prob(Setting({obj("R"): 1})) == pytest.approx(0.74, abs=1e-12)


# ---------------------------------------------------------------------------
# Shared utility


def test_shared_utility_br_two_solutions():
    pair = shared_utility_pair("br")
    u = shared_utility_tables()["coordinate_high"]
    sols = solution_set(pair.low.mech_model, Setting({mech("U"): u}))
    picks = {(s[mech("D1")], s[mech("D2")]) for s in sols}
    assert picks == {(0, 0), (1, 1)}


def test_shared_utility_fm_single_solution():
    pair = shared_utility_pair("fm")
    u = shared_utility_tables()["coordinate_high"]
    sols = solution_set(pair.low.mech_model, Setting({mech("U"): u}))
    picks = {(s[mech("D1")], s[mech("D2")]) for s in sols}
    assert picks == {(1, 1)}


def test_shared_utility_high_model_single_optimum():
    pair = shared_utility_pair("br")
    u = shared_utility_tables()["coordinate_high"]
    sols = solution_set(pair.high.mech_model, Setting({mech("U*"): u}))
    assert {s[mech("D*")] for s in sols} == {(1, 1)}


def test_shared_utility_symmetric_table_counts():
    # oracle: enumerate the 4 joint pure settings by hand
    u = shared_utility_tables()["symmetric"]
    br = shared_utility_pair("br")
    sols = solution_set(br.low.mech_model, Setting({mech("U"): u}))
    assert {(s[mech("D1")], s[mech("D2")]) for s in sols} == {(0, 0), (1, 1)}
    from mechscm.rationality import BeliefModel, first_mover_response

    fm = shared_utility_pair("fm")
    shared = UtilityFn.of_var(obj("U"))
    belief = BeliefModel((mech("D2"),), (shared,))
    ctx = Setting({mech("D2"): 0, mech("U"): u})
    assert set(first_mover_response(fm.low, mech("D1"), belief, shared, ctx)) == {0, 1}
