"""Core model algebra: projection, solvers, induced distributions."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzgen
from mechscm.abstraction import full_subset_suite, identity_maps
from mechscm.examples import actor_critic_pair
from mechscm.core import (
    EMPTY_SETTING,
    BernoulliAssign,
    DeterministicAssign,
    DeterministicSCM,
    FiniteDomain,
    IncompleteSolution,
    KernelAssign,
    MechanizedSCM,
    NoConvergence,
    NonFiniteDomain,
    ParameterizedSCM,
    RealBox,
    SamplerAssign,
    Setting,
    Table,
    distribution,
    induce_scm,
    mech,
    obj,
    project,
    solution_distributions,
    solution_set,
    solve_enumerate,
    solve_fixed_point,
)

X1 = mech("X1")
X2 = mech("X2")


# ---------------------------------------------------------------------------
# Projection


def test_projection_paper_example():
    s = Setting({X1: 4.0, X2: 5.0})
    assert project(s, {X1}) == Setting({X1: 4.0})
    assert project(Setting({X2: 5.0}), {X1}) == EMPTY_SETTING
    assert project(EMPTY_SETTING, {X1}) == EMPTY_SETTING


@given(
    st.dictionaries(
        st.sampled_from([X1, X2, mech("X3")]),
        st.integers(min_value=-5, max_value=5),
        max_size=3,
    ),
    st.sets(st.sampled_from([X1, X2, mech("X3")]), max_size=3),
)
def test_projection_idempotent(assignments, targets):
    s = Setting(assignments)
    once = project(s, targets)
    assert project(once, targets) == once
    assert once.vars <= targets


def test_setting_union_conflict():
    s = Setting({X1: 1})
    with pytest.raises(ValueError):
        s.union(Setting({X1: 2}))
    assert s.union(Setting({X2: 3})) == Setting({X1: 1, X2: 3})


# ---------------------------------------------------------------------------
# solve_enumerate


def copy_cycle():
    # F_A(b) = b, F_B(a) = a over {0, 1}
    A, B = mech("A"), mech("B")
    dom = FiniteDomain((0, 1))
    return DeterministicSCM(
        variables=(A, B),
        domains={A: dom, B: dom},
        assignments={A: lambda c: c[B], B: lambda c: c[A]},
    )


def test_enumerate_copy_cycle_matches_bruteforce():
    m = copy_cycle()
    A, B = m.variables
    # oracle: brute force over the 4 joint settings, independent of the solver
    oracle = set()
    for a, b in itertools.product((0, 1), repeat=2):
        if b == a and a == b:  # F_A(b)=b equals a, F_B(a)=a equals b
            oracle.add((a, b))
    got = solve_enumerate(m)
    assert {(s[A], s[B]) for s in got} == oracle == {(0, 0), (1, 1)}


def test_enumerate_intervention_overrides_mechanism():
    X = mech("X")
    m = DeterministicSCM(
        variables=(X,),
        domains={X: FiniteDomain((0, 1))},
        assignments={X: lambda c: 1},
    )
    sols = solve_enumerate(m, Setting({X: 0}))
    assert sols == frozenset([Setting({X: 0})])


def test_enumerate_intervention_fidelity():
    m = copy_cycle()
    A, B = m.variables
    iv = Setting({A: 1})
    for s in solve_enumerate(m, iv):
        assert project(s, {A}) == iv


def test_enumerate_non_finite_domain():
    X = mech("X")
    m = DeterministicSCM(
        variables=(X,),
        domains={X: RealBox((0.0,), (1.0,), grid_step=None)},
        assignments={X: lambda c: 0.5},
    )
    with pytest.raises(NonFiniteDomain):
        solve_enumerate(m)


# ---------------------------------------------------------------------------
# solve_fixed_point


def affine_cycle(a=0.5, b=0.5, c=1.0):
    # x = a*y, y = b*x + c
    x, y = mech("x"), mech("y")
    box = RealBox((-10.0,), (10.0,), grid_step=None)
    return DeterministicSCM(
        variables=(x, y),
        domains={x: box, y: box},
        assignments={x: lambda s: a * s[y], y: lambda s: b * s[x] + c},
    )


def test_fixed_point_affine_cycle():
    # oracle: solving the 2x2 system by hand gives x = 2/3, y = 4/3
    m = affine_cycle()
    x, y = m.variables
    s = solve_fixed_point(m, init=Setting({x: 0.0, y: 0.0}), damping=1.0, tol=1e-10)
    assert s[x] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert s[y] == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_fixed_point_full_intervention_short_circuits():
    m = affine_cycle()
    x, y = m.variables
    iv = Setting({x: 3.0, y: -1.0})
    assert solve_fixed_point(m, intervention=iv, max_iter=0) == iv


def test_fixed_point_divergent_cycle():
    # spectral radius 4 > 1, so undamped Jacobi diverges
    m = affine_cycle(a=2.0, b=2.0, c=1.0)
    x, y = m.variables
    with pytest.raises(NoConvergence) as exc:
        solve_fixed_point(m, init=Setting({x: 1.0, y: 1.0}), damping=1.0, max_iter=200)
    assert exc.value.residual > 1.0 or not math.isfinite(exc.value.residual)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_fixed_point_success_lies_in_enumeration(seed):
    # random functional tables over {0,1,2}^2; any fixed-point success must be
    # a member of the brute-force solution set
    import random

    r = random.Random(seed)
    A, B = mech("A"), mech("B")
    dom = FiniteDomain((0, 1, 2))
    fa = {b: r.choice((0, 1, 2)) for b in (0, 1, 2)}
    fb = {a: r.choice((0, 1, 2)) for a in (0, 1, 2)}
    m = DeterministicSCM(
        variables=(A, B),
        domains={A: dom, B: dom},
        assignments={A: lambda c: fa[c[B]], B: lambda c: fb[c[A]]},
    )
    init = Setting({A: r.choice((0, 1, 2)), B: r.choice((0, 1, 2))})
    try:
        s = solve_fixed_point(m, init=init, tol=1e-12, max_iter=50)
    except NoConvergence:
        return
    assert s in solve_enumerate(m)


# ---------------------------------------------------------------------------
# Mechanized models and distributions


def two_var_chain():
    """A -> B with B copying A; mechanism layer sets P(A = 1) directly."""
    A, B = obj("A"), obj("B")
    tA, tB = mech("A"), mech("B")
    p_dom = RealBox((0.0,), (1.0,), grid_step=0.5)
    unit = FiniteDomain((1,))
    objm = ParameterizedSCM(
        variables=(A, B),
        parents={A: (), B: (A,)},
        domains={A: FiniteDomain((0, 1)), B: FiniteDomain((0, 1))},
        param_domains={A: p_dom, B: unit},
        assigns={
            A: BernoulliAssign(lambda th, pa: th),
            B: DeterministicAssign(lambda th, pa: pa[A]),
        },
    )
    mechm = DeterministicSCM(
        variables=(tA, tB),
        domains={tA: p_dom, tB: unit},
        assignments={tA: lambda c: 1.0, tB: lambda c: 1},
        parents={tA: frozenset(), tB: frozenset()},
    )
    return MechanizedSCM(mechm, objm)


def test_deterministic_chain_distribution():
    m = two_var_chain()
    A, B = m.object_vars
    ind = induce_scm(m, Setting({mech("A"): 1.0, mech("B"): 1}))
    d = distribution(ind)
    assert d.prob(Setting({A: 1, B: 1})) == pytest.approx(1.0, abs=1e-12)
    assert len(d.atoms) == 1


def test_induce_requires_full_solution():
    m = two_var_chain()
    with pytest.raises(IncompleteSolution):
        induce_scm(m, Setting({mech("A"): 1.0}))


def test_constant_mechanisms_induce_same_scm_any_context():
    m = two_var_chain()
    s1 = solution_set(m.mech_model)
    assert len(s1) == 1
    (sol,) = s1
    d1 = distribution(induce_scm(m, sol))
    d2 = distribution(induce_scm(m, Setting({mech("A"): 1.0, mech("B"): 1})))
    assert d1.atoms == d2.atoms


def test_exact_distribution_markovian_factorization():
    """P(a, b) must factor as P(a) * P(b | a) recovered from the joint."""
    A, B = obj("A"), obj("B")
    p_dom = RealBox((0.0,), (1.0,), grid_step=None)
    objm = ParameterizedSCM(
        variables=(A, B),
        parents={A: (), B: (A,)},
        domains={A: FiniteDomain((0, 1)), B: FiniteDomain((0, 1))},
        param_domains={A: p_dom, B: p_dom},
        assigns={
            A: BernoulliAssign(lambda th, pa: th),
            B: BernoulliAssign(lambda th, pa: th if pa[A] == 1 else 1.0 - th),
        },
    )
    ind = objm.at({A: 0.3, B: 0.8})
    d = distribution(ind)
    pa = {a: d.marginal([A]).prob(Setting({A: a})) for a in (0, 1)}
    for a, b in itertools.product((0, 1), repeat=2):
        joint = d.prob(Setting({A: a, B: b}))
        cond = joint / pa[a]
        da = d.marginal([A, B])
        assert abs(joint - pa[a] * cond) <= 1e-10
        assert da.prob(Setting({A: a, B: b})) == pytest.approx(joint, abs=1e-12)
    # conditional independence check: P(b | a) from joint equals the kernel
    assert d.prob(Setting({A: 1, B: 1})) / pa[1] == pytest.approx(0.8, abs=1e-10)
    assert d.prob(Setting({A: 0, B: 1})) / pa[0] == pytest.approx(0.2, abs=1e-10)


def test_sampling_consistent_with_exact():
    A, B = obj("A"), obj("B")
    p_dom = RealBox((0.0,), (1.0,), grid_step=None)
    objm = ParameterizedSCM(
        variables=(A, B),
        parents={A: (), B: (A,)},
        domains={A: FiniteDomain((0, 1)), B: FiniteDomain((0, 1))},
        param_domains={A: p_dom, B: p_dom},
        assigns={
            A: BernoulliAssign(lambda th, pa: th),
            B: BernoulliAssign(lambda th, pa: th if pa[A] == 1 else 1.0 - th),
        },
    )
    ind = objm.at({A: 2.0 / 3.0, B: 0.25})
    exact = distribution(ind)
    emp = distribution(ind, n=100_000, seed=7)
    assert emp.seed == 7 and emp.n_samples == 100_000
    assert exact.tv_distance(emp) < 0.02
    marg = emp.marginal([A])
    assert marg.seed == 7 and marg.n_samples == 100_000
    assert all(s.vars == {A} for s, _ in marg.atoms)
    assert exact.marginal([A]).tv_distance(marg) < 0.02


def test_exact_mode_rejects_continuous_noise():
    A = obj("A")
    objm = ParameterizedSCM(
        variables=(A,),
        parents={A: ()},
        domains={A: RealBox((0.0,), (1.0,), grid_step=None)},
        param_domains={A: FiniteDomain((1,))},
        assigns={A: SamplerAssign(lambda th, pa, rng: rng.random())},
    )
    with pytest.raises(NonFiniteDomain):
        distribution(objm.at({A: 1}))
    emp = distribution(objm.at({A: 1}), n=10, seed=0)
    assert emp.n_samples == 10


def test_large_continuous_sample_passes_the_sum_guard():
    # 100 000 distinct atoms of fl(1/n) each: a naive float sum drifts past 1e-12
    A = obj("A")
    objm = ParameterizedSCM(
        variables=(A,),
        parents={A: ()},
        domains={A: RealBox((0.0,), (1.0,), grid_step=None)},
        param_domains={A: FiniteDomain((1,))},
        assigns={A: SamplerAssign(lambda th, pa, rng: rng.random())},
    )
    emp = distribution(objm.at({A: 1}), n=100_000, seed=0)
    assert emp.n_samples == 100_000
    assert len(emp.atoms) == 100_000


@pytest.mark.parametrize("n", [0, -1])
def test_sample_mode_rejects_empty_count(n):
    # an empty sample would divide by zero in expectation
    m = two_var_chain()
    ind = m.obj_model.at({obj("A"): 0.5, obj("B"): 1})
    with pytest.raises(ValueError, match="n >= 1"):
        distribution(ind, n=n)
    with pytest.raises(ValueError, match="n >= 1"):
        solution_distributions(m, n=n)


def test_sampled_prob_reads_the_frequencies():
    m = two_var_chain()
    A, B = m.object_vars
    d = distribution(m.obj_model.at({A: 0.5, B: 1}), n=1000, seed=1)
    assert d.n_samples == 1000 and d.seed == 1
    assert d.prob(Setting({A: 1, B: 1})) == pytest.approx(0.5, abs=0.05)
    assert d.prob(Setting({A: 1, B: 1})) + d.prob(Setting({A: 0, B: 0})) == pytest.approx(1.0)


def test_out_of_domain_intervention_value_rejected():
    high = actor_critic_pair().high
    with pytest.raises(ValueError, match="outside the domain"):
        solution_distributions(high, Setting({mech("A*"): 7}))


def test_solution_distributions_fully_intervened_is_single():
    m = two_var_chain()
    iv = Setting({mech("A"): 0.5, mech("B"): 1})
    dists = solution_distributions(m, iv)
    assert len(dists) == 1
    A, B = m.object_vars
    # P(A=1,B=1) = 0.5 at theta = 0.5
    assert dists[0].prob(Setting({A: 1, B: 1})) == pytest.approx(0.5, abs=1e-12)


def test_table_value_semantics():
    t = Table.from_dict({(0, 0): 1.0, (1, 1): 2.0, (0, 1): 0.0, (1, 0): 0.0})
    assert t((1, 1)) == 2.0
    assert t == Table.from_dict({(1, 1): 2.0, (0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0})
    assert hash(t) == hash(Table.from_dict({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 2.0}))


def test_distribution_sum_guard():
    A = obj("A")
    with pytest.raises(ValueError):
        from mechscm.core import Distribution

        Distribution(atoms=((Setting({A: 0}), 0.5),))


def test_kernel_assign_sampling_matches_kernel():
    A = obj("A")
    objm = ParameterizedSCM(
        variables=(A,),
        parents={A: ()},
        domains={A: FiniteDomain(("a", "b", "c"))},
        param_domains={A: FiniteDomain((1,))},
        assigns={A: KernelAssign(lambda th, pa: {"a": 0.2, "b": 0.5, "c": 0.3})},
    )
    ind = objm.at({A: 1})
    exact = distribution(ind)
    emp = distribution(ind, n=50_000, seed=3)
    assert exact.tv_distance(emp) < 0.02


@given(st.integers(0, 2**16), st.integers(0, 199))
@settings(max_examples=60, deadline=None)
def test_solution_set_agrees_with_enumeration_on_fuzz_models(seed, index):
    # the forward solver on acyclic mechanism layers, enumeration on cyclic
    # ones; both must give the brute-force solution set
    low = fuzzgen.random_case(seed, index).low
    _, _, w = identity_maps(low)
    for iv in full_subset_suite(w)[:30]:
        assert solution_set(low.mech_model, iv) == solve_enumerate(low.mech_model, iv)
