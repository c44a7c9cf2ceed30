"""Core model algebra: projection, solvers, induced distributions."""

import dataclasses
import functools
import itertools
import math
import numbers
import os
import pickle
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzgen
from mechscm.abstraction import full_subset_suite, identity_maps, push_omega, push_tau
from mechscm.examples import actor_critic_pair
from mechscm.quotient import quotient_abstraction
from mechscm.core import (
    EMPTY_SETTING,
    TABLES_KEPT,
    BernoulliAssign,
    DeterministicAssign,
    DeterministicSCM,
    Distribution,
    FiniteDomain,
    IncompleteSolution,
    KernelAssign,
    Layer,
    MechanizedSCM,
    MechSCMError,
    NonFiniteDomain,
    ParameterizedSCM,
    RealBox,
    SamplerAssign,
    Setting,
    Table,
    all_settings,
    canon_key,
    distribution,
    exact_distribution,
    induce_scm,
    mech,
    obj,
    setting_sort_key,
    solution_distributions,
    solution_set,
    solve_acyclic,
    solve_enumerate,
    VarId,
)

X1 = mech("X1")
X2 = mech("X2")


def test_varid_hash_is_the_dataclass_hash():
    # the cached hash is the value the frozen dataclass computes, so set
    # iteration orders, and every output built from them, stay the same
    for name in ("A", "S*", "V0", ""):
        for layer in Layer:
            assert hash(VarId(name, layer)) == hash((name, layer))
    # str hashes differ between processes: a VarId pickled elsewhere must be
    # re-hashed here, or set and dict lookups would miss it
    code = (
        "import pickle, sys; from mechscm.core import obj; "
        "sys.stdout.buffer.write(pickle.dumps(obj('A')))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    loaded = pickle.loads(done.stdout)
    assert hash(loaded) == hash(("A", Layer.OBJECT)) and loaded in {obj("A")}


def test_paired_is_cached_and_equal_to_a_fresh_varid():
    a = obj("A")
    m = a.paired(Layer.MECHANISM)
    assert m is a.paired(Layer.MECHANISM) and a.paired(Layer.OBJECT) is a
    assert m.paired(Layer.OBJECT) == a and m.paired(Layer.OBJECT) is m.paired(Layer.OBJECT)
    fresh = VarId("A", Layer.MECHANISM)
    assert m is not fresh and m == fresh and hash(m) == hash(fresh) and m._key == fresh._key


def test_setting_hash_is_the_frozenset_hash_on_every_path():
    # the public constructor hashes a setting at once, the package's own
    # settings on first use; every path must give hash(frozenset(items))
    contexts = []

    def recorded(fn):
        def assign(ctx):
            contexts.append(ctx)
            return fn(ctx)

        return assign

    pair = actor_critic_pair(grid_step=0.5)
    mm = pair.low.mech_model
    recording = DeterministicSCM(
        mm.variables, mm.domains, {v: recorded(f) for v, f in mm.assignments.items()}, mm.parents
    )
    sol = solve_acyclic(recording, Setting({mech("S"): (0.5, 0.5)}))
    atoms = [s for s, _ in distribution(induce_scm(pair.low, sol)).atoms]
    cycle = DeterministicSCM(
        variables=(X1, X2),
        domains={X1: FiniteDomain((0, 1)), X2: FiniteDomain((0, 1))},
        assignments={X1: lambda c: c[X2], X2: lambda c: c[X1]},
    )
    s = Setting({X1: 0, X2: (1, 2)})
    made = [
        s, s.project([X1]), s.drop([X1]), s.union({mech("X3"): 1}), s.set(X1, 1), EMPTY_SETTING,
        s.union(Setting({mech("X3"): 1}), Setting({X1: 0})),
        sol, *contexts, *atoms, *(push_tau(pair.alignment, pair.tau, a) for a in atoms),
        push_omega(pair.alignment, pair.omega, Setting({mech("S"): (0.5, 0.5)})),
        *solve_enumerate(cycle),
    ]
    assert len(contexts) == 5  # one per variable that S's intervention leaves free
    for x in made + [pickle.loads(pickle.dumps(x)) for x in made]:
        assert hash(x) == hash(frozenset(x.items())) == hash(Setting(dict(x)))
    # a setting pickled in a process with other str hashes is re-hashed here
    code = (
        "import pickle, sys; from mechscm.core import Setting, obj; "
        "sys.stdout.buffer.write(pickle.dumps(Setting({obj('A'): 1, obj('B'): ('x', 2)})))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    loaded = pickle.loads(done.stdout)
    assert hash(loaded) == hash(frozenset(loaded.items()))
    assert loaded in {Setting({obj("A"): 1, obj("B"): ("x", 2)})}


def test_setting_rejects_unhashable_values():
    with pytest.raises(TypeError):
        Setting({X1: [1]})


# ---------------------------------------------------------------------------
# Projection


def test_projection_paper_example():
    s = Setting({X1: 4.0, X2: 5.0})
    assert s.project({X1}) == Setting({X1: 4.0})
    assert Setting({X2: 5.0}).project({X1}) == EMPTY_SETTING
    assert EMPTY_SETTING.project({X1}) == EMPTY_SETTING


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
    once = s.project(targets)
    assert once.project(targets) == once
    assert once.vars <= targets


def two_operand_union(s: Setting, other) -> Setting:
    """The merge rule for one operand, always hashing the result; a left fold
    of it is the reference for ``Setting.union``'s one-call merge."""
    merged = dict(s._items)
    for v, x in dict(other).items():
        if v in merged and merged[v] != x:
            raise ValueError(f"conflicting values for {v!r}")
        merged[v] = x
    return Setting(merged)


UNION_VARS = (X1, X2, mech("X3"), obj("X1"))
# each tuple holds equal values of other types or identities; two tuples conflict
EQUAL_VALUES = (
    (1, 1.0, np.float64(1.0), True), ((1, 2), (1.0, 2)), (Table((0,), (1,)), Table((0,), (1,))), ("a",)
)


@st.composite
def union_operands(draw):
    """A first mapping and up to four operands, each flagged to become a
    Setting.  A variable's values come from one tuple of EQUAL_VALUES, one in
    ten from any tuple, so most merges keep a later equal value and some conflict."""
    kind = {v: draw(st.integers(0, len(EQUAL_VALUES) - 1)) for v in UNION_VARS}

    def mapping() -> dict:
        out = {}
        for v in draw(st.lists(st.sampled_from(UNION_VARS), unique=True)):
            stray = draw(st.integers(0, 9)) == 0
            k = draw(st.integers(0, len(EQUAL_VALUES) - 1)) if stray else kind[v]
            out[v] = draw(st.sampled_from(EQUAL_VALUES[k]))
        return out

    first = mapping()
    return first, [(mapping(), draw(st.booleans())) for _ in range(draw(st.integers(0, 4)))]


def test_setting_union_conflict():
    s = Setting({X1: 1})
    with pytest.raises(ValueError, match="conflicting values for ~X1"):
        s.union(Setting({X1: 2}))
    with pytest.raises(ValueError, match="conflicting values for ~X1"):
        s.union(Setting({X2: 3}), {X1: 2})
    assert s.union(Setting({X2: 3})) == Setting({X1: 1, X2: 3})
    assert s.union() == s
    kept = s.union({X1: 1.0})  # of equal values the later one is kept, in the first position
    assert type(kept[X1]) is float and list(s.union({X2: 0}, Setting({X1: 1.0}))) == [X1, X2]


@settings(max_examples=200, deadline=None)
@given(union_operands())
def test_setting_union_is_a_fold_of_the_two_operand_merge(drawn):
    first, others = drawn
    s = Setting(first)
    operands = [Setting(o) if as_setting else dict(o) for o, as_setting in others]
    try:
        want = functools.reduce(two_operand_union, operands, s)
    except ValueError as e:
        with pytest.raises(ValueError) as got_error:
            s.union(*operands)
        assert str(got_error.value) == str(e)
        return
    got = s.union(*operands)
    assert got == want and list(got) == list(want)
    assert all(got[v] is want[v] for v in want)
    assert hash(got) == hash(Setting(dict(got))) == hash(want)


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


def test_solve_acyclic_passes_each_assignment_the_values_resolved_before_it():
    A, B, C = mech("A"), mech("B"), mech("C")
    seen = {}

    def recorded(v, fn):
        def assign(ctx):
            seen[v] = ctx
            return fn(ctx)

        return assign

    dom = FiniteDomain((0, 1, 2))
    m = DeterministicSCM(
        variables=(C, B, A),  # declaration order is not resolution order
        domains={A: dom, B: dom, C: dom},
        assignments={
            A: recorded(A, lambda c: 1),
            B: recorded(B, lambda c: c[A]),
            C: recorded(C, lambda c: c[A] + c[B]),
        },
        parents={B: frozenset({A}), C: frozenset({A, B})},
    )
    assert solve_acyclic(m) == Setting({A: 1, B: 1, C: 2})
    assert seen == {A: EMPTY_SETTING, B: Setting({A: 1}), C: Setting({A: 1, B: 1})}
    seen.clear()
    assert solve_acyclic(m, Setting({B: 0})) == Setting({A: 1, B: 0, C: 1})
    assert seen == {A: EMPTY_SETTING, C: Setting({A: 1, B: 0})}
    # a variable resolved later is absent, not a placeholder
    reads_later = DeterministicSCM(
        variables=(A, B),
        domains={A: dom, B: dom},
        assignments={A: lambda c: c[B], B: lambda c: 0},
        parents={},
    )
    with pytest.raises(KeyError):
        solve_acyclic(reads_later)


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
        assert s.project({A}) == iv


def test_enumerate_non_finite_domain():
    X = mech("X")
    m = DeterministicSCM(
        variables=(X,),
        domains={X: RealBox((0.0,), (1.0,), grid_step=None)},
        assignments={X: lambda c: 0.5},
    )
    with pytest.raises(NonFiniteDomain):
        solve_enumerate(m)


def test_all_settings_is_the_product_and_checks_at_call():
    X, Y, Z = mech("X"), mech("Y"), mech("Z")
    domains = {
        X: FiniteDomain((0, 1)),
        Y: FiniteDomain(("a", "b", "c")),
        Z: RealBox((0.0,), (1.0,), grid_step=None),
    }
    got = list(all_settings([X, Y], domains))
    assert got == [Setting({X: x, Y: y}) for x in (0, 1) for y in ("a", "b", "c")]
    assert [list(s) for s in got] == [[X, Y]] * 6
    assert list(all_settings([], domains)) == [EMPTY_SETTING]
    with pytest.raises(NonFiniteDomain, match="~Z"):
        all_settings([X, Z], domains)  # raised before any iteration


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


def test_sample_mode_rejects_a_fractional_count():
    # range(n) would raise a bare TypeError
    m = two_var_chain()
    ind = m.obj_model.at({obj("A"): 0.5, obj("B"): 1})
    with pytest.raises(ValueError, match="integer n >= 1, got 2.5"):
        distribution(ind, n=2.5)
    with pytest.raises(ValueError, match="integer n >= 1, got 2.5"):
        solution_distributions(m, n=2.5)


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


def _solution_distributions_general(m, iv, push=None):
    """solution_distributions without its one-solution shortcut: every
    solution in canonical order, equal distributions kept once."""
    out = []
    for s in sorted(solution_set(m.mech_model, iv), key=setting_sort_key):
        d = distribution(induce_scm(m, s))
        d = d if push is None else d.map_atoms(push)
        if d not in out:
            out.append(d)
    return tuple(out)


def test_solution_distributions_equals_the_general_path():
    counts = {True: 0, False: 0}  # by whether there is exactly one solution
    for index in range(16):  # case 1 of seed 0 has some with 0 and 2
        case = fuzzgen.random_case(0, index)
        high, a, t, w = quotient_abstraction(case.low, case.groups)
        tau = lambda s: push_tau(a, t, s)
        for iv in full_subset_suite(w)[:12]:
            high_iv = push_omega(a, w, iv)
            for model, i, push in ((case.low, iv, None), (case.low, iv, tau), (high, high_iv, None)):
                got = solution_distributions(model, i, push=push)
                expected = _solution_distributions_general(model, i, push)
                assert got == expected and list(map(hash, got)) == list(map(hash, expected))
                counts[len(solution_set(model.mech_model, i)) == 1] += 1
    assert counts[True] and counts[False]


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


@pytest.mark.parametrize(
    "build",
    [
        lambda s0, s1: Distribution(atoms=((s0, 0.5),)),
        lambda s0, s1: Distribution(atoms=((s0, math.nan),)),
        lambda s0, s1: Distribution(atoms=((s0, 1.5), (s1, -0.5))),
        # a NaN entry reaches the check instead of being filtered out
        lambda s0, s1: exact_distribution({s0: 1.0, s1: math.nan}),
    ],
    ids=["sum-0.5", "nan", "negative", "exact-nan"],
)
def test_distribution_sum_guard(build):
    A = obj("A")
    with pytest.raises(ValueError):
        build(Setting({A: 0}), Setting({A: 1}))


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


def test_tv_distance_is_the_same_in_every_process():
    # frequencies c / n summed in another order can differ in the last bit,
    # so the sum must follow the atoms, not the string hashes of a set
    code = (
        "import fuzzgen; from mechscm import core\n"
        "for k in range(40):\n"
        "    model = fuzzgen.random_case(0, k).low\n"
        "    sol = min(core.solution_set(model.mech_model), key=core.setting_sort_key)\n"
        "    scm = core.induce_scm(model, sol)\n"
        "    d1, d2 = core.distribution(scm, n=37, seed=1), core.distribution(scm, n=41, seed=2)\n"
        "    print(d1.tv_distance(d2).hex())\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1


@given(st.integers(0, 2**16), st.integers(0, 199))
@settings(max_examples=60, deadline=None)
def test_solution_set_agrees_with_enumeration_on_fuzz_models(seed, index):
    # the forward solver on acyclic mechanism layers, enumeration on cyclic
    # ones; both must give the brute-force solution set
    low = fuzzgen.random_case(seed, index).low
    _, _, w = identity_maps(low)
    for iv in full_subset_suite(w)[:30]:
        assert solution_set(low.mech_model, iv) == solve_enumerate(low.mech_model, iv)


# ---------------------------------------------------------------------------
# Sampled against exact


SAMPLED_N = 2000
SAMPLED_FAILURE = 1e-6


def test_sampled_frequencies_within_binomial_bound_of_exact():
    """A sampled frequency f of an atom with exact probability p is the mean
    of SAMPLED_N Bernoulli(p) draws, so by Hoeffding's inequality
    P(|f - p| > eps) <= 2 exp(-2 SAMPLED_N eps^2).  eps is chosen so that
    the union bound over every atom checked gives a correct sampler at most
    a SAMPLED_FAILURE chance, over seeds, of failing this test."""
    tables = []
    for index in range(8):
        case = fuzzgen.random_case(5, index)
        high = quotient_abstraction(case.low, case.groups)[0]
        for model in (case.low, high):
            sols = sorted(solution_set(model.mech_model), key=setting_sort_key)
            for seed, sol in enumerate(sols[:2]):
                scm = induce_scm(model, sol)
                exact, sampled = distribution(scm), distribution(scm, n=SAMPLED_N, seed=seed)
                tables.append((dict(exact.atoms), dict(sampled.atoms)))
    n_atoms = sum(len(exact) for exact, _ in tables)
    eps = math.sqrt(math.log(2 * n_atoms / SAMPLED_FAILURE) / (2 * SAMPLED_N))
    assert len(tables) >= 16 and eps < 0.1
    for exact, sampled in tables:
        assert sampled.keys() <= exact.keys()  # no draw lands outside the support
        assert all(abs(sampled.get(s, 0.0) - p) <= eps for s, p in exact.items())


# ---------------------------------------------------------------------------
# Canonical keys


def ref_canon_key(value):
    """canon_key as the isinstance chain alone, the reference for its
    exact-type fast path."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, numbers.Real):
        return ("f", float(value))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, tuple):
        return ("t", tuple(ref_canon_key(v) for v in value))
    if isinstance(value, Table):
        return ("T", ref_canon_key(value.keys), ref_canon_key(value.values))
    return ("r", repr(value))


_scalars = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.integers(-3, 3).map(np.int64),
    st.floats(-2.0, 2.0).map(np.float64),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, min_size=1, max_size=3).map(lambda vs: Table(range(len(vs)), vs)),
    ),
    max_leaves=6,
)
_var_ids = st.builds(VarId, st.sampled_from(["A", "B", "S*", "V0"]), st.sampled_from(list(Layer)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_var_ids, _values, max_size=4))
def test_setting_sort_key_is_the_reference_formula(assignments):
    s = Setting(assignments)
    items = sorted(s.items(), key=lambda kv: (kv[0].name, kv[0].layer.value))
    assert setting_sort_key(s) == tuple((v.name, v.layer.value, ref_canon_key(x)) for v, x in items)
    assert all(canon_key(x) == ref_canon_key(x) for x in s.values())


def test_canon_key_orders_numpy_integers_numerically():
    A = obj("A")
    ss = [Setting({A: np.int64(v)}) for v in (10, 2, 9)]
    assert [s[A] for s in sorted(ss, key=setting_sort_key)] == [2, 9, 10]
    assert canon_key(np.int64(1)) == canon_key(1) == canon_key(1.0)
    assert setting_sort_key(Setting({A: np.int64(1)})) == setting_sort_key(Setting({A: 1}))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 199))
def test_distribution_order_is_exact_distribution_order(seed, index):
    # a distribution is its table: rebuilt from its atoms in reverse order,
    # it keeps that order and is still equal, with an equal hash
    case = fuzzgen.random_case(seed, index)
    high = quotient_abstraction(case.low, case.groups)[0]
    for model in (case.low, high):  # int values, and the quotient's tuples
        for sol in solution_set(model.mech_model):
            d = distribution(induce_scm(model, sol))
            rebuilt = exact_distribution(dict(reversed(d.atoms)))
            assert rebuilt.atoms == d.atoms[::-1]
            assert rebuilt == d and hash(rebuilt) == hash(d)


def test_distribution_order_with_unsorted_variables():
    # the actor-critic pair lists its variables out of name order, and its
    # values are floats and tuples
    pair = actor_critic_pair(grid_step=0.5)
    for model in (pair.low, pair.high):
        (sol,) = solution_set(model.mech_model)
        d = distribution(induce_scm(model, sol))
        assert [v for v, _ in d.atoms[0][0].sorted_items()] != list(model.object_vars)
        rebuilt = exact_distribution(dict(reversed(d.atoms)))
        assert rebuilt == d and hash(rebuilt) == hash(d)


def test_equal_tables_in_different_atom_orders_collapse():
    # the two solutions (0, 0) and (1, 1) list A's kernel in opposite orders,
    # so their tables hold the same atoms in different orders
    A, B, tA, tB = obj("A"), obj("B"), mech("A"), mech("B")
    bit = FiniteDomain((0, 1))
    kernels = ({"b": 0.75, "a": 0.25}, {"a": 0.25, "b": 0.75})
    objm = ParameterizedSCM(
        variables=(A, B),
        parents={A: (), B: ()},
        domains={A: FiniteDomain(("a", "b")), B: FiniteDomain((0,))},
        param_domains={A: bit, B: bit},
        assigns={
            A: KernelAssign(lambda th, pa: kernels[th]),
            B: DeterministicAssign(lambda th, pa: 0),
        },
    )
    mechm = DeterministicSCM(  # coordination: each copies the other
        variables=(tA, tB),
        domains={tA: bit, tB: bit},
        assignments={tA: lambda c: c[tB], tB: lambda c: c[tA]},
    )
    m = MechanizedSCM(mechm, objm)
    sols = sorted(solution_set(mechm), key=setting_sort_key)
    d0, d1 = (distribution(induce_scm(m, s)) for s in sols)
    assert d0.atoms == d1.atoms[::-1] and d0 == d1 and hash(d0) == hash(d1)
    assert solution_distributions(m) == (d0,)


# ---------------------------------------------------------------------------
# Kept exact tables


def table_fingerprint(d):
    return tuple((repr(s), p.hex()) for s, p in d.atoms), d.n_samples, d.seed


def fresh_table(model: ParameterizedSCM, theta: dict, n=None):
    """The table a freshly built twin of ``model``, which keeps nothing yet,
    computes for ``theta``."""
    return distribution(dataclasses.replace(model).at(theta), n, seed=0)


def equal_variant(x, draw: random.Random):
    """A value equal to ``x`` (so one dict key), perhaps of another type or sign."""
    if isinstance(x, tuple):
        return tuple(equal_variant(y, draw) for y in x)
    options = [x, float(x), np.int64(x)]
    if x in (0, 1):
        options.append(bool(x))
    if x == 0:
        options.append(-0.0)
    return draw.choice(options)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 199), st.integers(0, 2**32))
def test_kept_tables_equal_fresh_tables(seed, index, draw_seed):
    # a run of parameter settings with repeats, longer than the bound, some
    # of them sampled, some in an equal variant of another type or sign:
    # every table the model returns is the one a fresh twin computes
    case = fuzzgen.random_case(seed, index)
    high = quotient_abstraction(case.low, case.groups)[0]
    draw = random.Random(draw_seed)
    for model in (case.low.obj_model, high.obj_model):  # ints, the quotient's tuples
        grids = [model.param_domains[v].enumerate() for v in model.variables]
        thetas = list(itertools.product(*grids))
        for _ in range(TABLES_KEPT + 1 + draw.randrange(40)):
            values = [equal_variant(x, draw) for x in draw.choice(thetas)]
            n = draw.choice([None, None, None, 7])
            theta = dict(zip(model.variables, values))
            got = distribution(model.at(theta), n, seed=0)
            assert table_fingerprint(got) == table_fingerprint(fresh_table(model, theta, n))
        assert len(model._tables) <= TABLES_KEPT


def echo_model() -> ParameterizedSCM:
    """One variable whose value is its parameter, so the parameter's type
    and sign show in the atoms."""
    A = obj("A")
    return ParameterizedSCM(
        variables=(A,),
        parents={A: ()},
        domains={A: FiniteDomain((0, 1))},
        param_domains={A: FiniteDomain((0, 1))},
        assigns={A: DeterministicAssign(lambda th, pa: th)},
    )


@pytest.mark.parametrize(
    "first, second",
    [
        (True, 1),
        (1, 1.0),
        (np.int64(1), 1),
        (0.0, -0.0),
        ((True, 0), (1, 0)),
        (Table((1,), (0.0,)), Table((True,), (-0.0,))),
    ],
)
def test_equal_parameters_of_another_type_or_sign_are_not_served(first, second):
    A = obj("A")
    for a, b in ((first, second), (second, first)):
        model = echo_model()
        for theta in (a, b, a, b):
            got = distribution(model.at({A: theta}))
            want = fresh_table(model, {A: theta})
            assert table_fingerprint(got) == table_fingerprint(want)
            assert type(got.atoms[0][0][A]) is type(theta)
        assert len(model._tables) == 1  # the near miss replaced its entry


def test_kept_tables_stop_at_the_bound_oldest_dropped_first():
    A = obj("A")
    model = echo_model()
    thetas = range(TABLES_KEPT + 5)
    first = [distribution(model.at({A: t})) for t in thetas]
    assert len(model._tables) == TABLES_KEPT
    # the last TABLES_KEPT are served as kept, the five oldest recomputed
    assert all(distribution(model.at({A: t})) is first[t] for t in thetas[5:])
    assert not any(distribution(model.at({A: t})) is first[t] for t in thetas[:5])
    assert len(model._tables) == TABLES_KEPT


def test_sampled_tables_are_neither_kept_nor_served():
    A = obj("A")
    model = echo_model()
    ind = model.at({A: 1})
    sampled = distribution(ind, n=10, seed=0)
    assert sampled.n_samples == 10 and not model._tables
    exact = distribution(ind)
    assert exact.n_samples is None and len(model._tables) == 1
    again = distribution(ind, n=10, seed=4)
    assert (again.n_samples, again.seed) == (10, 4)
    assert distribution(ind) is exact


@pytest.mark.parametrize("bad", [[1], {1: 2}, (1, [2])])
def test_at_rejects_unhashable_parameters_by_name(bad):
    A, B = obj("A"), obj("B")
    dom = FiniteDomain((0, 1))
    model = ParameterizedSCM(
        variables=(A, B),
        parents={A: (), B: ()},
        domains={A: dom, B: dom},
        param_domains={A: dom, B: dom},
        assigns={A: DeterministicAssign(lambda th, pa: 0), B: DeterministicAssign(lambda th, pa: 0)},
    )
    with pytest.raises(ValueError, match="parameter of B is unhashable"):
        model.at({A: 0, B: bad})


def _cyclic_object_model():
    A, B = obj("A"), obj("B")
    dom = FiniteDomain((0, 1))
    copy = DeterministicAssign(lambda th, pa: th)
    return ParameterizedSCM(
        variables=(A, B),
        parents={A: (B,), B: (A,)},
        domains={A: dom, B: dom},
        param_domains={A: dom, B: dom},
        assigns={A: copy, B: copy},
    )


def _chain_with_mechanisms(**domains):
    """``two_var_chain``'s object model under a constant mechanism model over
    the given mechanism domains."""
    obj_model = two_var_chain().obj_model
    variables = tuple(mech(name) for name in domains)
    return MechanizedSCM(
        DeterministicSCM(
            variables=variables,
            domains={v: domains[v.name] for v in variables},
            assignments={v: (lambda c: 1) for v in variables},
        ),
        obj_model,
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: RealBox((0.0,), (1.0, 1.0)), ValueError, "equal dimension", id="box-dims"
        ),
        pytest.param(
            lambda: RealBox((1.0,), (0.0,)), ValueError, "lower bound above", id="box-bounds"
        ),
        *(
            pytest.param(
                lambda step=step: RealBox((0.0,), (1.0,), grid_step=step),
                ValueError,
                "grid_step must be None or a positive finite number, not " + re.escape(repr(step)),
                id=f"box-grid-step-{step}",
            )
            for step in (0, -0.1, math.nan, math.inf, "0.1")
        ),
        pytest.param(
            lambda: DeterministicSCM((X1, obj("X1")), {}, {}),
            ValueError,
            "names must be unique",
            id="scm-duplicate-name",
        ),
        pytest.param(
            lambda: DeterministicSCM((X1,), {X1: FiniteDomain((0,))}, {}),
            ValueError,
            "assignment for ~X1$",
            id="scm-missing-assignment",
        ),
        pytest.param(
            lambda: solve_acyclic(copy_cycle()),
            MechSCMError,
            "no declared acyclic",
            id="acyclic-solver",
        ),
        pytest.param(_cyclic_object_model, ValueError, "must be acyclic", id="cyclic-object-graph"),
        pytest.param(
            lambda: two_var_chain().obj_model.at({obj("A"): 0.5}),
            IncompleteSolution,
            r"missing parameters for \[B\]$",
            id="at-missing-parameter",
        ),
        pytest.param(
            lambda: _chain_with_mechanisms(A=RealBox((0.0,), (1.0,), grid_step=0.5)),
            ValueError,
            r"\['A'\] vs \['A', 'B'\]",
            id="unpaired-variables",
        ),
        pytest.param(
            lambda: _chain_with_mechanisms(
                A=RealBox((0.0,), (1.0,), grid_step=0.5), B=FiniteDomain((0, 1))
            ),
            ValueError,
            "parameter domain of B must equal",
            id="unequal-parameter-domain",
        ),
    ],
)
def test_invalid_models_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda iv: solve_enumerate(copy_cycle(), iv),
        lambda iv: solve_acyclic(two_var_chain().mech_model, iv),
        lambda iv: solution_set(two_var_chain().mech_model, iv),
        lambda iv: solution_set(
            dataclasses.replace(copy_cycle(), analytic_solutions=lambda _: None), iv
        ),
        lambda iv: solution_distributions(two_var_chain(), iv),
    ],
    ids=["solve_enumerate", "solve_acyclic", "solution_set", "analytic", "solution_distributions"],
)
def test_plain_dict_intervention_raises_type_error(call):
    with pytest.raises(TypeError, match="intervention must be a Setting, got dict"):
        call({mech("A"): 0})


@pytest.mark.parametrize(
    "model", [copy_cycle, lambda: two_var_chain().mech_model], ids=["enumerate", "acyclic"]
)
def test_intervention_on_an_unknown_variable_raises(model):
    with pytest.raises(ValueError, match="intervention targets unknown variables"):
        solution_set(model(), Setting({mech("Q"): 0}))
