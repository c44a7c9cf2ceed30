"""Alignment maps, the distribution-set consistency check, strongness, and
the non-emergence precondition checker."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzgen

from mechscm.core import (
    EMPTY_SETTING,
    FLOAT_TOL,
    BernoulliAssign,
    DeterministicSCM,
    Distribution,
    FiniteDomain,
    MechanizedSCM,
    ParameterizedSCM,
    Setting,
    exact_distribution,
    mech,
    obj,
    solution_distributions,
)
from mechscm.abstraction import (
    AllOfDomains,
    _dist_distance,
    Alignment,
    ExplicitSettings,
    MissingVariables,
    OmegaUndefined,
    OmegaVar,
    PartialCollection,
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
from mechscm.quotient import quotient_abstraction
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
    restricted = {
        mech("S*"): OmegaVar(
            lambda st: st[mech("S")],
            ExplicitSettings((Setting({mech("S"): (0.0, 0.0)}),)),
        )
    }
    out = push_omega(ac.alignment, restricted, Setting({mech("S"): (0.5, 0.5)}))
    assert isinstance(out, OmegaUndefined)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


_LOW_ASR = Setting({obj("A"): 1, obj("S"): 0, obj("R"): 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, t, a: push_tau(p.alignment, t, _LOW_ASR), r" S\*$"),
        (
            lambda p, t, a: check_abstraction(p.low, p.high, p.alignment, t, p.omega, [EMPTY_SETTING]),
            r" S\*$",
        ),
        (lambda p, t, a: prop1_preconditions(p.low, p.high, a, p.tau, p.omega, mech("S*")), r"~S\*$"),
        (lambda p, t, a: prop1_preconditions(p.low, p.high, a, p.tau, p.omega, mech("R*")), r"~S\*$"),
        (lambda p, t, a: prop1_preconditions(p.low, p.high, p.alignment, t, p.omega, mech("R*")), r" S\*$"),
        (lambda p, t, a: push_omega(a, p.omega, EMPTY_SETTING), r"~S\*$"),
    ],
    ids=["push_tau", "check_abstraction", "prop1-target", "prop1-parent", "prop1-tau", "push_omega"],
)
def test_maps_out_of_step_with_the_alignment_name_the_variable(ac, call, message):
    # t: tau without S*; a: the alignment without S*'s group
    t = _without(ac.tau, obj("S*"))
    a = Alignment(_without(ac.alignment.groups, obj("S*")))
    with pytest.raises(ValueError, match=message):
        call(ac, t, a)


def test_all_of_domains_contains_exactly_its_settings():
    z1, z2 = mech("z1"), mech("z2")
    binary = FiniteDomain((0, 1))
    both = AllOfDomains({z1: binary, z2: binary})
    assert all(both.contains(s) for s in both.enumerate())
    assert not both.contains(Setting({z1: 0, z2: 5}))
    assert not both.contains(Setting({z1: 0}))
    assert not both.contains(EMPTY_SETTING)
    assert not AllOfDomains({z1: binary}).contains(Setting({z1: 0, z2: 5}))


@pytest.mark.parametrize("seed", [0, 7])
def test_per_model_derivations_are_the_definitional_ones(seed):
    # the alignment's name order and collections, and a mechanism model's
    # other variables, are derived once per model; each equals its definition
    by_name = lambda v: v.name
    for index in range(40):
        case = fuzzgen.random_case(seed, index)
        _, a, _, _ = quotient_abstraction(case.low, case.groups)
        assert a.high_object_vars == tuple(sorted(a.groups, key=by_name))
        for high, lows in a.groups.items():
            expected = tuple(sorted((mech(v.name) for v in lows), key=by_name))
            assert a.mech_collection(mech(high.name)) == expected
        m = case.low.mech_model
        for v in m.variables:
            assert m.others(v) == tuple(w for w in m.variables if w != v)


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


def ref_dist_distance(d1, d2):
    """The alignment by scan alone: every atom pairs with the first atom of
    the other table, in canonical order, close to it."""
    worst = 0.0
    for s1, p1 in d1.atoms:
        p2 = next((q for s2, q in d2.atoms if s1.close_to(s2)), 0.0)
        worst = max(worst, abs(p1 - p2))
    for s2, p2 in d2.atoms:
        p1 = next((q for s1, q in d1.atoms if s2.close_to(s1)), 0.0)
        worst = max(worst, abs(p2 - p1))
    return worst


# Values of every kind; the floats are 3 * FLOAT_TOL apart, so no two atoms
# of one table are close unless they are equal.
_ALIGN_VALUES = (
    0, 1, 2, True, False, "a", "b", (0, 1), (1, 0.5), 0.5, 0.5 + 3 * FLOAT_TOL, 2.0
)


def _jitter(value, eps):
    """Move every float and int of a value by eps, keeping bools and strs."""
    if isinstance(value, tuple):
        return tuple(_jitter(v, eps) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value + eps
    return value


_align_table = st.dictionaries(
    st.tuples(st.sampled_from(_ALIGN_VALUES), st.sampled_from(_ALIGN_VALUES + (None,))),
    st.integers(1, 5),
    min_size=1,
    max_size=6,
)


def _table(weights, eps=0.0):
    A, B = obj("A"), obj("B")
    total = sum(weights.values())
    table = {}
    for (a, b), w in weights.items():
        s = Setting({A: _jitter(a, eps)} if b is None else {A: _jitter(a, eps), B: _jitter(b, eps)})
        table[s] = table.get(s, 0.0) + w / total
    return exact_distribution(table)


@settings(max_examples=300, deadline=None)
@given(_align_table, _align_table, st.sampled_from([0.0, 1e-12, -FLOAT_TOL / 4]))
def test_dist_distance_matches_the_scan(left, right, eps):
    # the right table's numbers sit within FLOAT_TOL / 4 of the grid, so an
    # atom is close to at most one atom of the other table, equal or not
    d1, d2 = _table(left), _table(right, eps)
    assert _dist_distance(d1, d2) == ref_dist_distance(d1, d2)
    assert _dist_distance(d2, d1) == ref_dist_distance(d2, d1)


def test_dist_distance_fixed_cases():
    A = obj("A")
    # equal settings that are not close never pair
    assert Setting({A: True}) == Setting({A: 1})
    assert _dist_distance(_point(A, True), _point(A, 1)) == 1.0
    # close settings that are not equal still pair
    assert _dist_distance(_point(A, 0.5), _point(A, 0.5 + 1e-12)) == 0.0
    # two distinct atoms within FLOAT_TOL: each pairs with its equal atom,
    # where the scan paired both with the first close one, 0.5
    twins = exact_distribution({Setting({A: 0.5}): 0.3, Setting({A: 0.5 + 1e-12}): 0.7})
    assert _dist_distance(twins, twins) == 0.0
    assert ref_dist_distance(twins, twins) == pytest.approx(0.4)


def test_solution_distributions_dedupe_is_exact():
    # Two mechanism solutions whose tables differ by 1e-12, far inside
    # FLOAT_TOL.  The dedupe compares tables exactly, so both are kept, and
    # a side with one of them fails on cardinality alone.
    X, Y = obj("X"), obj("Y")
    dom = FiniteDomain((0, 1))
    copy = DeterministicSCM(
        variables=(mech("X"), mech("Y")),
        domains={mech("X"): dom, mech("Y"): dom},
        assignments={mech("X"): lambda c: c[mech("Y")], mech("Y"): lambda c: c[mech("X")]},
    )
    coins = ParameterizedSCM(
        variables=(X, Y),
        parents={X: (), Y: ()},
        domains={X: dom, Y: dom},
        param_domains={X: dom, Y: dom},
        assigns={X: BernoulliAssign(lambda th, pa: 0.5 + 1e-12 * th), Y: BernoulliAssign(lambda th, pa: 0.5)},
    )
    dists = solution_distributions(MechanizedSCM(copy, coins))
    assert len(dists) == 2 and 0.0 < _dist_distance(*dists) <= 1e-11
    assert dists_match(dists, dists[:1], tol=FLOAT_TOL) == (False, math.inf)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 199), st.randoms(use_true_random=False))
def test_check_abstraction_invariant_under_suite_permutation(seed, index, rnd):
    case = fuzzgen.random_case(seed, index)
    high, a, t, w = quotient_abstraction(case.low, case.groups)
    suite = list(full_subset_suite(w, include_empty=True)[:12])
    shuffled = suite[:]
    rnd.shuffle(shuffled)
    reports = [check_abstraction(case.low, high, a, t, w, s) for s in (suite, shuffled)]
    by_intervention = [{e.low_intervention: e for e in r.entries} for r in reports]
    assert by_intervention[0] == by_intervention[1]
    assert reports[0].ok == reports[1].ok


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
        {
            mech("S*"): OmegaVar(
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
                lambda st: st[mech("R")],
                ExplicitSettings(
                    tuple(
                        Setting({mech("R"): (a, b)})
                        for a in (0.0, 0.5, 1.0)
                        for b in (0.0, 0.5, 1.0)
                    )
                ),
            ),
        },
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
    restricted = {
        mech("S*"): OmegaVar(
            lambda st: st[mech("S")],
            ExplicitSettings(
                tuple(
                    Setting({mech("S"): (0.0, round(b * 0.1, 12))}) for b in range(11)
                )
            ),
        )
    }
    report = check_strong(restricted, {mech("S*"): pair_box})
    assert not report.ok
    gaps = report.gaps[mech("S*")]
    assert gaps and all(g[0] != 0.0 for g in gaps)


def test_check_strong_constant_onto_singleton():
    w = {
        mech("Z"): OmegaVar(
            lambda st: "only",
            AllOfDomains({mech("z1"): FiniteDomain((0, 1))}),
        )
    }
    report = check_strong(w, {mech("Z"): FiniteDomain(("only",))})
    assert report.ok


def test_check_strong_sampled_mode(ac):
    high_domains = {v: ac.high.mech_model.domains[v] for v in ac.high.mech_vars}
    report = check_strong(ac.omega, high_domains, n=4000, seed=0)
    assert report.coverage[mech("A*")] == 1.0


def test_check_strong_names_a_variable_without_domain(ac):
    with pytest.raises(ValueError, match=r"~A\*"):
        check_strong(ac.omega, {})


def test_grid_suite_names_an_unmapped_variable(ac):
    with pytest.raises(ValueError, match="~Nope"):
        grid_suite(ac.omega, [mech("S*"), mech("Nope")])


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


def test_prop1_detects_a_tau_that_is_not_injective():
    su = shared_utility_pair("br")
    report = prop1_preconditions(su.low, su.high, su.alignment, su.tau, su.omega, mech("U*"))
    assert report.tau_injective and report.independent_mechanisms
    forgets_d2 = {**su.tau, obj("D*"): lambda st: (st[obj("D1")], 0)}
    report = prop1_preconditions(su.low, su.high, su.alignment, forgets_d2, su.omega, mech("U*"))
    assert not report.tau_injective and report.independent_mechanisms


def test_partial_omega_reports_undefined_interventions():
    fm = shared_utility_pair("fm")
    only = Setting({mech("D1"): 0, mech("D2"): 0})
    partial = {**fm.omega, mech("D*"): OmegaVar(fm.omega[mech("D*")].fn, ExplicitSettings((only,)))}
    suite = full_subset_suite(fm.omega)
    report = check_abstraction(fm.low, fm.high, fm.alignment, fm.tau, partial, suite)
    undefined = [
        iv for iv in suite if mech("D1") in iv and iv.project([mech("D1"), mech("D2")]) != only
    ]
    assert len(suite) == 20 and len(undefined) == 12
    for entry in report.entries:
        if entry.low_intervention in undefined:
            assert isinstance(entry.high_intervention, OmegaUndefined)
            assert not entry.matched and entry.max_mismatch == math.inf
            assert entry.n_low == entry.n_high == 0
            assert entry.note == entry.high_intervention.reason
            assert entry.note.startswith("~D*: ") and "outside omega's defined domain" in entry.note
        else:
            assert entry.matched
    assert report.summary() == "abstraction: FAIL (8/20)"
    doc = report.to_dict()
    assert (doc["ok"], doc["n_interventions"], doc["n_matched"]) == (False, 20, 8)
    for entry, row in zip(report.entries, doc["entries"]):
        if entry.low_intervention in undefined:
            assert row == {
                "low": repr(entry.low_intervention),
                "high": f"OmegaUndefined({entry.note!r})",
                "matched": False,
                "max_mismatch": math.inf,
                "n_low_distributions": 0,
                "n_high_distributions": 0,
                "note": entry.note,
            }
