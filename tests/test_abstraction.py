"""Alignment maps, the distribution-set consistency check, strongness, and
the non-emergence precondition checker."""

import hashlib
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


@pytest.mark.parametrize(
    "call",
    [
        lambda p, iv: push_omega(p.alignment, p.omega, iv),
        lambda p, iv: check_abstraction(p.low, p.high, p.alignment, p.tau, p.omega, [iv]),
    ],
    ids=["push_omega", "check_abstraction"],
)
def test_plain_dict_intervention_raises_type_error(ac, call):
    iv = {mech("S"): (0.3, 0.4), mech("R"): (0.9, 0.1)}
    with pytest.raises(TypeError, match="intervention must be a Setting, got dict"):
        call(ac, iv)


def test_explicit_settings_rejects_a_plain_dict():
    with pytest.raises(TypeError, match="settings must be Setting instances, got dict"):
        ExplicitSettings((Setting({mech("S"): (0.0, 0.0)}), {mech("S"): (0.5, 0.5)}))


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


def test_dists_match_symmetric_and_set_valued():
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
    # 0.50 and 0.55 on the left each have 0.55 within 0.05, but 0.44 on the
    # right is 0.06 from its nearest, 0.50, so the sets are 0.06 apart.
    left, right = [_coin(0.50), _coin(0.55)], [_coin(0.55), _coin(0.44)]
    for a, b in ((left, right), (left[::-1], right), (right, left)):
        ok, worst = dists_match(a, b, tol=0.1)
        assert ok and worst == pytest.approx(0.06)


def test_dists_match_compares_sets_not_pairings():
    # Each coin has one within 0.01 on the other side, so the sets are 0.01
    # apart; a one-to-one pairing must send 0 or 0.02 to 0.99 (0.97).
    left = [_coin(0.0), _coin(0.02), _coin(1.0)]
    right = [_coin(0.01), _coin(0.99), _coin(1.0)]
    for a, b in ((left, right), (right, left)):
        assert dists_match(a, b, tol=0.02) == (True, pytest.approx(0.01))
        assert not dists_match(a, b, tol=0.005)[0]


def ref_hausdorff(set1, set2):
    """The least pairwise distance (or 0) within which every coin on either
    side has one on the other side; inf when exactly one side is empty."""
    if not set1 or not set2:
        return 0.0 if set1 == set2 else math.inf
    dist = {(i, j): _dist_distance(a, b) for i, a in enumerate(set1) for j, b in enumerate(set2)}
    covered = lambda t: all(
        any(dist[i, j] <= t for j in range(len(set2))) for i in range(len(set1))
    ) and all(any(dist[i, j] <= t for i in range(len(set1))) for j in range(len(set2)))
    return min(t for t in [0.0, *dist.values()] if covered(t))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 20), max_size=5),
    st.lists(st.integers(0, 20), max_size=5),
    st.sampled_from([0.0, 0.05, 0.1, 0.3]),
    st.randoms(use_true_random=False),
)
def test_dists_match_is_the_hausdorff_distance(left, right, tol, rnd):
    # sides of any lengths from 0 to 5, the empty ones included
    set1 = [_coin(k / 20) for k in left]
    set2 = [_coin(k / 20) for k in right]
    worst = ref_hausdorff(set1, set2)
    expected = (worst <= tol, worst)
    assert dists_match(set1, set2, tol) == expected
    rnd.shuffle(set1)
    rnd.shuffle(set2)
    assert dists_match(set1, set2, tol) == expected
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
    # FLOAT_TOL.  The dedupe compares tables exactly, so both are kept; the
    # sets are compared as sets, so a side with one of them still matches.
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
    ok, worst = dists_match(dists, dists[:1], tol=FLOAT_TOL)
    assert ok and worst <= 1e-11


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
    assert report.ok and bool(report)
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
    assert not report.ok and not bool(report)
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


def test_check_strong_names_a_variable_without_domain(ac):
    with pytest.raises(ValueError, match=r"~A\*"):
        check_strong(ac.omega, {})


def test_check_strong_names_an_omega_reading_outside_its_domain(ac):
    pair_box = ac.high.mech_model.domains[mech("S*")]
    w = {mech("A*"): OmegaVar(ac.omega[mech("A*")].fn, AllOfDomains({mech("Q"): pair_box}))}
    with pytest.raises(ValueError, match=r"omega for ~A\* reads ~A, outside its domain$") as exc:
        check_strong(w, {mech("A*"): ac.high.mech_model.domains[mech("A*")]})
    assert isinstance(exc.value.__cause__, KeyError)


def test_grid_suite_names_an_unmapped_variable(ac):
    with pytest.raises(ValueError, match="~Nope"):
        grid_suite(ac.omega, [mech("S*"), mech("Nope")])


def test_union_and_grid_suite_edge_cases(ac):
    with pytest.raises(TypeError, match="unhashable"):  # a plain Mapping is hashed at once
        Setting({mech("A"): 1}).union(Setting({mech("S"): 0}), {mech("R"): [1]})
    assert grid_suite(ac.omega, []) == (EMPTY_SETTING,)
    with pytest.raises(ValueError, match="conflicting values for ~S$"):
        grid_suite(ac.omega, [mech("S*"), mech("S*")])


# sha256 over the S* x R* suite's settings in order: each one's repr and its
# items in insertion order with their value types
AC_GRID_DIGEST = "0ba8bdd4a711d98791a3e54f5116c55512b907714134c552ec26308ba798c1b4"


def test_actor_critic_grid_suite_is_pinned(ac):
    digest = hashlib.sha256()
    for s in grid_suite(ac.omega, [mech("S*"), mech("R*")]):
        digest.update(repr(s).encode() + b"|")
        digest.update(repr([(v, type(x).__name__, x) for v, x in s.items()]).encode() + b"\n")
    assert digest.hexdigest() == AC_GRID_DIGEST


def test_sampling_checks_reject_empty_counts(ac):
    with pytest.raises(ValueError, match="n >= 1"):
        check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, [], n=0)
    with pytest.raises(ValueError, match="integer n >= 1, got 1.5"):
        check_abstraction(ac.low, ac.high, ac.alignment, ac.tau, ac.omega, [], n=1.5)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_check_abstraction_rejects_a_nan_or_negative_tol(tol):
    # shared_utility_pair("fm") passes every intervention of its suite, so
    # a tol that no distance can meet must be refused, not read as FAIL;
    # and refused before the first intervention is checked
    p = shared_utility_pair("fm")
    suite = iter(full_subset_suite(p.omega))
    with pytest.raises(ValueError, match=f"need tol >= 0, got {tol}"):
        check_abstraction(p.low, p.high, p.alignment, p.tau, p.omega, suite, tol=tol)
    assert next(suite) == full_subset_suite(p.omega)[0]
    with pytest.raises(ValueError, match=f"need tol >= 0, got {tol}"):
        dists_match([_point(obj("A"), 0)], [_point(obj("A"), 0)], tol)


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda ac: Alignment({mech("A*"): frozenset([obj("A")])}),
            r"object variables, got ~A\*$",
            id="mechanism-key",
        ),
        pytest.param(
            lambda ac: Alignment({obj("A*"): frozenset()}),
            r"image of A\* is empty",
            id="empty-image",
        ),
        pytest.param(
            lambda ac: Alignment({obj(n): frozenset([obj("A")]) for n in ("A*", "S*")}),
            "pairwise disjoint",
            id="overlapping-images",
        ),
        pytest.param(
            lambda ac: prop1_preconditions(
                ac.low, ac.high, ac.alignment, ac.tau, ac.omega, obj("A*")
            ),
            "must be a high-level mechanism variable",
            id="prop1-object-target",
        ),
    ],
)
def test_invalid_alignments_and_targets_raise_value_errors(ac, call, message):
    with pytest.raises(ValueError, match=message):
        call(ac)
