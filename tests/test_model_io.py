"""JSON model format: round trips, behavioral equality, and the golden file."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzgen
from mechscm.abstraction import full_subset_suite, identity_maps
from mechscm.core import NonFiniteDomain, Setting, mech, solution_set, solution_distributions
from mechscm.examples import (
    actor_critic_pair,
    battle_of_sexes,
    shared_utility_pair,
    shared_utility_tables,
)
from mechscm.model_io import load_model, model_from_dict, model_to_dict, save_model

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("rationality", ["br", "fm"])
def test_shared_utility_round_trip(rationality):
    m = shared_utility_pair(rationality).low
    doc = model_to_dict(m)
    reloaded = model_from_dict(doc)
    assert model_to_dict(reloaded) == doc
    # behavioral equality on every utility-mechanism intervention
    for table in shared_utility_tables().values():
        iv = Setting({mech("U"): table})
        assert solution_set(reloaded.mech_model, iv) == solution_set(m.mech_model, iv)


def test_battle_of_sexes_round_trip_grid_behavior():
    m = battle_of_sexes(grid_step=0.25)
    doc = model_to_dict(m)
    reloaded = model_from_dict(doc)
    assert model_to_dict(reloaded) == doc
    # the analytic registration is not serialized; grid fixed points must agree
    from mechscm.core import solve_enumerate

    got = solve_enumerate(reloaded.mech_model)
    want = solve_enumerate(m.mech_model)
    assert got == want
    from mechscm.core import distribution, induce_scm, setting_sort_key

    for sol in sorted(want, key=setting_sort_key):
        d_got = distribution(induce_scm(reloaded, sol))
        d_want = distribution(induce_scm(m, sol))
        assert d_got.atoms == d_want.atoms


def test_actor_critic_is_not_tabulable():
    pair = actor_critic_pair()
    with pytest.raises(NonFiniteDomain):
        model_to_dict(pair.low)


def test_save_load_file(tmp_path):
    m = shared_utility_pair("br").low
    path = tmp_path / "model.json"
    save_model(m, path)
    reloaded = load_model(path)
    assert model_to_dict(reloaded) == model_to_dict(m)


def test_golden_file_schema_stable():
    """The checked-in document pins the exact key names and layout."""
    golden_path = GOLDEN / "shared_utility_br.json"
    doc = model_to_dict(shared_utility_pair("br").low)
    golden = json.loads(golden_path.read_text())
    assert doc == golden
    assert sorted(golden) == [
        "domains",
        "format",
        "mechanism_tables",
        "noise",
        "object_tables",
        "variables",
    ]


@given(st.integers(0, 2**16), st.integers(0, 199))
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_solution_distributions_on_fuzz_models(seed, index):
    low = fuzzgen.random_case(seed, index).low
    reloaded = model_from_dict(model_to_dict(low))
    _, _, w = identity_maps(low)
    for iv in full_subset_suite(w)[:30]:
        got = solution_distributions(reloaded, iv)
        want = solution_distributions(low, iv)
        assert [d.atoms for d in got] == [d.atoms for d in want]
