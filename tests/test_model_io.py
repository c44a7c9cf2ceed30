"""JSON model tabulation: the golden files and what cannot be tabulated."""

import json
from pathlib import Path

import pytest

from mechscm.core import (
    DeterministicAssign,
    DeterministicSCM,
    FiniteDomain,
    MechanizedSCM,
    NonFiniteDomain,
    ParameterizedSCM,
    RealBox,
    SamplerAssign,
    mech,
    obj,
)
from mechscm.examples import actor_critic_pair, battle_of_sexes, shared_utility_pair
from mechscm.model_io import encode_domain, encode_value, model_to_dict

GOLDEN = Path(__file__).parent / "golden"


def test_actor_critic_is_not_tabulable():
    pair = actor_critic_pair()
    with pytest.raises(NonFiniteDomain):
        model_to_dict(pair.low)


def _one_variable(param_domain, assign):
    X, TX = obj("X"), mech("X")
    return MechanizedSCM(
        DeterministicSCM(variables=(TX,), domains={TX: param_domain}, assignments={TX: lambda c: 0}),
        ParameterizedSCM(
            variables=(X,),
            parents={X: ()},
            domains={X: FiniteDomain((0, 1))},
            param_domains={X: param_domain},
            assigns={X: assign},
        ),
    )


@pytest.mark.parametrize(
    "m, message",
    [
        (
            _one_variable(RealBox((0.0,), (1.0,), grid_step=None), DeterministicAssign(lambda th, pa: 0)),
            "parameter domain of X is not finite or discretized",
        ),
        (
            _one_variable(FiniteDomain((0, 1)), SamplerAssign(lambda th, pa, rng: th)),
            "X has continuous noise; cannot tabulate",
        ),
    ],
    ids=["continuous-parameter", "sampler"],
)
def test_untabulable_object_variables_are_refused(m, message):
    with pytest.raises(NonFiniteDomain, match=message):
        model_to_dict(m)


@pytest.mark.parametrize(
    "name, model",
    [
        ("shared_utility_br", lambda: shared_utility_pair("br").low),
        # real_box domains, inverse_cdf_uniform noise and an analytic model
        # tabulated on its grid
        ("battle_of_sexes_0.25", lambda: battle_of_sexes(grid_step=0.25)),
    ],
    ids=["shared-utility-br", "battle-of-sexes"],
)
def test_golden_file_schema_stable(name, model):
    """The checked-in document pins the exact key names and layout."""
    doc = model_to_dict(model())
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert doc == golden
    assert sorted(golden) == [
        "domains",
        "format",
        "mechanism_tables",
        "noise",
        "object_tables",
        "variables",
    ]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: encode_value([1]),
            TypeError,
            r"value \[1\] is not serializable",
            id="encode-value",
        ),
        pytest.param(
            lambda: encode_domain((0, 1)), TypeError, "is not serializable", id="encode-domain"
        ),
    ],
)
def test_codecs_reject_what_they_cannot_represent(call, error, message):
    with pytest.raises(error, match=message):
        call()
