"""Executable constructions of the worked models: the battle-of-the-sexes
coordination game, the single-step actor-critic pair with its high-level
single-agent abstraction, and the two-player shared-utility game under best
response or first-mover rationality.

Each constructor documents which claimed properties the tests verify."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from mechscm.core import (
    BernoulliAssign,
    DeterministicAssign,
    DeterministicSCM,
    FiniteDomain,
    MechanizedSCM,
    ParameterizedSCM,
    RealBox,
    Setting,
    Table,
    VarId,
    mech,
    obj,
)
from mechscm.abstraction import Alignment, AllOfDomains, OmegaVar
from mechscm.rationality import (
    BeliefModel,
    UtilityFn,
    best_response_set,
    first_mover_response,
)

__all__ = [
    "AbstractionPair",
    "battle_of_sexes",
    "bos_analytic_equilibria",
    "actor_critic_pair",
    "shared_utility_pair",
    "shared_utility_tables",
]


@dataclass(frozen=True)
class AbstractionPair:
    """A low model, its abstraction, and the maps: plain tau and omega
    mappings per high variable, whose groups the alignment states."""

    low: MechanizedSCM
    high: MechanizedSCM
    alignment: Alignment
    tau: Mapping[VarId, Callable[[Setting], object]]
    omega: Mapping[VarId, OmegaVar]


# ---------------------------------------------------------------------------
# Battle of the sexes

OPERA, FOOTBALL = "O", "F"
_CHOICES = (OPERA, FOOTBALL)

BOS_PAYOFF_1 = Table.from_dict(
    {(OPERA, OPERA): 2, (FOOTBALL, FOOTBALL): 1, (OPERA, FOOTBALL): 0, (FOOTBALL, OPERA): 0}
)
BOS_PAYOFF_2 = Table.from_dict(
    {(OPERA, OPERA): 1, (FOOTBALL, FOOTBALL): 2, (OPERA, FOOTBALL): 0, (FOOTBALL, OPERA): 0}
)


def _two_by_two_equilibria(u1: Table, u2: Table) -> Optional[frozenset]:
    """All Nash equilibria of a 2x2 game in mixed strategies (probability of
    the first choice), or None when a best-response indifference is an entire
    interval (degenerate continuum of equilibria)."""

    def g1(p2: float) -> float:  # d E[u1] / d p1
        return p2 * (u1((OPERA, OPERA)) - u1((FOOTBALL, OPERA))) + (1 - p2) * (
            u1((OPERA, FOOTBALL)) - u1((FOOTBALL, FOOTBALL))
        )

    def g2(p1: float) -> float:  # d E[u2] / d p2
        return p1 * (u2((OPERA, OPERA)) - u2((OPERA, FOOTBALL))) + (1 - p1) * (
            u2((FOOTBALL, OPERA)) - u2((FOOTBALL, FOOTBALL))
        )

    sols = set()
    for p1 in (0.0, 1.0):
        for p2 in (0.0, 1.0):
            ok1 = g1(p2) >= 0 if p1 == 1.0 else g1(p2) <= 0
            ok2 = g2(p1) >= 0 if p2 == 1.0 else g2(p1) <= 0
            if ok1 and ok2:
                sols.add((p1, p2))
    a1, b1 = g1(1.0) - g1(0.0), g1(0.0)  # g1(p2) = a1*p2 + b1
    a2, b2 = g2(1.0) - g2(0.0), g2(0.0)
    if a1 == 0 and b1 == 0:
        return None
    if a2 == 0 and b2 == 0:
        return None
    if a1 != 0 and a2 != 0:
        p2_star = -b1 / a1
        p1_star = -b2 / a2
        if 0.0 < p1_star < 1.0 and 0.0 < p2_star < 1.0:
            sols.add((p1_star, p2_star))
    return frozenset(sols)


def battle_of_sexes(grid_step: float = 0.01) -> MechanizedSCM:
    """Two players choosing opera or football; each decision mechanism best
    responds in expected payoff, the payoff mechanisms constantly return the
    canonical payoff tables.  The three Nash equilibria are registered as the
    analytic solution set; the grid solver remains available as a cross-check.
    """
    D1, D2, U1, U2 = obj("D1"), obj("D2"), obj("U1"), obj("U2")
    TD1, TD2, TU1, TU2 = mech("D1"), mech("D2"), mech("U1"), mech("U2")
    prob = RealBox((0.0,), (1.0,), grid_step=grid_step)
    payoffs = FiniteDomain((0, 1, 2))

    obj_model = ParameterizedSCM(
        variables=(D1, D2, U1, U2),
        parents={D1: (), D2: (), U1: (D1, D2), U2: (D1, D2)},
        domains={D1: FiniteDomain(_CHOICES), D2: FiniteDomain(_CHOICES), U1: payoffs, U2: payoffs},
        param_domains={
            D1: prob,
            D2: prob,
            U1: FiniteDomain((BOS_PAYOFF_1,)),
            U2: FiniteDomain((BOS_PAYOFF_2,)),
        },
        assigns={
            D1: BernoulliAssign(lambda th, pa: th, hi=OPERA, lo=FOOTBALL),
            D2: BernoulliAssign(lambda th, pa: th, hi=OPERA, lo=FOOTBALL),
            U1: DeterministicAssign(lambda th, pa: th((pa[D1], pa[D2]))),
            U2: DeterministicAssign(lambda th, pa: th((pa[D1], pa[D2]))),
        },
    )

    ref: dict = {}
    u1_util = UtilityFn.of_var(U1, "payoff1")
    u2_util = UtilityFn.of_var(U2, "payoff2")

    def analytic(intervention: Setting) -> Optional[frozenset]:
        if not intervention.vars <= {TU1, TU2}:
            return None
        t1 = intervention[TU1] if TU1 in intervention.vars else BOS_PAYOFF_1
        t2 = intervention[TU2] if TU2 in intervention.vars else BOS_PAYOFF_2
        points = _two_by_two_equilibria(t1, t2)
        if points is None:
            return None
        return frozenset(
            Setting({TD1: p1, TD2: p2, TU1: t1, TU2: t2}) for p1, p2 in points
        )

    mech_model = DeterministicSCM(
        variables=(TU1, TU2, TD1, TD2),
        domains={
            TD1: prob,
            TD2: prob,
            TU1: FiniteDomain((BOS_PAYOFF_1,)),
            TU2: FiniteDomain((BOS_PAYOFF_2,)),
        },
        assignments={
            TU1: lambda ctx: BOS_PAYOFF_1,
            TU2: lambda ctx: BOS_PAYOFF_2,
            TD1: lambda ctx: best_response_set(ref["model"], TD1, ctx, u1_util)[0],
            TD2: lambda ctx: best_response_set(ref["model"], TD2, ctx, u2_util)[0],
        },
        analytic_solutions=analytic,
    )
    model = MechanizedSCM(mech_model, obj_model)
    ref["model"] = model
    return model


def bos_analytic_equilibria() -> frozenset:
    """The registered solution set projected to the two decision mechanisms."""
    m = battle_of_sexes()
    sols = m.mech_model.analytic_solutions(Setting())
    TD1, TD2 = mech("D1"), mech("D2")
    return frozenset((s[TD1], s[TD2]) for s in sols)


# ---------------------------------------------------------------------------
# Actor-critic pair


def actor_critic_pair(grid_step: float = 0.1) -> AbstractionPair:
    """The single-step actor-critic system and its single-agent abstraction.

    Low level: the action mechanism follows the critic's two-entry value
    estimate, the critic combines the state and reward mechanisms, and the
    structural object chain is action -> state -> reward plus the two utility
    bookkeeping nodes.  High level: one decision mechanism directly picks the
    action with the larger expected reward.  Value and intervention mappings
    are the identity on action, state, and reward.  Un-intervened, the reward
    mechanism is (0.2, 0.8) and the state mechanism (0.1, 0.9).
    """
    r, s = (0.2, 0.8), (0.1, 0.9)
    A, S, R, Q, Y, W = obj("A"), obj("S"), obj("R"), obj("Q"), obj("Y"), obj("W")
    TA, TS, TR, TQ, TY, TW = (mech(n) for n in "ASRQYW")
    binary = FiniteDomain((0, 1))
    pair_box = RealBox((0.0, 0.0), (1.0, 1.0), grid_step=grid_step)
    unit = FiniteDomain((1,))

    low_obj = ParameterizedSCM(
        variables=(A, S, R, Q, Y, W),
        parents={A: (), S: (A,), R: (S,), Q: (), Y: (A, Q), W: (R, Y)},
        domains={
            A: binary,
            S: binary,
            R: binary,
            Q: pair_box,
            Y: RealBox((0.0,), (1.0,), grid_step=None),
            W: RealBox((-1.0,), (0.0,), grid_step=None),
        },
        param_domains={A: binary, S: pair_box, R: pair_box, Q: pair_box, Y: unit, W: unit},
        assigns={
            A: DeterministicAssign(lambda th, pa: th),
            S: BernoulliAssign(lambda th, pa: th[pa[A]]),
            R: BernoulliAssign(lambda th, pa: th[pa[S]]),
            Q: DeterministicAssign(lambda th, pa: th),
            Y: DeterministicAssign(lambda th, pa: pa[Q][pa[A]]),
            W: DeterministicAssign(lambda th, pa: -((pa[R] - pa[Y]) ** 2)),
        },
    )

    def critic(ctx: Setting) -> tuple:
        rr, ss = ctx[TR], ctx[TS]
        return (
            rr[0] * (1.0 - ss[0]) + rr[1] * ss[0],
            rr[0] * (1.0 - ss[1]) + rr[1] * ss[1],
        )

    low_mech = DeterministicSCM(
        variables=(TR, TW, TY, TS, TQ, TA),
        domains={TA: binary, TS: pair_box, TR: pair_box, TQ: pair_box, TY: unit, TW: unit},
        assignments={
            TR: lambda ctx: r,
            TW: lambda ctx: 1,
            TY: lambda ctx: 1,
            TS: lambda ctx: s,
            TQ: critic,
            TA: lambda ctx: 1 if ctx[TQ][0] <= ctx[TQ][1] else 0,
        },
        parents={
            TR: frozenset(),
            TW: frozenset(),
            TY: frozenset(),
            TS: frozenset(),
            TQ: frozenset({TR, TS}),
            TA: frozenset({TQ}),
        },
    )
    low = MechanizedSCM(low_mech, low_obj)

    As, Ss, Rs = obj("A*"), obj("S*"), obj("R*")
    TAs, TSs, TRs = mech("A*"), mech("S*"), mech("R*")
    high_obj = ParameterizedSCM(
        variables=(As, Ss, Rs),
        parents={As: (), Ss: (As,), Rs: (Ss,)},
        domains={As: binary, Ss: binary, Rs: binary},
        param_domains={As: binary, Ss: pair_box, Rs: pair_box},
        assigns={
            As: DeterministicAssign(lambda th, pa: th),
            Ss: BernoulliAssign(lambda th, pa: th[pa[As]]),
            Rs: BernoulliAssign(lambda th, pa: th[pa[Ss]]),
        },
    )

    def high_action(ctx: Setting) -> int:
        ss, rr = ctx[TSs], ctx[TRs]
        eu0 = ss[0] * rr[1] + (1.0 - ss[0]) * rr[0]
        eu1 = ss[1] * rr[1] + (1.0 - ss[1]) * rr[0]
        return 1 if eu0 <= eu1 else 0

    high_mech = DeterministicSCM(
        variables=(TRs, TSs, TAs),
        domains={TAs: binary, TSs: pair_box, TRs: pair_box},
        assignments={TRs: lambda ctx: r, TSs: lambda ctx: s, TAs: high_action},
        parents={TRs: frozenset(), TSs: frozenset(), TAs: frozenset({TSs, TRs})},
    )
    high = MechanizedSCM(high_mech, high_obj)

    alignment = Alignment({As: frozenset([A]), Ss: frozenset([S]), Rs: frozenset([R])})
    tau = {As: lambda st: st[A], Ss: lambda st: st[S], Rs: lambda st: st[R]}
    omega = {
        TAs: OmegaVar(lambda st: st[TA], AllOfDomains({TA: binary})),
        TSs: OmegaVar(lambda st: st[TS], AllOfDomains({TS: pair_box})),
        TRs: OmegaVar(lambda st: st[TR], AllOfDomains({TR: pair_box})),
    }
    return AbstractionPair(low, high, alignment, tau, omega)


# ---------------------------------------------------------------------------
# Shared-utility pair


def shared_utility_tables() -> dict:
    """The canonical utility assignments used across the shared-utility
    examples (keys are decision pairs)."""
    return {
        "coordinate_high": Table.from_dict({(0, 0): 1, (1, 1): 2, (0, 1): 0, (1, 0): 0}),
        "only_zero": Table.from_dict({(0, 0): 1, (1, 1): 0, (0, 1): 0, (1, 0): 0}),
        "symmetric": Table.from_dict({(0, 0): 1, (1, 1): 1, (0, 1): 0, (1, 0): 0}),
    }


def shared_utility_pair(rationality: str = "br") -> AbstractionPair:
    """Two decisions optimizing one shared utility, abstracted to a single
    joint decision.  Under best response the two low-level coordination
    equilibria collapse poorly (cardinality mismatch versus the single
    high-level optimum); under first-mover rationality with accurate beliefs
    both sides produce exactly the jointly optimal outcome."""
    if rationality not in ("br", "fm"):
        raise ValueError("rationality must be 'br' or 'fm'")
    tables = tuple(shared_utility_tables().values())
    default_u = tables[0]

    D1, D2, U = obj("D1"), obj("D2"), obj("U")
    TD1, TD2, TU = mech("D1"), mech("D2"), mech("U")
    binary = FiniteDomain((0, 1))
    payoff_dom = FiniteDomain((0, 1, 2))
    table_dom = FiniteDomain(tables)

    low_obj = ParameterizedSCM(
        variables=(D1, D2, U),
        parents={D1: (), D2: (), U: (D1, D2)},
        domains={D1: binary, D2: binary, U: payoff_dom},
        param_domains={D1: binary, D2: binary, U: table_dom},
        assigns={
            D1: DeterministicAssign(lambda th, pa: th),
            D2: DeterministicAssign(lambda th, pa: th),
            U: DeterministicAssign(lambda th, pa: th((pa[D1], pa[D2]))),
        },
    )

    ref: dict = {}
    shared = UtilityFn.of_var(U, "shared")

    if rationality == "br":
        assign_d1 = lambda ctx: best_response_set(ref["model"], TD1, ctx, shared)[0]
        assign_d2 = lambda ctx: best_response_set(ref["model"], TD2, ctx, shared)[0]
        decision_parents = {TD1: frozenset({TD2, TU}), TD2: frozenset({TD1, TU})}
    else:
        belief_for = {
            TD1: BeliefModel((TD2,), (shared,)),
            TD2: BeliefModel((TD1,), (shared,)),
        }

        def fm_assign(target: VarId):
            def assign(ctx: Setting):
                return first_mover_response(
                    ref["model"], target, belief_for[target], shared, ctx
                )[0]

            return assign

        assign_d1 = fm_assign(TD1)
        assign_d2 = fm_assign(TD2)
        # a first mover's choice depends only on the utility mechanism
        decision_parents = {TD1: frozenset({TU}), TD2: frozenset({TU})}

    low_mech = DeterministicSCM(
        variables=(TU, TD1, TD2),
        domains={TD1: binary, TD2: binary, TU: table_dom},
        assignments={TU: lambda ctx: default_u, TD1: assign_d1, TD2: assign_d2},
        parents={TU: frozenset(), **decision_parents},
    )
    low = MechanizedSCM(low_mech, low_obj)
    ref["model"] = low

    Ds, Us = obj("D*"), obj("U*")
    TDs, TUs = mech("D*"), mech("U*")
    pair_dom = FiniteDomain(((0, 0), (0, 1), (1, 0), (1, 1)))
    high_obj = ParameterizedSCM(
        variables=(Ds, Us),
        parents={Ds: (), Us: (Ds,)},
        domains={Ds: pair_dom, Us: payoff_dom},
        param_domains={Ds: pair_dom, Us: table_dom},
        assigns={
            Ds: DeterministicAssign(lambda th, pa: th),
            Us: DeterministicAssign(lambda th, pa: th(pa[Ds])),
        },
    )
    high_ref: dict = {}
    shared_high = UtilityFn.of_var(Us, "shared")
    high_mech = DeterministicSCM(
        variables=(TUs, TDs),
        domains={TDs: pair_dom, TUs: table_dom},
        assignments={
            TUs: lambda ctx: default_u,
            TDs: lambda ctx: best_response_set(high_ref["model"], TDs, ctx, shared_high)[0],
        },
        parents={TUs: frozenset(), TDs: frozenset({TUs})},
    )
    high = MechanizedSCM(high_mech, high_obj)
    high_ref["model"] = high

    alignment = Alignment({Ds: frozenset([D1, D2]), Us: frozenset([U])})
    tau = {Ds: lambda st: (st[D1], st[D2]), Us: lambda st: st[U]}
    omega = {
        TDs: OmegaVar(lambda st: (st[TD1], st[TD2]), AllOfDomains({TD1: binary, TD2: binary})),
        TUs: OmegaVar(lambda st: st[TU], AllOfDomains({TU: table_dom})),
    }
    return AbstractionPair(low, high, alignment, tau, omega)
