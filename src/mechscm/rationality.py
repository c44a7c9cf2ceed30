"""Utilities, rationality relations, and agent detection.

A mechanism variable is treated as an agent for a given utility when its
assignment always picks a value the rationality relation allows.  Best
response selects expected-utility maximizers over the variable's own domain;
first-mover rationality additionally lets a believed set of other agents
adapt before evaluating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from mechscm.core import (
    FLOAT_TOL,
    DeterministicSCM,
    EmptyDomain,
    Layer,
    MechSCMError,
    MechanizedSCM,
    Setting,
    VarId,
    all_settings,
    canon_key,
    check_target,
    distribution,
    induce_scm,
    values_close,
)

__all__ = [
    "UtilityFn",
    "BeliefModel",
    "RationalityRelation",
    "EmptyResponseSet",
    "expected_utility",
    "best_response_set",
    "AgentVerdict",
    "is_agent",
    "NontrivialVerdict",
    "is_nontrivial_agent",
    "first_mover_response",
    "has_independent_mechanism",
    "enumerate_contexts",
]

TIE_TOL = 1e-9
FIRST_MOVER_JOINT_LIMIT = 10**6


class EmptyResponseSet(MechSCMError):
    """First-mover constraint set turned out empty for a context."""


@dataclass(frozen=True)
class UtilityFn:
    """A real-valued function of a full object-level setting.

    ``depends_on`` declares the object variables the value may depend on;
    evaluation must agree on settings that agree there.
    """

    evaluate: Callable[[Setting], float]
    depends_on: frozenset
    label: str = ""

    @classmethod
    def of_var(cls, var: VarId, label: str = "") -> "UtilityFn":
        """Utility equal to the value of a single (numeric) object variable."""
        return cls(
            evaluate=lambda s, _v=var: float(s[_v]),
            depends_on=frozenset([var]),
            label=label or var.name,
        )

    @classmethod
    def constant(cls, value: float = 0.0, label: str = "constant") -> "UtilityFn":
        return cls(evaluate=lambda s: value, depends_on=frozenset(), label=label)

    def __call__(self, s: Setting) -> float:
        return float(self.evaluate(s))


@dataclass(frozen=True)
class BeliefModel:
    """Which other mechanism variables an agent believes to be agents, and the
    utilities it believes them to hold."""

    believed_agents: tuple
    believed_utilities: tuple

    def __post_init__(self):
        if len(self.believed_agents) != len(self.believed_utilities):
            raise ValueError("agents and utilities must have equal length")
        if len(set(self.believed_agents)) != len(self.believed_agents):
            raise ValueError("believed agents must be distinct")


@dataclass(frozen=True)
class RationalityRelation:
    """A total relation from contexts (settings of every other mechanism
    variable) to acceptable responses: ``respond(m, context, u)`` returns the
    target's response set for a context."""

    target: VarId
    respond: Callable[[MechanizedSCM, Setting, UtilityFn], tuple]

    @classmethod
    def best_response(cls, target: VarId) -> "RationalityRelation":
        return cls(target, lambda m, ctx, u: best_response_set(m, target, ctx, u))

    @classmethod
    def first_mover(cls, target: VarId, belief: BeliefModel) -> "RationalityRelation":
        return cls(target, lambda m, ctx, u: first_mover_response(m, target, belief, u, ctx))


def expected_utility(m: MechanizedSCM, full_mech_setting: Setting, u: UtilityFn) -> float:
    """Exact expectation of ``u`` under the object distribution induced by a
    full mechanism setting."""
    return distribution(induce_scm(m, full_mech_setting)).expectation(u)


def best_response_set(
    m: MechanizedSCM,
    target: VarId,
    context: Setting,
    u: UtilityFn,
    tie_tol: float = TIE_TOL,
) -> tuple:
    """All values of the target within ``tie_tol`` of the maximal expected
    utility over its (finite or discretized) domain."""
    check_target(m.mech_model, target)
    candidates = m.mech_model.domains[target].enumerate()
    if not candidates:
        raise EmptyDomain(f"domain of {target!r} is empty")
    scored = [
        (expected_utility(m, context.set(target, v), u), v)
        for v in candidates
    ]
    best = max(score for score, _ in scored)
    return tuple(v for score, v in scored if score >= best - tie_tol)


@dataclass(frozen=True)
class AgentVerdict:
    is_agent: bool
    counterexample: Optional[Setting]
    checked: int

    def __bool__(self) -> bool:
        return self.is_agent


def is_agent(
    m: MechanizedSCM,
    target: VarId,
    relation: RationalityRelation,
    u: UtilityFn,
    contexts: Iterable[Setting],
) -> AgentVerdict:
    """Does the target's assignment pick an allowed response in every supplied
    context?  Reports the first violating context otherwise."""
    check_target(m.mech_model, target)
    if relation.target != target:
        raise ValueError("relation is bound to a different target")
    checked = 0
    for ctx in contexts:
        checked += 1
        chosen = m.mech_model.assignments[target](ctx)
        allowed = relation.respond(m, ctx, u)
        if not any(values_close(chosen, v) for v in allowed):
            return AgentVerdict(False, ctx, checked)
    return AgentVerdict(True, None, checked)


def _conditional_table(m: MechanizedSCM, full_setting: Setting, target_obj: VarId):
    """P(S | PA_S) from the exact joint, restricted to parent configurations
    of positive probability.  Keys are canonical parent-value tuples."""
    pa_vars = m.obj_model.parents.get(target_obj, ())
    d = distribution(induce_scm(m, full_setting))
    joint: dict = {}
    for s, p in d.atoms:
        key = tuple(s[w] for w in pa_vars)
        cell = joint.setdefault(key, {})
        v = s[target_obj]
        cell[v] = cell.get(v, 0.0) + p
    table = {}
    for key, cell in joint.items():
        z = sum(cell.values())
        table[key] = {v: p / z for v, p in cell.items()}
    return table


def _tables_differ(t1: dict, t2: dict) -> bool:
    common = set(t1) & set(t2)
    for key in common:
        support = set(t1[key]) | set(t2[key])
        for v in support:
            if abs(t1[key].get(v, 0.0) - t2[key].get(v, 0.0)) > FLOAT_TOL:
                return True
    return False


@dataclass(frozen=True)
class NontrivialVerdict:
    is_nontrivial: bool
    witness: Optional[tuple]  # pair of contexts with differing conditionals
    agent_verdict: AgentVerdict
    flagged_configs: tuple = ()  # parent configs seen with positive
    # probability under one context but not another; excluded from comparison

    def __bool__(self) -> bool:
        return self.is_nontrivial


def is_nontrivial_agent(
    m: MechanizedSCM,
    target: VarId,
    relation: RationalityRelation,
    u: UtilityFn,
    contexts: Iterable[Setting],
) -> NontrivialVerdict:
    """Agent whose induced conditional P(S | PA_S) actually varies across the
    supplied contexts.  Conditionals are compared only on parent
    configurations with positive probability under both contexts; asymmetric
    configurations are flagged, not counted as differences."""
    contexts = list(contexts)
    if not contexts:
        raise ValueError("non-triviality needs at least one context")
    verdict = is_agent(m, target, relation, u, contexts)
    if not verdict:
        return NontrivialVerdict(False, None, verdict)
    target_obj = target.paired(Layer.OBJECT)

    def table_for(ctx: Setting):
        full = ctx.set(target, m.mech_model.assignments[target](ctx))
        return _conditional_table(m, full, target_obj)

    flagged = set()
    first_ctx = contexts[0]
    first = table_for(first_ctx)
    # Linear witness search against the first context's conditional; exact
    # tables in practice are either identical or differ well beyond FLOAT_TOL.
    for ctx in contexts[1:]:
        t = table_for(ctx)
        if _tables_differ(first, t):
            return NontrivialVerdict(True, (first_ctx, ctx), verdict, tuple(sorted(flagged, key=canon_key)))
        flagged.update(set(first).symmetric_difference(set(t)))
    return NontrivialVerdict(False, None, verdict, tuple(sorted(flagged, key=canon_key)))


def first_mover_response(
    m: MechanizedSCM,
    target: VarId,
    belief: BeliefModel,
    u: UtilityFn,
    context: Setting,
) -> tuple:
    """Projections onto the target of the expected-utility argmax over joint
    mechanism settings in which non-believed variables keep their context
    values and every believed agent best-responds to its believed utility."""
    check_target(m.mech_model, target)
    if belief is None:
        raise ValueError("first-mover rationality requires a belief model")
    if target in belief.believed_agents:
        raise ValueError("belief model must not list the target itself")
    mech_vars = m.mech_model.variables
    agents = belief.believed_agents
    free = [target, *agents]
    pinned = [v for v in mech_vars if v not in free]
    missing = [v for v in pinned if v not in context.vars]
    if missing:
        raise ValueError(f"context does not assign {missing}")

    domains = [m.mech_model.domains[v].enumerate() for v in free]
    joint_count = 1
    for d in domains:
        joint_count *= len(d)
        if joint_count > FIRST_MOVER_JOINT_LIMIT:
            raise MechSCMError(
                f"first-mover enumeration exceeds {FIRST_MOVER_JOINT_LIMIT} joint settings"
            )

    base = {v: context[v] for v in pinned}
    br_cache: dict = {}

    def agrees_with_best_response(agent: VarId, bu: UtilityFn, joint: Setting) -> bool:
        ctx = joint.drop([agent])
        key = (agent, ctx)
        if key not in br_cache:
            br_cache[key] = best_response_set(m, agent, ctx, bu)
        return any(values_close(joint[agent], v) for v in br_cache[key])

    feasible = []
    for combo in itertools.product(*domains):
        joint = Setting({**base, **dict(zip(free, combo))})
        if all(
            agrees_with_best_response(a, bu, joint)
            for a, bu in zip(agents, belief.believed_utilities)
        ):
            feasible.append(joint)
    if not feasible:
        raise EmptyResponseSet(f"no joint setting satisfies the belief model at {context!r}")

    scored = [(expected_utility(m, joint, u), joint) for joint in feasible]
    best = max(score for score, _ in scored)
    winners = [joint[target] for score, joint in scored if score >= best - TIE_TOL]
    out = []
    for v in winners:
        if not any(values_close(v, w) for w in out):
            out.append(v)
    return tuple(sorted(out, key=canon_key))


def has_independent_mechanism(m: DeterministicSCM, target: VarId) -> bool:
    """True when the target's assignment returns one fixed value in every
    context (enumerable context space required)."""
    values = (m.assignments[target](ctx) for ctx in _contexts(m, target))
    reference = next(values)  # the context space is a non-empty product
    return all(values_close(value, reference) for value in values)


def enumerate_contexts(m: MechanizedSCM, target: VarId):
    """All settings of the mechanism variables other than the target, over
    their enumerable domains, in deterministic order."""
    return _contexts(m.mech_model, target)


def _contexts(m: DeterministicSCM, target: VarId):
    check_target(m, target)
    return all_settings(m.others(target), m.domains)
