"""Canonical quotient abstractions of finite mechanized models.

Grouping object variables into blocks induces a high-level model whose
variables carry tuples of member values, with bijective value and
intervention mappings.  The construction requires finite domains, an object
grouping whose quotient graph is acyclic, and mechanism assignments that do
not read their own group's siblings (their declared parents must avoid the
block).  The result is a strong abstraction by construction, which makes it
a convenient harness for exercising the checkers on arbitrary models.
A group samples by running its members' own assignments along its chain, so
quotients of continuous-noise models sample too (exact mode still raises).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from mechscm.core import (
    DeterministicSCM,
    FiniteDomain,
    KernelAssign,
    Layer,
    MechanizedSCM,
    ParameterizedSCM,
    Setting,
    VarId,
    _forward_paths,
    mech,
    obj,
)
from mechscm.abstraction import Alignment, AllOfDomains, OmegaVar

__all__ = ["quotient_abstraction"]


@dataclass(frozen=True)
class _GroupAssign(KernelAssign):
    """Exact by the group kernel, sampled by ``sampler``."""

    sampler: Callable

    def sample(self, theta, parents, rng):
        return self.sampler(theta, parents, rng)


def quotient_abstraction(low: MechanizedSCM, groups: Sequence[Sequence[VarId]]):
    """Build (high, alignment, tau, omega) from an ordered partition of the
    low-level object variables.  High-level values are tuples of member
    values in group order; mappings are bijections, so the high model is a
    strong abstraction of the low model."""
    groups = [tuple(g) for g in groups]
    flat = [v for g in groups for v in g]
    if sorted(flat, key=repr) != sorted(low.object_vars, key=repr):
        raise ValueError("groups must partition the low-level object variables")
    names = ["+".join(v.name for v in g) for g in groups]

    low_obj = low.obj_model
    low_mech = low.mech_model
    topo = low_obj.topological_order
    topo_pos = {v: i for i, v in enumerate(topo)}
    group_of = {v: gi for gi, g in enumerate(groups) for v in g}

    high_objs = [obj(n) for n in names]
    high_mechs = [mech(n) for n in names]

    # quotient object graph
    high_parents: dict = {}
    for gi, g in enumerate(groups):
        ps = set()
        for v in g:
            for p in low_obj.parents.get(v, ()):
                if group_of[p] != gi:
                    ps.add(group_of[p])
        high_parents[high_objs[gi]] = tuple(high_objs[pi] for pi in sorted(ps))

    def group_domain(domains: Mapping, g) -> FiniteDomain:
        return FiniteDomain(tuple(itertools.product(*(domains[v].enumerate() for v in g))))

    param_domains = [group_domain(low_obj.param_domains, g) for g in groups]

    def make_group_assign(gi: int) -> _GroupAssign:
        g = groups[gi]
        chain = sorted(g, key=lambda v: topo_pos[v])
        slot = {v: i for i, v in enumerate(g)}
        in_chain = [chain.index(v) for v in g]
        member_slot_in_parent = {}
        for hp in high_parents[high_objs[gi]]:
            for i, v in enumerate(groups[high_objs.index(hp)]):
                member_slot_in_parent[v] = (hp, i)

        outside = lambda pa: {p: pa[hp][i] for p, (hp, i) in member_slot_in_parent.items()}

        def kernel(theta, pa: Mapping[VarId, tuple]) -> dict:
            paths = _forward_paths(
                chain,
                low_obj.parents,
                lambda v, pvals: low_obj.assigns[v].kernel(theta[slot[v]], pvals),
                outside(pa),
            )
            return {tuple(values[i] for i in in_chain): p for values, p in paths.items()}

        def sampler(theta, pa: Mapping[VarId, tuple], rng) -> tuple:
            # in low topological order, so the rng is drawn as the low model draws it
            values = outside(pa)
            for v in chain:
                pvals = {w: values[w] for w in low_obj.parents.get(v, ())}
                values[v] = low_obj.assigns[v].sample(theta[slot[v]], pvals, rng)
            return tuple(values[v] for v in g)

        return _GroupAssign(kernel, sampler)

    high_obj_model = ParameterizedSCM(
        variables=tuple(high_objs),
        parents=high_parents,
        domains={high_objs[gi]: group_domain(low_obj.domains, g) for gi, g in enumerate(groups)},
        param_domains=dict(zip(high_objs, param_domains)),
        assigns={high_objs[gi]: make_group_assign(gi) for gi in range(len(groups))},
    )

    mech_groups = [tuple(v.paired(Layer.MECHANISM) for v in g) for g in groups]

    def parent_groups(gi: int) -> tuple:
        """The other groups whose mechanisms group ``gi``'s mechanisms read:
        all of them when the low model declares no mechanism parents."""
        if low_mech.parents is None:
            return tuple(gj for gj in range(len(groups)) if gj != gi)
        ps = set()
        for mv in mech_groups[gi]:
            for p in low_mech.parents.get(mv, ()):
                pg = group_of[p.paired(Layer.OBJECT)]
                if pg == gi:
                    raise ValueError(
                        f"{mv!r} reads sibling {p!r} from its own group; "
                        "quotient mechanisms must only depend on other groups"
                    )
                ps.add(pg)
        return tuple(sorted(ps))

    def make_high_mech_assign(gi: int):
        mg = mech_groups[gi]
        needed = parent_groups(gi)

        def assign(ctx: Setting):
            low_ctx = {}
            for gj in needed:
                block = ctx[high_mechs[gj]]
                low_ctx.update(zip(mech_groups[gj], block))
            out = []
            for mv in mg:
                # mechanism assignments may not read their own group or
                # groups outside their declared parents, so missing entries
                # are never touched
                visible = Setting({w: x for w, x in low_ctx.items() if w != mv})
                out.append(low_mech.assignments[mv](visible))
            return tuple(out)

        return assign

    high_mech_parents = None
    if low_mech.parents is not None:
        high_mech_parents = {
            high_mechs[gi]: frozenset(high_mechs[pj] for pj in parent_groups(gi))
            for gi in range(len(groups))
        }

    high_mech_model = DeterministicSCM(
        variables=tuple(high_mechs),
        domains=dict(zip(high_mechs, param_domains)),
        assignments={high_mechs[gi]: make_high_mech_assign(gi) for gi in range(len(groups))},
        parents=high_mech_parents,
    )
    high = MechanizedSCM(high_mech_model, high_obj_model)

    alignment = Alignment({high_objs[gi]: frozenset(g) for gi, g in enumerate(groups)})
    tau = {
        high_objs[gi]: (lambda st, _g=groups[gi]: tuple(st[v] for v in _g))
        for gi in range(len(groups))
    }
    omega = {
        high_mechs[gi]: OmegaVar(
            lambda st, _mg=mech_groups[gi]: tuple(st[v] for v in _mg),
            AllOfDomains({v: low_mech.domains[v] for v in mech_groups[gi]}),
        )
        for gi in range(len(groups))
    }
    return high, alignment, tau, omega
