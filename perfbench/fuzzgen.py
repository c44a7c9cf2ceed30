"""Seeded random finite mechanized models for the agent-fuzz workload.

Each case is a low-level model plus an ordered grouping of its object
variables whose target block has constant mechanisms.  By construction the
quotient abstraction of such a case satisfies the Proposition-1
preconditions (bijective tau, independent target mechanisms), so the
abstracted target is never a non-trivial agent, and the quotient is an
abstraction of the low model on every intervention.

The shape of case ``index`` (variable count, domain sizes, grouping, target
block) depends on the index alone; the seed draws the graph, the
conditional tables and the mechanism tables.  Every seed therefore asks for
the same amount of work, and run time measures the program, not the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from mechscm import core
from mechscm.rationality import UtilityFn


@dataclass(frozen=True)
class Case:
    low: core.MechanizedSCM
    groups: tuple
    target_index: int


def random_case(seed: int, index: int) -> Case:
    shape = random.Random(f"shape/{index}")
    rng = random.Random(f"content/{seed}/{index}")
    n = shape.randint(2, 4)
    ovars = [core.obj(f"V{i}") for i in range(n)]
    mvars = [core.mech(f"V{i}") for i in range(n)]
    obj_domains = {v: core.FiniteDomain(tuple(range(shape.randint(1, 3)))) for v in ovars}
    param_domains = {v: core.FiniteDomain(tuple(range(shape.randint(1, 3)))) for v in ovars}
    # contiguous blocks of the construction order keep the quotient acyclic
    cuts = sorted(shape.sample(range(1, n), shape.randint(0, n - 1)))
    bounds = [0, *cuts, n]
    groups = tuple(tuple(ovars[a:b]) for a, b in zip(bounds, bounds[1:]))
    target_index = shape.randrange(len(groups))

    parents = {
        v: tuple(p for p in ovars[:i] if rng.random() < 0.4) for i, v in enumerate(ovars)
    }
    assigns = {}
    for v in ovars:
        values = obj_domains[v].values
        cpt = {}
        for theta in param_domains[v].values:
            for combo in itertools.product(*(obj_domains[p].values for p in parents[v])):
                raw = [rng.random() + 1e-3 for _ in values]
                z = sum(raw)
                cpt[(theta, combo)] = {val: w / z for val, w in zip(values, raw)}

        def kernel(theta, pa, _cpt=cpt, _ps=parents[v]):
            return _cpt[(theta, tuple(pa[p] for p in _ps))]

        assigns[v] = core.KernelAssign(kernel)
    obj_model = core.ParameterizedSCM(
        variables=tuple(ovars),
        parents=parents,
        domains=obj_domains,
        param_domains=param_domains,
        assigns=assigns,
    )

    group_of = {v.name: gi for gi, g in enumerate(groups) for v in g}
    mech_domains = {mv: param_domains[v] for v, mv in zip(ovars, mvars)}
    mech_assigns = {}
    mech_parents = {}
    for v, mv in zip(ovars, mvars):
        if group_of[v.name] == target_index:
            const = rng.choice(param_domains[v].values)
            mech_assigns[mv] = lambda ctx, _c=const: _c
            mech_parents[mv] = frozenset()
            continue
        candidates = [w for w in mvars if group_of[w.name] != group_of[v.name]]
        deps = tuple(w for w in candidates if rng.random() < 0.6)
        table = {
            combo: rng.choice(param_domains[v].values)
            for combo in itertools.product(*(mech_domains[w].values for w in deps))
        }

        def assign(ctx, _deps=deps, _table=table):
            return _table[tuple(ctx[w] for w in _deps)]

        mech_assigns[mv] = assign
        mech_parents[mv] = frozenset(deps)
    mech_model = core.DeterministicSCM(
        variables=tuple(mvars),
        domains=mech_domains,
        assignments=mech_assigns,
        parents=mech_parents,
    )
    return Case(core.MechanizedSCM(mech_model, obj_model), groups, target_index)


def utilities(high: core.MechanizedSCM, seed: int, index: int) -> tuple:
    """Constant, sum-of-leaves and random-weight utilities over the
    high-level object variables, whose values are tuples of ints."""
    rng = random.Random(f"utility/{seed}/{index}")
    coeffs = {v: [rng.uniform(-2.0, 2.0) for _ in range(16)] for v in high.object_vars}

    def leaves_sum(s) -> float:
        return float(sum(sum(s[v]) for v in high.object_vars))

    def weighted(s) -> float:
        return sum(c * float(x) for v in high.object_vars for c, x in zip(coeffs[v], s[v]))

    depends = frozenset(high.object_vars)
    return (
        UtilityFn.constant(0.0),
        UtilityFn(evaluate=leaves_sum, depends_on=depends, label="leaves-sum"),
        UtilityFn(evaluate=weighted, depends_on=depends, label="weighted"),
    )
