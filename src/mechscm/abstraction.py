"""Variable alignments, value/intervention mappings, and abstraction checks.

A high-level mechanized model abstracts a low-level one when, for every
mapped mechanism intervention, the set of solution-induced low-level
distributions pushed through the value mapping equals the set of high-level
solution-induced distributions.  Strongness additionally requires each
per-variable intervention mapping to be surjective onto the high-level
domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from mechscm.core import (
    EMPTY_SETTING,
    Distribution,
    Domain,
    Layer,
    MechSCMError,
    MechanizedSCM,
    NonFiniteDomain,
    Setting,
    VarId,
    canon_key,
    check_sample_count,
    check_target,
    distribution,  # noqa: F401  (perfbench's tracer expects it in this namespace)
    solution_distributions,
    values_close,
)
from mechscm.rationality import has_independent_mechanism

__all__ = [
    "MissingVariables",
    "PartialCollection",
    "Alignment",
    "ValueMapping",
    "OmegaUndefined",
    "DefinedDomain",
    "AllOfDomains",
    "ExplicitSettings",
    "PredicateDomain",
    "OmegaVar",
    "InterventionMapping",
    "push_tau",
    "push_omega",
    "InterventionEntry",
    "AbstractionReport",
    "check_abstraction",
    "StrongReport",
    "check_strong",
    "Prop1Report",
    "prop1_preconditions",
    "identity_maps",
    "grid_suite",
    "full_subset_suite",
    "dists_match",
]


class MissingVariables(MechSCMError):
    """A low-level setting does not cover every aligned variable."""


class PartialCollection(MechSCMError):
    """An intervention covers only part of some aligned mechanism collection,
    or touches a variable no collection contains."""


# ---------------------------------------------------------------------------
# Alignment and value mappings


@dataclass(frozen=True)
class Alignment:
    """Maps each high-level object variable to a non-empty, pairwise disjoint
    set of low-level object variables.  The mechanism-level alignment is
    derived through the object/mechanism pairing."""

    groups: Mapping[VarId, frozenset]

    def __post_init__(self):
        seen: set = set()
        for high, lows in self.groups.items():
            if high.layer is not Layer.OBJECT:
                raise ValueError(f"alignment keys must be object variables, got {high!r}")
            if not lows:
                raise ValueError(f"alignment image of {high!r} is empty")
            if seen & lows:
                raise ValueError("alignment images must be pairwise disjoint")
            seen |= set(lows)

    def group(self, high: VarId) -> frozenset:
        return self.groups[high]

    def mech_collection(self, high_mech: VarId) -> tuple:
        lows = self.groups[high_mech.paired(Layer.OBJECT)]
        return tuple(sorted((v.paired(Layer.MECHANISM) for v in lows), key=lambda v: v.name))

    @property
    def high_object_vars(self) -> tuple:
        return tuple(sorted(self.groups, key=lambda v: v.name))


@dataclass(frozen=True)
class ValueMapping:
    """Per high-level object variable, a total function from settings of its
    aligned low-level variables to a high-level value."""

    maps: Mapping[VarId, Callable[[Setting], object]]


def push_tau(a: Alignment, t: ValueMapping, low_setting: Setting) -> Setting:
    """Translate a low-level object setting: one tau value per high-level
    variable, unioned.  Low-level variables outside every alignment image are
    marginalized away."""
    out = {}
    for high in a.high_object_vars:
        group = a.group(high)
        missing = group - low_setting.vars
        if missing:
            raise MissingVariables(f"low setting lacks {sorted(missing, key=repr)}")
        out[high] = t.maps[high](low_setting.project(group))
    return Setting(out)


# ---------------------------------------------------------------------------
# Intervention mappings


class OmegaUndefined:
    """Returned when an intervention falls outside omega's defined domain."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"OmegaUndefined({self.reason!r})"


class DefinedDomain:
    """Explicit description of where a per-variable omega is defined."""

    def contains(self, setting: Setting) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def enumerate(self) -> tuple:
        raise NonFiniteDomain("defined domain is not enumerable")

    def sample(self, rng) -> Setting:
        raise NotImplementedError("defined domain has no sampler")


@dataclass(frozen=True)
class AllOfDomains(DefinedDomain):
    """Total on the product of the collection's variable domains; enumerable
    whenever those domains are finite or discretized."""

    domains: Mapping[VarId, Domain]

    def _vars(self) -> tuple:
        return tuple(sorted(self.domains, key=lambda v: v.name))

    def contains(self, setting: Setting) -> bool:
        return all(self.domains[v].contains(setting[v]) for v in setting.vars)

    def enumerate(self) -> tuple:
        vs = self._vars()
        grids = [self.domains[v].enumerate() for v in vs]
        return tuple(Setting(dict(zip(vs, combo))) for combo in itertools.product(*grids))

    def sample(self, rng) -> Setting:
        vs = self._vars()
        out = {}
        for v in vs:
            values = self.domains[v].enumerate()
            out[v] = values[int(rng.integers(len(values)))]
        return Setting(out)


@dataclass(frozen=True)
class ExplicitSettings(DefinedDomain):
    settings: tuple

    def contains(self, setting: Setting) -> bool:
        return any(setting.close_to(s) for s in self.settings)

    def enumerate(self) -> tuple:
        return self.settings

    def sample(self, rng) -> Setting:
        return self.settings[int(rng.integers(len(self.settings)))]


@dataclass(frozen=True)
class PredicateDomain(DefinedDomain):
    predicate: Callable[[Setting], bool]
    sampler: Optional[Callable] = None

    def contains(self, setting: Setting) -> bool:
        return bool(self.predicate(setting))

    def sample(self, rng) -> Setting:
        if self.sampler is None:
            raise NotImplementedError("predicate domain has no sampler")
        return self.sampler(rng)


@dataclass(frozen=True)
class OmegaVar:
    """One per-high-mechanism-variable partial intervention map."""

    high_var: VarId
    low_vars: tuple
    fn: Callable[[Setting], object]
    defined: DefinedDomain


@dataclass(frozen=True)
class InterventionMapping:
    per_var: Mapping[VarId, OmegaVar]


def push_omega(a: Optional[Alignment], w: InterventionMapping, low_intervention: Setting):
    """Translate a low-level mechanism intervention covering whole collections
    into the high-level intervention; OmegaUndefined when some collections's
    setting falls outside the defined domain.  When an alignment is supplied,
    each omega's collection must agree with the aligned mechanism groups."""
    if a is not None:
        for hv, ov in w.per_var.items():
            if hv.paired(Layer.OBJECT) in a.groups and set(ov.low_vars) != set(
                a.mech_collection(hv)
            ):
                raise ValueError(
                    f"collection of {hv!r} disagrees with the alignment"
                )
    remaining = set(low_intervention.vars)
    out = {}
    for high_var, ov in sorted(w.per_var.items(), key=lambda kv: kv[0].name):
        covered = set(ov.low_vars) & low_intervention.vars
        if not covered:
            continue
        if covered != set(ov.low_vars):
            raise PartialCollection(
                f"intervention covers only part of the collection for {high_var!r}"
            )
        block = low_intervention.project(ov.low_vars)
        if not ov.defined.contains(block):
            return OmegaUndefined(
                f"{high_var!r}: {block!r} outside omega's defined domain"
            )
        out[high_var] = ov.fn(block)
        remaining -= set(ov.low_vars)
    if remaining:
        raise PartialCollection(
            f"intervention targets variables outside every collection: {sorted(remaining, key=repr)}"
        )
    return Setting(out)


# ---------------------------------------------------------------------------
# Distribution-set matching


def _dist_distance(d1: Distribution, d2: Distribution) -> float:
    """Sup-norm between two exact distributions, aligning atoms by
    value-closeness and treating unmatched atoms as probability zero."""
    worst = 0.0
    for s1, p1 in d1.atoms:
        p2 = 0.0
        for s2, q in d2.atoms:
            if s1.close_to(s2):
                p2 = q
                break
        worst = max(worst, abs(p1 - p2))
    for s2, p2 in d2.atoms:
        p1 = 0.0
        for s1, q in d1.atoms:
            if s2.close_to(s1):
                p1 = q
                break
        worst = max(worst, abs(p2 - p1))
    return worst


def dists_match(
    set1: Sequence[Distribution],
    set2: Sequence[Distribution],
    tol: float,
):
    """Match two finite sets of distributions as sets: ``max_mismatch`` is
    the least, over one-to-one pairings, of the largest paired distance (the
    bottleneck matching), so it depends on neither order nor side.  Returns
    (max_mismatch <= tol, max_mismatch)."""
    set1, set2 = list(set1), list(set2)
    if len(set1) != len(set2):
        return False, float("inf")
    if any(d.n_samples is not None for d in set1 + set2):
        # sampled comparisons fall back to total variation
        dist_fn = lambda a, b: a.tv_distance(b)
    else:
        dist_fn = _dist_distance
    dist = [[dist_fn(d1, d2) for d2 in set2] for d1 in set1]
    limits = sorted({x for row in dist for x in row})
    worst = next((t for t in limits if _has_perfect_matching(dist, t)), 0.0)
    return worst <= tol, worst


def _has_perfect_matching(dist: list, limit: float) -> bool:
    """Whether the pairs at distance at most ``limit`` admit a perfect
    matching (Kuhn's augmenting paths)."""
    owner = [None] * len(dist)  # column -> matched row

    def augment(i: int, seen: set) -> bool:
        for j, x in enumerate(dist[i]):
            if x <= limit and j not in seen:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(dist)))


# ---------------------------------------------------------------------------
# Abstraction check


@dataclass(frozen=True)
class InterventionEntry:
    low_intervention: Setting
    high_intervention: object  # Setting | OmegaUndefined
    matched: bool
    max_mismatch: float
    n_low: int
    n_high: int
    note: str = ""


@dataclass(frozen=True)
class AbstractionReport:
    entries: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return all(e.matched for e in self.entries)

    @property
    def n_matched(self) -> int:
        return sum(1 for e in self.entries if e.matched)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"abstraction: {verdict} ({self.n_matched}/{len(self.entries)})"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tol": self.tol,
            "n_interventions": len(self.entries),
            "n_matched": self.n_matched,
            "entries": [
                {
                    "low": repr(e.low_intervention),
                    "high": repr(e.high_intervention),
                    "matched": e.matched,
                    "max_mismatch": e.max_mismatch,
                    "n_low_distributions": e.n_low,
                    "n_high_distributions": e.n_high,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def check_abstraction(
    low: MechanizedSCM,
    high: MechanizedSCM,
    a: Alignment,
    t: ValueMapping,
    w: InterventionMapping,
    suite: Iterable[Setting],
    tol: float = 1e-9,
    *,
    n: Optional[int] = None,
    seed: int = 0,
) -> AbstractionReport:
    """Verify the distribution-set consistency equation on every intervention
    in the suite: low-level solution distributions pushed through tau must
    equal, as a set, the high-level solution distributions under the mapped
    intervention.  With ``n=None`` both sides are exact tables, matched by
    sup-norm; with ``n=k`` both are frequencies of ``k`` samples drawn from
    ``seed``, matched by total variation."""
    check_sample_count(n)
    tau = lambda s: push_tau(a, t, s)
    entries = []
    for low_iv in suite:
        high_iv = push_omega(a, w, low_iv)
        if isinstance(high_iv, OmegaUndefined):
            entries.append(
                InterventionEntry(low_iv, high_iv, False, float("inf"), 0, 0, high_iv.reason)
            )
            continue
        pushed = solution_distributions(low, low_iv, push=tau, n=n, seed=seed)
        high_dists = solution_distributions(high, high_iv, n=n, seed=seed)
        matched, worst = dists_match(pushed, high_dists, tol)
        note = "" if matched else f"{len(pushed)} low vs {len(high_dists)} high distributions"
        entries.append(
            InterventionEntry(low_iv, high_iv, matched, worst, len(pushed), len(high_dists), note)
        )
    return AbstractionReport(tuple(entries), tol)


# ---------------------------------------------------------------------------
# Strongness


@dataclass(frozen=True)
class StrongReport:
    ok: bool
    gaps: Mapping[VarId, tuple]  # high values with no omega preimage
    coverage: Mapping[VarId, float]

    def __bool__(self) -> bool:
        return self.ok


def check_strong(
    w: InterventionMapping,
    high_domains: Mapping[VarId, Domain],
    n: Optional[int] = None,
    seed: int = 0,
) -> StrongReport:
    """Surjectivity of each per-variable omega onto its high-level domain.
    With ``n=None`` both sides are enumerated (discretized for continuous
    domains); with ``n=k`` the image is that of ``k`` preimages sampled from
    ``seed``, and coverage is the fraction of high values it hits."""
    check_sample_count(n)
    gaps: dict = {}
    coverage: dict = {}
    for high_var, ov in sorted(w.per_var.items(), key=lambda kv: kv[0].name):
        targets = high_domains[high_var].enumerate()
        if n is None:
            image = [ov.fn(s) for s in ov.defined.enumerate()]
        else:
            rng = np.random.default_rng(seed)
            image = [ov.fn(ov.defined.sample(rng)) for _ in range(n)]
        missing = tuple(
            tv for tv in targets if not any(values_close(tv, iv) for iv in image)
        )
        gaps[high_var] = missing
        coverage[high_var] = 1.0 - len(missing) / len(targets)
    ok = all(not g for g in gaps.values())
    return StrongReport(ok, gaps, coverage)


# ---------------------------------------------------------------------------
# Proposition-style precondition check


@dataclass(frozen=True)
class Prop1Report:
    tau_injective: bool
    independent_mechanisms: bool

    @property
    def conclusion(self) -> bool:
        """Both preconditions hold, so the abstracted target cannot be a
        non-trivial agent."""
        return self.tau_injective and self.independent_mechanisms


def prop1_preconditions(
    low: MechanizedSCM,
    high: MechanizedSCM,
    a: Alignment,
    t: ValueMapping,
    w: InterventionMapping,
    target: VarId,
) -> Prop1Report:
    """Check, by enumeration, (i) injectivity of tau restricted to the
    parents of the target's object variable and (ii) that every low-level
    mechanism node aligned with the target has an independent mechanism."""
    if target.layer is not Layer.MECHANISM:
        raise ValueError("target must be a high-level mechanism variable")
    check_target(high.mech_model, target)
    target_obj = target.paired(Layer.OBJECT)
    parents = high.obj_model.parents.get(target_obj, ())

    injective = True
    if parents:
        per_parent_inputs = []
        for p in parents:
            group = tuple(sorted(a.group(p), key=lambda v: v.name))
            grids = [low.obj_model.domains[v].enumerate() for v in group]
            per_parent_inputs.append(
                [Setting(dict(zip(group, combo))) for combo in itertools.product(*grids)]
            )
        seen: dict = {}
        for combo in itertools.product(*per_parent_inputs):
            image = tuple(t.maps[p](s) for p, s in zip(parents, combo))
            key = canon_key(image)
            if key in seen and seen[key] != tuple(combo):
                injective = False
                break
            seen[key] = tuple(combo)

    independent = all(
        has_independent_mechanism(low.mech_model, v)
        for v in a.mech_collection(target)
    )
    return Prop1Report(injective, independent)


# ---------------------------------------------------------------------------
# Identity maps and intervention suites


def identity_maps(m: MechanizedSCM):
    """Identity alignment, value mapping, and intervention mapping of a model
    onto itself (singleton groups, total omega)."""
    groups = {v: frozenset([v]) for v in m.object_vars}
    a = Alignment(groups)
    t = ValueMapping({v: (lambda s, _v=v: s[_v]) for v in m.object_vars})
    per_var = {}
    for v in m.object_vars:
        mv = v.paired(Layer.MECHANISM)
        per_var[mv] = OmegaVar(
            high_var=mv,
            low_vars=(mv,),
            fn=lambda s, _mv=mv: s[_mv],
            defined=AllOfDomains({mv: m.mech_model.domains[mv]}),
        )
    return a, t, InterventionMapping(per_var)


def grid_suite(w: InterventionMapping, subset: Sequence[VarId]) -> tuple:
    """All low-level interventions on the union of the chosen high variables'
    collections, enumerating each omega's defined domain."""
    blocks = [w.per_var[hv].defined.enumerate() for hv in subset]
    out = []
    for combo in itertools.product(*blocks):
        merged = EMPTY_SETTING
        for block in combo:
            merged = merged.union(block)
        out.append(merged)
    return tuple(out)


def full_subset_suite(w: InterventionMapping, include_empty: bool = True) -> tuple:
    """Interventions for every subset of high-level mechanism variables times
    the grid over omega's defined domains.  Exhaustive only after
    discretization; intended for small models."""
    high_vars = sorted(w.per_var, key=lambda v: v.name)
    out = []
    sizes = range(0 if include_empty else 1, len(high_vars) + 1)
    for k in sizes:
        for subset in itertools.combinations(high_vars, k):
            out.extend(grid_suite(w, subset))
    return tuple(out)
