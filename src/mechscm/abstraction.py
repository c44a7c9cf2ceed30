"""Variable alignments, value/intervention mappings, and abstraction checks.

The ``Alignment`` alone says which low-level variables each high-level one
stands for.  The value mapping tau is a plain mapping from each high-level
object variable to a function of its group's setting; the intervention
mapping omega, from each high-level mechanism variable to an ``OmegaVar`` on
the alignment's ``mech_collection`` of it.  The high model abstracts the low
one when, for every mapped mechanism intervention, the set of low-level
solution distributions pushed through tau equals the set of high-level ones.
Strongness also requires each omega to be onto its high-level domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from mechscm.core import (
    EMPTY_SETTING,
    Distribution,
    Domain,
    Layer,
    MechSCMError,
    MechanizedSCM,
    Setting,
    VarId,
    all_settings,
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
    "OmegaUndefined",
    "AllOfDomains",
    "ExplicitSettings",
    "OmegaVar",
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
    set of low-level object variables.  The mechanism-level alignment, by the
    object/mechanism pairing, and the high variables' name order are derived
    once, when the alignment is built."""

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
        by_name = lambda v: v.name
        object.__setattr__(self, "_high_vars", tuple(sorted(self.groups, key=by_name)))
        collections = {
            high: tuple(sorted((v.paired(Layer.MECHANISM) for v in lows), key=by_name))
            for high, lows in self.groups.items()
        }
        object.__setattr__(self, "_collections", collections)

    def mech_collection(self, high_mech: VarId) -> tuple:
        """``high_mech``'s aligned mechanism variables by name; ValueError if none."""
        collection = self._collections.get(high_mech.paired(Layer.OBJECT))
        if collection is None:
            raise ValueError(f"the alignment has no group for {high_mech!r}")
        return collection

    @property
    def high_object_vars(self) -> tuple:
        return self._high_vars


def _tau_of(t: Mapping, high: VarId) -> Callable[[Setting], object]:
    fn = t.get(high)
    if fn is None:
        raise ValueError(f"tau has no map for the aligned variable {high!r}")
    return fn


def push_tau(a: Alignment, t: Mapping, low_setting: Setting) -> Setting:
    """Translate a low-level object setting: one tau value per high-level
    variable, unioned (ValueError when ``t`` lacks one).  Low-level variables
    outside every group are marginalized away."""
    present = low_setting._items.keys()
    out = {}
    for high in a.high_object_vars:
        group = a.groups[high]
        if not group <= present:
            raise MissingVariables(f"low setting lacks {sorted(group - present, key=repr)}")
        out[high] = _tau_of(t, high)(low_setting.project(group))
    return Setting._own(out)


# ---------------------------------------------------------------------------
# Intervention mappings


class OmegaUndefined:
    """Returned when an intervention falls outside omega's defined domain."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"OmegaUndefined({self.reason!r})"


@dataclass(frozen=True)
class AllOfDomains:
    """The settings of exactly the collection's variables within their
    domains; enumerable whenever those domains are finite or discretized."""

    domains: Mapping[VarId, Domain]

    def contains(self, setting: Setting) -> bool:
        items, dom = setting._items, self.domains
        return items.keys() == dom.keys() and all(dom[v].contains(x) for v, x in items.items())

    def enumerate(self) -> tuple:
        return tuple(all_settings(sorted(self.domains, key=lambda v: v.name), self.domains))


@dataclass(frozen=True)
class ExplicitSettings:
    settings: tuple

    def __post_init__(self):
        for s in self.settings:
            if not isinstance(s, Setting):
                raise TypeError(f"settings must be Setting instances, got {type(s).__name__}")

    def contains(self, setting: Setting) -> bool:
        return any(setting.close_to(s) for s in self.settings)

    def enumerate(self) -> tuple:
        return self.settings


@dataclass(frozen=True)
class OmegaVar:
    """One high-level mechanism variable's partial intervention map, from
    settings of its collection (see ``Alignment.mech_collection``).  The
    variables of ``defined`` must be exactly that collection; nothing checks
    this yet, and a mismatch makes ``grid_suite`` emit settings of the wrong
    variables."""

    fn: Callable[[Setting], object]
    defined: AllOfDomains | ExplicitSettings


def push_omega(a: Alignment, w: Mapping[VarId, OmegaVar], low_intervention: Setting):
    """Translate a low-level mechanism intervention covering whole collections
    into the high-level intervention; OmegaUndefined when some collection's
    setting falls outside the defined domain.  Each collection is the
    alignment's ``mech_collection`` (ValueError when it has none)."""
    if not isinstance(low_intervention, Setting):
        raise TypeError(f"intervention must be a Setting, got {type(low_intervention).__name__}")
    remaining = set(low_intervention._items)
    out = {}
    for high_var, ov in sorted(w.items(), key=lambda kv: kv[0].name):
        lows = set(a.mech_collection(high_var))
        covered = lows.intersection(low_intervention._items)
        if not covered:
            continue
        if covered != lows:
            raise PartialCollection(
                f"intervention covers only part of the collection for {high_var!r}"
            )
        block = low_intervention.project(lows)
        if not ov.defined.contains(block):
            return OmegaUndefined(
                f"{high_var!r}: {block!r} outside omega's defined domain"
            )
        out[high_var] = ov.fn(block)
        remaining -= lows
    if remaining:
        raise PartialCollection(
            f"intervention targets variables outside every collection: {sorted(remaining, key=repr)}"
        )
    return Setting(out)


# ---------------------------------------------------------------------------
# Distribution-set matching


def _dist_distance(d1: Distribution, d2: Distribution) -> float:
    """Sup-norm between two exact distributions, treating unmatched atoms as
    probability zero.  An atom pairs with its equal atom in the other table
    when ``close_to`` confirms it ({A: True} equals {A: 1} but is not close
    to it), else with the first atom close to it, in the other table's atom
    order; so in a table with two distinct atoms within FLOAT_TOL, each
    pairs with its own equal atom, not the first close one."""
    worst = 0.0
    for mine, theirs in ((d1.atoms, d2.atoms), (d2.atoms, d1.atoms)):
        equal = {atom[0]: atom for atom in theirs}
        for s, p in mine:
            atom = equal.get(s)
            if atom is not None and s.close_to(atom[0]):
                q = atom[1]
            else:
                q = next((q for t, q in theirs if s.close_to(t)), 0.0)
            worst = max(worst, abs(p - q))
    return worst


def dists_match(
    set1: Sequence[Distribution],
    set2: Sequence[Distribution],
    tol: float,
):
    """Compare two finite sets of distributions as sets: ``max_mismatch`` is
    their Hausdorff distance, the largest distance from a distribution on
    either side to the nearest one on the other, so it depends on neither
    order, side nor repeats.  Returns (max_mismatch <= tol, max_mismatch):
    (True, 0.0) when both sides are empty, (False, inf) when one is.
    ValueError when ``tol`` is NaN or negative."""
    if not tol >= 0:
        raise ValueError(f"need tol >= 0, got {tol!r}")
    set1, set2 = list(set1), list(set2)
    if not set1 or not set2:
        return (True, 0.0) if set1 == set2 else (False, float("inf"))
    if any(d.n_samples is not None for d in set1 + set2):
        # sampled comparisons fall back to total variation
        dist_fn = lambda a, b: a.tv_distance(b)
    else:
        dist_fn = _dist_distance
    dist = [[dist_fn(d1, d2) for d2 in set2] for d1 in set1]
    worst = max(max(map(min, dist)), max(map(min, zip(*dist))))
    return worst <= tol, worst


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
    t: Mapping[VarId, Callable[[Setting], object]],
    w: Mapping[VarId, OmegaVar],
    suite: Iterable[Setting],
    tol: float = 1e-9,
    *,
    n: Optional[int] = None,
    seed: int = 0,
) -> AbstractionReport:
    """Verify the distribution-set consistency equation on every intervention
    in the suite: low-level solution distributions pushed through tau must
    equal the high-level solution distributions under the mapped
    intervention as sets, within ``tol`` in Hausdorff distance
    (``dists_match``), so repeats do not count.  With ``n=None`` both sides
    are exact tables, compared by sup-norm; with ``n=k`` both are
    frequencies of ``k`` samples drawn from ``seed``, compared by total
    variation.  ValueError when tau lacks an aligned variable or omega maps
    one the alignment lacks, or when ``tol`` is NaN or negative."""
    check_sample_count(n)
    if not tol >= 0:
        raise ValueError(f"need tol >= 0, got {tol!r}")
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


def check_strong(w: Mapping[VarId, OmegaVar], high_domains: Mapping[VarId, Domain]) -> StrongReport:
    """Surjectivity of each per-variable omega onto its high-level domain:
    the image of every defined preimage against every high value, both sides
    enumerated (discretized for continuous domains); coverage is the fraction
    of high values hit.  ValueError when ``high_domains`` lacks a variable of
    ``w``, or when an omega reads a variable its defined domain does not give."""
    gaps: dict = {}
    coverage: dict = {}
    for high_var, ov in sorted(w.items(), key=lambda kv: kv[0].name):
        if high_var not in high_domains:
            raise ValueError(f"no high-level domain given for {high_var!r}")
        targets = high_domains[high_var].enumerate()
        try:
            image = [ov.fn(s) for s in ov.defined.enumerate()]
        except KeyError as exc:
            raise ValueError(f"omega for {high_var!r} reads {exc}, outside its domain") from exc
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
    t: Mapping[VarId, Callable[[Setting], object]],
    w: Mapping[VarId, OmegaVar],
    target: VarId,
) -> Prop1Report:
    """Check, by enumeration, (i) injectivity of tau restricted to the
    parents of the target's object variable and (ii) that every low-level
    mechanism node aligned with the target has an independent mechanism.
    ValueError when the alignment lacks the target or a parent, or tau a parent."""
    if target.layer is not Layer.MECHANISM:
        raise ValueError("target must be a high-level mechanism variable")
    check_target(high.mech_model, target)
    collection = a.mech_collection(target)
    parents = high.obj_model.parents.get(target.paired(Layer.OBJECT), ())

    injective = True
    if parents:
        taus = [_tau_of(t, p) for p in parents]
        per_parent_inputs = []
        for p in parents:
            lows = a.mech_collection(p.paired(Layer.MECHANISM))  # p's group, by name
            group = [v.paired(Layer.OBJECT) for v in lows]
            per_parent_inputs.append(list(all_settings(group, low.obj_model.domains)))
        seen: dict = {}
        for combo in itertools.product(*per_parent_inputs):
            image = tuple(tau(s) for tau, s in zip(taus, combo))
            key = canon_key(image)
            if key in seen and seen[key] != tuple(combo):
                injective = False
                break
            seen[key] = tuple(combo)

    independent = all(has_independent_mechanism(low.mech_model, v) for v in collection)
    return Prop1Report(injective, independent)


# ---------------------------------------------------------------------------
# Identity maps and intervention suites


def identity_maps(m: MechanizedSCM):
    """Identity alignment, value mapping, and intervention mapping of a model
    onto itself (singleton groups, total omega)."""
    t = {v: (lambda s, _v=v: s[_v]) for v in m.object_vars}
    w = {
        mv: OmegaVar(lambda s, _mv=mv: s[_mv], AllOfDomains({mv: m.mech_model.domains[mv]}))
        for mv in m.mech_vars
    }
    return Alignment({v: frozenset([v]) for v in m.object_vars}), t, w


def grid_suite(w: Mapping[VarId, OmegaVar], subset: Sequence[VarId]) -> tuple:
    """All low-level interventions on the union of the chosen high variables'
    collections, in product order over each omega's defined domain: one
    ``union`` of a block per variable, hashed on first use; ``(EMPTY_SETTING,)``
    for none.  ValueError when ``w`` lacks a chosen variable or blocks conflict."""
    for hv in subset:
        if hv not in w:
            raise ValueError(f"the intervention mapping has no omega for {hv!r}")
    if not subset:
        return (EMPTY_SETTING,)
    blocks = [w[hv].defined.enumerate() for hv in subset]
    return tuple(combo[0].union(*combo[1:]) for combo in itertools.product(*blocks))


def full_subset_suite(w: Mapping[VarId, OmegaVar], include_empty: bool = True) -> tuple:
    """Interventions for every subset of high-level mechanism variables times
    the grid over omega's defined domains.  Exhaustive only after
    discretization; intended for small models."""
    high_vars = sorted(w, key=lambda v: v.name)
    out = []
    sizes = range(0 if include_empty else 1, len(high_vars) + 1)
    for k in sizes:
        for subset in itertools.combinations(high_vars, k):
            out.extend(grid_suite(w, subset))
    return tuple(out)
