"""Mechanized structural causal models.

The building blocks: variables split into object and mechanism layers,
settings (partial assignments of tagged values), a deterministic possibly
cyclic model over the mechanism layer, a parameterized acyclic model over the
object layer, and the pairing of the two.  Solving the mechanism layer under a
hard intervention yields parameter settings; each one instantiates an object
model whose distribution can be computed.  A distribution is one canonical
table of atoms either way: ``n=None`` enumerates it exactly, ``n=k`` holds the
frequencies of ``k`` forward samples drawn from ``seed``.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "Layer",
    "VarId",
    "obj",
    "mech",
    "Domain",
    "FiniteDomain",
    "RealBox",
    "Table",
    "Setting",
    "EMPTY_SETTING",
    "all_settings",
    "values_close",
    "canon_key",
    "DeterministicSCM",
    "solve_enumerate",
    "solve_acyclic",
    "solution_set",
    "ObjectAssign",
    "DeterministicAssign",
    "BernoulliAssign",
    "KernelAssign",
    "SamplerAssign",
    "ParameterizedSCM",
    "InducedSCM",
    "MechanizedSCM",
    "induce_scm",
    "Distribution",
    "distribution",
    "solution_distributions",
    "MechSCMError",
    "NonFiniteDomain",
    "EmptyDomain",
    "NoConvergence",
    "IncompleteSolution",
]

FLOAT_TOL = 1e-9
TABLES_KEPT = 128  # exact distribution tables kept per ParameterizedSCM


# ---------------------------------------------------------------------------
# Errors


class MechSCMError(Exception):
    """Base class for model errors."""


class NonFiniteDomain(MechSCMError):
    """An operation needed a finite (or discretized) domain and got none."""


class EmptyDomain(MechSCMError):
    """A domain required to be non-empty was empty."""


class IncompleteSolution(MechSCMError):
    """A mechanism solution left some mechanism variable unassigned."""


class NoConvergence(MechSCMError):
    """Fixed-point iteration did not reach the tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# ---------------------------------------------------------------------------
# Variables


class Layer(enum.Enum):
    OBJECT = "object"
    MECHANISM = "mechanism"


@dataclass(frozen=True, slots=True)
class VarId:
    """A variable identifier: a name plus the layer it lives on.

    An object variable and its mechanism variable share the same name and
    differ only in layer, which encodes the one-to-one pairing between the
    two layers.
    """

    name: str
    layer: Layer
    # cached, not compared: the dataclass hash, hash((name, layer)), since
    # Layer hashes in Python; the order key that canonical tables sort by;
    # and the paired variable on the other layer (see paired)
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _pairs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.layer)))
        object.__setattr__(self, "_key", (self.name, self.layer.value))
        object.__setattr__(self, "_pairs", {})

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, so re-hashed, in the loading process
        return VarId, (self.name, self.layer)

    def paired(self, layer: Layer) -> "VarId":
        """The variable of the same name on ``layer``: this one on its own
        layer, else one built on first request and cached, so pairing again
        returns the identical object."""
        if layer is self.layer:
            return self
        found = self._pairs.get(layer.value)
        if found is None:
            found = self._pairs[layer.value] = VarId(self.name, layer)
        return found

    def __repr__(self) -> str:  # compact: A, ~A
        if self.layer is Layer.MECHANISM:
            return f"~{self.name}"
        return self.name


def obj(name: str) -> VarId:
    return VarId(name, Layer.OBJECT)


def mech(name: str) -> VarId:
    return VarId(name, Layer.MECHANISM)


# ---------------------------------------------------------------------------
# Values and comparison helpers


class Table:
    """An immutable finite function used as a variable value (e.g. a payoff
    table).  Hashable so it can sit inside settings and finite domains."""

    __slots__ = ("keys", "values", "_lookup", "_hash")

    def __init__(self, keys: Sequence, values: Sequence):
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_lookup", dict(zip(self.keys, self.values)))
        object.__setattr__(self, "_hash", hash((self.keys, self.values)))

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "Table":
        items = sorted(mapping.items(), key=lambda kv: canon_key(kv[0]))
        return cls([k for k, _ in items], [v for _, v in items])

    def __call__(self, key):
        return self._lookup[key]

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Table is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Table)
            and self.keys == other.keys
            and self.values == other.values
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{k!r}: {v!r}" for k, v in zip(self.keys, self.values))
        return f"Table({{{body}}})"


def values_close(x, y, tol: float = FLOAT_TOL) -> bool:
    """Equality for variable values: exact on symbols, coordinatewise within
    ``tol`` on reals, recursive on tuples and tables."""
    if isinstance(x, bool) or isinstance(y, bool):
        return x is y
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return abs(float(x) - float(y)) <= tol
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(values_close(a, b, tol) for a, b in zip(x, y))
    if isinstance(x, Table) and isinstance(y, Table):
        return x.keys == y.keys and values_close(x.values, y.values, tol)
    return x == y


def canon_key(value):
    """A deterministic sort key over heterogeneous values.  Plain ints and
    floats are matched by exact type first; bool, np.float64 and the rest
    take the isinstance chain, tuples first (no tuple is a bool, number or
    str).  Every real number, np.int64 included, is keyed by its float value,
    so equal numbers get one key and sort numerically; the slower abstract
    ``numbers.Real`` check comes last, as no str or Table is a number."""
    if type(value) is int or type(value) is float:
        return ("f", float(value))
    if isinstance(value, tuple):
        return ("t", tuple([canon_key(v) for v in value]))
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("f", float(value))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, Table):
        return ("T", canon_key(value.keys), canon_key(value.values))
    if isinstance(value, numbers.Real):
        return ("f", float(value))
    return ("r", repr(value))


# ---------------------------------------------------------------------------
# Domains


class Domain:
    """Base class for variable ranges."""

    def contains(self, value) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def is_enumerable(self) -> bool:
        return False

    def enumerate(self) -> tuple:
        raise NonFiniteDomain(f"{self!r} is not enumerable")


@dataclass(frozen=True)
class FiniteDomain(Domain):
    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyDomain("finite domain must be non-empty")

    def contains(self, value) -> bool:
        return any(values_close(value, v) for v in self.values)

    @property
    def is_enumerable(self) -> bool:
        return True

    def enumerate(self) -> tuple:
        return self.values


def _axis_grid(lo: float, hi: float, step: float) -> tuple:
    n = int(round((hi - lo) / step))
    pts = [round(lo + k * step, 12) for k in range(n + 1)]
    if not math.isclose(pts[-1], hi, abs_tol=1e-12):
        pts.append(hi)
    return tuple(pts)


@dataclass(frozen=True)
class RealBox(Domain):
    """A box in R^d.  Scalar boxes (d = 1) hold plain floats, higher
    dimensions hold tuples.  A grid step makes the domain enumerable for the
    solvers; membership is the full continuum regardless of the grid."""

    lower: tuple
    upper: tuple
    grid_step: Optional[float] = 0.01

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have equal dimension")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("lower bound above upper bound")
        step = self.grid_step
        if step is not None and not (isinstance(step, numbers.Real) and 0 < step < math.inf):
            raise ValueError(f"grid_step must be None or a positive finite number, not {step!r}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, value) -> bool:
        coords = (value,) if self.dim == 1 else value
        if not isinstance(coords, tuple) or len(coords) != self.dim:
            return False
        return all(
            isinstance(c, (int, float)) and l - FLOAT_TOL <= c <= u + FLOAT_TOL
            for c, l, u in zip(coords, self.lower, self.upper)
        )

    @property
    def is_enumerable(self) -> bool:
        return self.grid_step is not None

    def enumerate(self) -> tuple:
        if self.grid_step is None:
            raise NonFiniteDomain("real box has no discretization grid")
        axes = [_axis_grid(l, u, self.grid_step) for l, u in zip(self.lower, self.upper)]
        if self.dim == 1:
            return axes[0]
        return tuple(itertools.product(*axes))


# ---------------------------------------------------------------------------
# Settings


class Setting(Mapping):
    """An immutable partial assignment of values to variables.

    Because every value is keyed by its owning variable, a setting is
    faithfully a set of tagged values and projection is just key filtering.
    The public constructor, ``drop``, ``set`` and a ``union`` with a plain
    Mapping operand hash at once, so an unhashable value is rejected there;
    settings built from values the package already holds (``_own``: ``project``,
    a ``union`` of Settings only) compute ``hash(frozenset(items))`` on first use.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, assignments: Mapping[VarId, object] | Iterable = ()):
        items = dict(assignments)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", hash(frozenset(items.items())))

    @classmethod
    def _own(cls, items: dict) -> "Setting":
        """A setting that takes ``items``, a dict the caller just built and
        drops, without copying or hashing it."""
        s = object.__new__(cls)
        object.__setattr__(s, "_items", items)
        object.__setattr__(s, "_hash", None)
        return s

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Setting is immutable")

    def __reduce__(self):  # rebuilt, so re-hashed, in the loading process
        return Setting, (self._items,)

    # Mapping protocol
    def __getitem__(self, var: VarId):
        return self._items[var]

    def __iter__(self) -> Iterator[VarId]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, var) -> bool:
        return var in self._items

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._items.items())))
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Setting) and self._items == other._items

    @property
    def vars(self) -> frozenset:
        return frozenset(self._items)

    def project(self, targets: Iterable[VarId]) -> "Setting":
        targets = set(targets)
        return Setting._own({v: x for v, x in self._items.items() if v in targets})

    def drop(self, targets: Iterable[VarId]) -> "Setting":
        targets = set(targets)
        return Setting({v: x for v, x in self._items.items() if v not in targets})

    def union(self, *others: "Setting | Mapping[VarId, object]") -> "Setting":
        """This setting merged with any number of Settings or Mappings, in
        order.  A variable keeps its first position and the last of its equal
        values; ValueError naming it when two values differ."""
        merged = dict(self._items)
        owned = True
        for other in others:
            if isinstance(other, Setting):
                items = other._items
            else:
                items, owned = dict(other), False
            for v, x in items.items():
                if v in merged and merged[v] != x:
                    raise ValueError(f"conflicting values for {v!r}")
                merged[v] = x
        return Setting._own(merged) if owned else Setting(merged)

    def set(self, var: VarId, value) -> "Setting":
        merged = dict(self._items)
        merged[var] = value
        return Setting(merged)

    def sorted_items(self) -> tuple:
        return tuple(sorted(self._items.items(), key=lambda kv: kv[0]._key))

    def close_to(self, other: "Setting", tol: float = FLOAT_TOL) -> bool:
        theirs = other._items
        return self._items.keys() == theirs.keys() and all(
            values_close(x, theirs[v], tol) for v, x in self._items.items()
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{v!r}={x!r}" for v, x in self.sorted_items())
        return f"{{{body}}}"


EMPTY_SETTING = Setting()


def all_settings(variables: Sequence[VarId], domains: Mapping[VarId, Domain]) -> Iterator[Setting]:
    """Every setting of ``variables`` within their domains, in product order
    (the last variable varies fastest).  NonFiniteDomain at once, not on
    first iteration, when some domain is not finite or discretized."""
    variables = tuple(variables)
    for v in variables:
        if not domains[v].is_enumerable:
            raise NonFiniteDomain(f"domain of {v!r} is not finite or discretized")
    grids = [domains[v].enumerate() for v in variables]
    return (Setting(zip(variables, combo)) for combo in itertools.product(*grids))


def setting_sort_key(s: Setting):
    return _items_key(s.sorted_items())


def _items_key(items) -> tuple:
    """The canonical order key of (VarId, value) pairs given in variable
    order: one (name, layer value, canon_key(value)) triple per pair."""
    return tuple([(*v._key, canon_key(x)) for v, x in items])


def _topological_order(variables: Sequence[VarId], parents: Mapping) -> Optional[tuple]:
    """Kahn's sort, taking ready variables by name at each round; None when
    the parent graph has a cycle.  Parents outside ``variables`` are ignored."""
    remaining = {v: set(parents.get(v, ())) for v in variables}
    order = []
    while remaining:
        ready = sorted(
            (v for v, ps in remaining.items() if not (ps & remaining.keys())),
            key=lambda v: v.name,
        )
        if not ready:
            return None
        for v in ready:
            order.append(v)
            del remaining[v]
    return tuple(order)


# ---------------------------------------------------------------------------
# Deterministic (cyclic) model over the mechanism layer


@dataclass(frozen=True)
class DeterministicSCM:
    """A set of functions, one per variable, each from settings of the other
    variables to the variable's own domain.  Cycles are allowed; ``parents``
    optionally declares the true dependency structure, which enables the
    forward solver when the declared graph is acyclic.  The enumerating solver
    calls each function on all the other variables; the forward solver, on
    the values resolved before it in topological order, which include its
    declared parents.

    ``analytic_solutions`` may map an intervention to a registered closed-form
    solution set (or return None to fall back to the generic solvers).
    """

    variables: tuple
    domains: Mapping[VarId, Domain]
    assignments: Mapping[VarId, Callable[[Setting], object]]
    parents: Optional[Mapping[VarId, frozenset]] = None
    analytic_solutions: Optional[Callable[[Setting], Optional[frozenset]]] = None

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for v in self.variables:
            if v not in self.domains or v not in self.assignments:
                raise ValueError(f"missing domain or assignment for {v!r}")
        order = None if self.parents is None else _topological_order(self.variables, self.parents)
        object.__setattr__(self, "_order", order)
        vs = tuple(self.variables)
        object.__setattr__(self, "_others", {v: vs[:i] + vs[i + 1 :] for i, v in enumerate(vs)})

    def others(self, var: VarId) -> tuple:
        """The model's variables other than ``var``, in declaration order."""
        return self._others[var]

    def topological_order(self) -> Optional[tuple]:
        """Topological order of the declared parent graph, or None if no
        parents are declared or the graph has a cycle."""
        return self._order


def _check_intervention(m: DeterministicSCM, intervention: Setting) -> None:
    if not isinstance(intervention, Setting):
        raise TypeError(f"intervention must be a Setting, got {type(intervention).__name__}")
    unknown = intervention._items.keys() - m._others.keys()
    if unknown:
        raise ValueError(f"intervention targets unknown variables: {unknown}")
    for v, x in intervention._items.items():
        if not m.domains[v].contains(x):
            raise ValueError(f"intervention value {x!r} is outside the domain of {v!r}")


def check_target(m: DeterministicSCM, target: VarId) -> None:
    """Raise ValueError unless ``target`` is a variable of ``m``."""
    if target not in m.domains:
        raise ValueError(f"{target!r} is not a variable of the model")


def check_sample_count(n: Optional[int]) -> None:
    """Raise ValueError unless ``n`` is None (exact) or a positive integer."""
    if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"sampling needs an integer n >= 1, got {n!r}")


def solve_enumerate(m: DeterministicSCM, intervention: Setting = EMPTY_SETTING) -> frozenset:
    """All joint settings satisfying every non-intervened assignment and
    matching the intervention exactly.  Non-intervened variables must have
    enumerable domains.  A registered analytic solution set is not consulted
    here; ``solution_set`` does that."""
    _check_intervention(m, intervention)
    free = [v for v in m.variables if v not in intervention._items]
    for v in free:
        if not m.domains[v].is_enumerable:
            raise NonFiniteDomain(f"domain of {v!r} is not finite or discretized")

    pinned = {v: intervention[v] for v in intervention.vars}
    free_values = [m.domains[v].enumerate() for v in free]
    # Cache mechanism outputs per (variable, context restricted to the other
    # variables); contexts repeat heavily during enumeration.
    cache: dict = {}

    def response(v: VarId, joint: dict):
        key = (v, tuple(joint[w] for w in m.variables if w != v))
        if key not in cache:
            ctx = Setting({w: joint[w] for w in m.variables if w != v})
            cache[key] = m.assignments[v](ctx)
        return cache[key]

    solutions = []
    for combo in itertools.product(*free_values):
        joint = dict(pinned)
        joint.update(zip(free, combo))
        if all(values_close(response(v, joint), joint[v]) for v in free):
            solutions.append(Setting(joint))
    return frozenset(solutions)


def solve_acyclic(m: DeterministicSCM, intervention: Setting = EMPTY_SETTING) -> Setting:
    """Forward substitution along the declared acyclic dependency order.
    Returns the unique solution under the intervention."""
    _check_intervention(m, intervention)
    order = m.topological_order()
    if order is None:
        raise MechSCMError("model has no declared acyclic dependency structure")
    fixed = intervention._items
    values: dict = {}
    for v in order:
        if v in fixed:
            values[v] = fixed[v]
        else:
            # the values resolved so far, which include v's declared parents
            values[v] = m.assignments[v](Setting._own(dict(values)))
    return Setting._own(values)


def solution_set(m: DeterministicSCM, intervention: Setting = EMPTY_SETTING) -> frozenset:
    """Solution set under an intervention: a registered analytic set if
    there is one, else the forward solver on declared acyclic structure, else
    enumeration.  ValueError for an intervention outside the model's domains,
    whichever answers."""
    if m.analytic_solutions is not None:
        _check_intervention(m, intervention)
        registered = m.analytic_solutions(intervention)
        if registered is not None:
            return frozenset(registered)
    if m.topological_order() is not None:
        return frozenset([solve_acyclic(m, intervention)])
    return solve_enumerate(m, intervention)


# ---------------------------------------------------------------------------
# Object-level mechanisms

# An object assignment is, per the formal definition, a deterministic function
# of (parameter, parents, noise) together with an independent noise
# distribution.  The classes below carry that functional form plus, when the
# noise is finite or analytically integrable, the exact local conditional
# used by exact inference.


class ObjectAssign:
    def kernel(self, theta, parents: Mapping[VarId, object]) -> Optional[dict]:
        """Exact conditional {value: prob} given parameter and parents, or
        None when only sampling is available."""
        raise NotImplementedError

    def sample(self, theta, parents: Mapping[VarId, object], rng: np.random.Generator):
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicAssign(ObjectAssign):
    """Value is a deterministic function of parameter and parents; the noise
    variable has a singleton domain."""

    fn: Callable

    def kernel(self, theta, parents):
        return {self.fn(theta, parents): 1.0}

    def sample(self, theta, parents, rng):
        return self.fn(theta, parents)


@dataclass(frozen=True)
class BernoulliAssign(ObjectAssign):
    """Two-valued assignment: value ``hi`` with probability p(theta, parents),
    driven by a Uniform(0, 1) noise variable through a threshold."""

    p_fn: Callable
    hi: object = 1
    lo: object = 0

    def kernel(self, theta, parents):
        p = float(self.p_fn(theta, parents))
        if p <= 0.0:
            return {self.lo: 1.0}
        if p >= 1.0:
            return {self.hi: 1.0}
        return {self.hi: p, self.lo: 1.0 - p}

    def sample(self, theta, parents, rng):
        p = float(self.p_fn(theta, parents))
        return self.hi if rng.random() < p else self.lo


@dataclass(frozen=True)
class KernelAssign(ObjectAssign):
    """Assignment given directly by its exact conditional; sampling uses the
    inverse CDF over a canonical value order with Uniform(0, 1) noise."""

    kernel_fn: Callable

    def kernel(self, theta, parents):
        return dict(self.kernel_fn(theta, parents))

    def sample(self, theta, parents, rng):
        dist = self.kernel_fn(theta, parents)
        items = sorted(dist.items(), key=lambda kv: canon_key(kv[0]))
        u = rng.random()
        acc = 0.0
        for v, p in items:
            acc += p
            if u < acc:
                return v
        return items[-1][0]


@dataclass(frozen=True)
class SamplerAssign(ObjectAssign):
    """Assignment with continuous noise: only sampling is available, so exact
    inference raises NonFiniteDomain."""

    sampler: Callable

    def kernel(self, theta, parents):
        return None

    def sample(self, theta, parents, rng):
        return self.sampler(theta, parents, rng)


# ---------------------------------------------------------------------------
# Parameterized object-level model


@dataclass(frozen=True)
class ParameterizedSCM:
    """Acyclic object-level model whose structural assignments are indexed by
    a parameter per variable; its topological order is derived, and ranked
    by variable order key, once.  ``distribution`` keeps up to ``TABLES_KEPT``
    exact tables on it, oldest dropped first (see there); no field holds them."""

    variables: tuple
    parents: Mapping[VarId, tuple]
    domains: Mapping[VarId, Domain]
    param_domains: Mapping[VarId, Domain]
    assigns: Mapping[VarId, ObjectAssign]

    def __post_init__(self):
        order = _topological_order(self.variables, self.parents)
        if order is None:
            raise ValueError("object-level graph must be acyclic")
        object.__setattr__(self, "_order", order)
        ranked = sorted(range(len(order)), key=lambda i: order[i]._key)
        object.__setattr__(self, "_ranked", tuple(ranked))
        object.__setattr__(self, "_tables", {})

    @property
    def topological_order(self) -> tuple:
        return self._order

    def at(self, theta: Mapping[VarId, object]) -> "InducedSCM":
        missing = [v for v in self.variables if v not in theta]
        if missing:
            raise IncompleteSolution(f"missing parameters for {missing}")
        for v in self.variables:
            try:
                hash(theta[v])
            except TypeError:
                raise ValueError(f"parameter of {v!r} is unhashable: {theta[v]!r}") from None
        return InducedSCM(self, {v: theta[v] for v in self.variables})


@dataclass(frozen=True)
class InducedSCM:
    """A parameterized model instantiated at a full parameter setting."""

    model: ParameterizedSCM
    theta: Mapping[VarId, object]


# ---------------------------------------------------------------------------
# Mechanized SCM


@dataclass(frozen=True)
class MechanizedSCM:
    """The pair of a deterministic mechanism-layer model and a parameterized
    object-level model, with name-paired variables (paired once, when the
    model is built) and matching parameter domains."""

    mech_model: DeterministicSCM
    obj_model: ParameterizedSCM

    def __post_init__(self):
        mech_names = {v.name for v in self.mech_model.variables}
        obj_names = {v.name for v in self.obj_model.variables}
        if mech_names != obj_names:
            raise ValueError(
                f"mechanism/object variables must pair one-to-one "
                f"(got {sorted(mech_names)} vs {sorted(obj_names)})"
            )
        by_name = {v.name: v for v in self.mech_model.variables}
        pairs = tuple((v, by_name[v.name]) for v in self.obj_model.variables)
        for v, mv in pairs:
            if self.obj_model.param_domains[v] != self.mech_model.domains[mv]:
                raise ValueError(f"parameter domain of {v!r} must equal dom({v.name} mechanism)")
        object.__setattr__(self, "_mech_pairs", pairs)

    @property
    def mech_vars(self) -> tuple:
        return self.mech_model.variables

    @property
    def object_vars(self) -> tuple:
        return self.obj_model.variables


def induce_scm(m: MechanizedSCM, mech_solution: Setting) -> InducedSCM:
    """Instantiate the object model at the parameters a mechanism solution
    assigns.  Every mechanism variable must be assigned."""
    values = mech_solution._items
    theta = {}
    missing = []
    for v, mv in m._mech_pairs:
        if mv in values:
            theta[v] = values[mv]
        else:
            missing.append(mv)
    if missing:
        raise IncompleteSolution(f"mechanism solution does not assign {missing}")
    return InducedSCM(m.obj_model, theta)


# ---------------------------------------------------------------------------
# Distributions


@dataclass(frozen=True)
class Distribution:
    """A finite table of ((Setting, probability), ...) atoms in canonical
    order.  ``n_samples`` is None for an exact table; otherwise the atoms are
    the frequencies of that many forward samples drawn from ``seed``.
    Exact tables are compared by aligning atoms: an atom pairs with its
    equal atom when ``close_to`` confirms it, else with the first atom, in
    canonical order, close to it (``abstraction._dist_distance``)."""

    atoms: tuple
    n_samples: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"table sums to {total!r}, not 1")

    def prob(self, setting: Setting, tol: float = FLOAT_TOL) -> float:
        total = 0.0
        for s, p in self.atoms:
            if s.close_to(setting, tol):
                total += p
        return total

    def expectation(self, fn: Callable[[Setting], float]) -> float:
        return sum(p * fn(s) for s, p in self.atoms)

    def map_atoms(self, fn: Callable[[Setting], Setting]) -> "Distribution":
        """Pushforward through a setting-to-setting map: atoms landing on the
        same setting merge; the sample count and seed are kept."""
        acc: dict = {}
        for s, p in self.atoms:
            mapped = fn(s)
            acc[mapped] = acc.get(mapped, 0.0) + p
        return exact_distribution(acc, self.n_samples, self.seed)

    def marginal(self, targets: Iterable[VarId]) -> "Distribution":
        targets = tuple(targets)
        return self.map_atoms(lambda s: s.project(targets))

    def tv_distance(self, other: "Distribution") -> float:
        a, b = dict(self.atoms), dict(other.atoms)
        keys = set(a) | set(b)
        return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def exact_distribution(
    table: Mapping[Setting, float], n_samples: Optional[int] = None, seed: Optional[int] = None
) -> Distribution:
    """The canonical Distribution of a {Setting: probability} table."""
    atoms = tuple(
        sorted(
            ((s, p) for s, p in table.items() if p > 0.0),
            key=lambda sp: setting_sort_key(sp[0]),
        )
    )
    return Distribution(atoms, n_samples, seed)


def _forward_paths(
    order: Sequence[VarId], parents: Mapping, kernel: Callable, fixed: Mapping
) -> dict:
    """Exact forward enumeration along ``order``: {value tuple in order:
    probability}.  ``kernel(v, parent_values)`` is v's exact conditional, or
    None when v has continuous noise; parents outside ``order`` take their
    values from ``fixed``."""
    pos = {w: i for i, w in enumerate(order)}
    paths: dict = {(): 1.0}
    for v in order:
        pvars = parents.get(v, ())
        new_paths: dict = {}
        for prefix, prob in paths.items():
            parent_values = {w: prefix[pos[w]] if w in pos else fixed[w] for w in pvars}
            k = kernel(v, parent_values)
            if k is None:
                raise NonFiniteDomain(f"{v!r} has continuous noise; exact mode unavailable")
            for value, p in k.items():
                if p <= 0.0:
                    continue
                key = prefix + (value,)
                new_paths[key] = new_paths.get(key, 0.0) + prob * p
        paths = new_paths
    return paths


def _same_value(x, y) -> bool:
    """Whether two values a dict lookup found equal (identical or ``==`` all
    the way down) are also of one type, and floats of one sign, all the way."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Table):
        x, y = (x.keys, x.values), (y.keys, y.values)
    if isinstance(x, tuple):
        return all(map(_same_value, x, y))
    return not isinstance(x, (float, np.floating)) or math.copysign(1, x) == math.copysign(1, y)


def distribution(scm: InducedSCM, n: Optional[int] = None, seed: int = 0) -> Distribution:
    """Joint distribution over the object variables.

    With ``n=None`` the finite support is enumerated exactly, forward in
    topological order; every variable must expose an exact local conditional
    (finite or analytically integrable noise), else NonFiniteDomain.  With
    ``n=k`` the table holds the frequencies (count / k) of ``k`` forward
    samples drawn from ``seed``.  Exact tables, not sampled ones, are kept on
    the model by the parameter values in topological order, served again to
    alike values only (``_same_value``: not ``True`` for ``1``, nor ``-0.0``
    for ``0.0``), else recomputed; past ``TABLES_KEPT`` the oldest is dropped."""
    check_sample_count(n)
    model = scm.model
    order = model.topological_order
    if n is None:
        key = tuple([scm.theta[v] for v in order])
        kept = model._tables.get(key)
        if kept is not None and _same_value(kept[0], key):
            return kept[1]
        kernel = lambda v, pa: model.assigns[v].kernel(scm.theta[v], pa)
        paths = _forward_paths(order, model.parents, kernel, {})
    else:
        rng = np.random.default_rng(seed)
        counts: dict = {}
        for _ in range(n):
            values: dict = {}
            for v in order:
                parent_values = {w: values[w] for w in model.parents.get(v, ())}
                values[v] = model.assigns[v].sample(scm.theta[v], parent_values, rng)
            key = tuple(values[v] for v in order)
            counts[key] = counts.get(key, 0) + 1
        paths = {key: c / n for key, c in counts.items()}
    # exact_distribution's order; every setting holds the same variables,
    # which the model ranked in sort order once
    ranked = model._ranked
    rows = sorted(
        (
            (_items_key([(order[i], values[i]) for i in ranked]), values, p)
            for values, p in paths.items()
            if p > 0.0
        ),
        key=lambda row: row[0],
    )
    atoms = tuple((Setting._own(dict(zip(order, values))), p) for _, values, p in rows)
    dist = Distribution(atoms, n, None if n is None else seed)
    if n is None:
        if kept is None and len(model._tables) >= TABLES_KEPT:
            del model._tables[next(iter(model._tables))]
        model._tables[key] = (key, dist)
    return dist


def solution_distributions(
    m: MechanizedSCM,
    intervention: Setting = EMPTY_SETTING,
    *,
    push: Optional[Callable[[Setting], Setting]] = None,
    n: Optional[int] = None,
    seed: int = 0,
) -> tuple:
    """One distribution per mechanism solution, in the canonical order of the
    solutions, with exactly equal distributions collapsed.  The dedupe only
    shrinks the set: ``abstraction.dists_match`` compares sets within a
    tolerance, so no verdict depends on it.  ``n`` and ``seed`` are
    passed to ``distribution``: exact tables by default, else frequencies of
    ``n`` samples, every solution's drawn from the same seed.

    ``push`` maps each object setting to another setting (an abstraction's
    value mapping, say); when given, every distribution is pushed forward
    through it before the duplicate check, so solutions that differ only in
    what ``push`` forgets yield one distribution."""
    check_sample_count(n)
    sols = solution_set(m.mech_model, intervention)
    if len(sols) != 1:  # one solution needs neither the order nor the dedupe
        sols = sorted(sols, key=setting_sort_key)
    dists = (distribution(induce_scm(m, s), n, seed) for s in sols)
    if push is not None:
        dists = (d.map_atoms(push) for d in dists)
    # a dict keeps the first of equal distributions, in solution order
    return tuple(dists) if len(sols) == 1 else tuple(dict.fromkeys(dists))
