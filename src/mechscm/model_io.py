"""JSON serialization for finite-domain mechanized models.

The document has five fixed top-level keys: ``variables`` (object-layer
names and parents), ``domains`` (object and mechanism ranges),
``mechanism_tables`` (each mechanism assignment tabulated over its declared
dependencies), ``object_tables`` (each object assignment's exact conditional
per parameter and parent configuration), and ``noise`` (per-variable noise
descriptors).  Analytic solution registrations and Python callables are
tabulated on save; loading reconstructs table-lookup assignments with the
same finite behavior.
"""

from __future__ import annotations

import itertools
import json
from typing import Mapping

from mechscm.core import (
    DeterministicAssign,
    DeterministicSCM,
    Domain,
    FiniteDomain,
    KernelAssign,
    MechanizedSCM,
    NonFiniteDomain,
    ParameterizedSCM,
    RealBox,
    Setting,
    Table,
    mech,
    obj,
)

__all__ = ["model_to_dict", "model_from_dict", "save_model", "load_model"]

FORMAT = "mechscm-model-v1"


# ---------------------------------------------------------------------------
# Value and domain codecs


def encode_value(v):
    if isinstance(v, bool) or isinstance(v, (int, float, str)):
        return v
    if isinstance(v, tuple):
        return {"t": [encode_value(x) for x in v]}
    if isinstance(v, Table):
        return {
            "T": {
                "keys": [encode_value(k) for k in v.keys],
                "values": [encode_value(x) for x in v.values],
            }
        }
    raise TypeError(f"value {v!r} is not serializable")


def decode_value(v):
    if isinstance(v, dict):
        if "t" in v:
            return tuple(decode_value(x) for x in v["t"])
        if "T" in v:
            return Table(
                [decode_value(k) for k in v["T"]["keys"]],
                [decode_value(x) for x in v["T"]["values"]],
            )
        raise ValueError(f"unknown value encoding {v!r}")
    return v


def encode_domain(d: Domain):
    if isinstance(d, FiniteDomain):
        return {"kind": "finite", "values": [encode_value(v) for v in d.values]}
    if isinstance(d, RealBox):
        return {
            "kind": "real_box",
            "lower": list(d.lower),
            "upper": list(d.upper),
            "grid_step": d.grid_step,
        }
    raise TypeError(f"domain {d!r} is not serializable")


def decode_domain(d):
    kind = d["kind"]
    if kind == "finite":
        return FiniteDomain(tuple(decode_value(v) for v in d["values"]))
    if kind == "real_box":
        return RealBox(tuple(d["lower"]), tuple(d["upper"]), d["grid_step"])
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Saving


def _require_enumerable(d: Domain, what: str):
    if not d.is_enumerable:
        raise NonFiniteDomain(f"{what} is not finite or discretized; cannot tabulate")


def model_to_dict(m: MechanizedSCM) -> dict:
    mech_model, obj_model = m.mech_model, m.obj_model
    names = [v.name for v in obj_model.variables]

    variables = [
        {"name": v.name, "parents": [p.name for p in obj_model.parents.get(v, ())]}
        for v in obj_model.variables
    ]

    domains = {
        "object": {v.name: encode_domain(obj_model.domains[v]) for v in obj_model.variables},
        "mechanism": {
            v.name: encode_domain(mech_model.domains[mech(v.name)]) for v in obj_model.variables
        },
    }

    mechanism_tables = {}
    for mv in mech_model.variables:
        if mech_model.parents is not None:
            deps = tuple(sorted(mech_model.parents.get(mv, ()), key=lambda v: v.name))
        else:
            deps = tuple(sorted(mech_model.others(mv), key=lambda v: v.name))
        for d in deps:
            _require_enumerable(mech_model.domains[d], f"mechanism domain of {d!r}")
        entries = []
        for combo in itertools.product(*(mech_model.domains[d].enumerate() for d in deps)):
            ctx = Setting(dict(zip(deps, combo)))
            value = mech_model.assignments[mv](ctx)
            entries.append([[encode_value(x) for x in combo], encode_value(value)])
        mechanism_tables[mv.name] = {
            "depends_on": [d.name for d in deps],
            "entries": entries,
        }

    object_tables = {}
    noise_info = {}
    for v in obj_model.variables:
        _require_enumerable(obj_model.param_domains[v], f"parameter domain of {v!r}")
        for p in obj_model.parents.get(v, ()):
            _require_enumerable(obj_model.domains[p], f"object domain of {p!r}")
        entries = []
        pvars = obj_model.parents.get(v, ())
        for theta in obj_model.param_domains[v].enumerate():
            for combo in itertools.product(*(obj_model.domains[p].enumerate() for p in pvars)):
                kernel = obj_model.assigns[v].kernel(theta, dict(zip(pvars, combo)))
                if kernel is None:
                    raise NonFiniteDomain(f"{v!r} has continuous noise; cannot tabulate")
                dist = sorted(
                    ((encode_value(val), p) for val, p in kernel.items()),
                    key=lambda vp: json.dumps(vp[0], sort_keys=True),
                )
                entries.append(
                    [encode_value(theta), [encode_value(x) for x in combo], [[x, p] for x, p in dist]]
                )
        object_tables[v.name] = {"entries": entries}
        if isinstance(obj_model.assigns[v], DeterministicAssign):
            noise_info[v.name] = {"kind": "singleton"}
        else:
            noise_info[v.name] = {"kind": "inverse_cdf_uniform"}

    return {
        "format": FORMAT,
        "variables": variables,
        "domains": domains,
        "mechanism_tables": mechanism_tables,
        "object_tables": object_tables,
        "noise": noise_info,
    }


# ---------------------------------------------------------------------------
# Loading


def _canon(v) -> str:
    return json.dumps(encode_value(v), sort_keys=True)


def model_from_dict(doc: Mapping) -> MechanizedSCM:
    """Rebuild a model from its document; ValueError when the document is
    not in this format, lacks a key the format requires, names a variable it
    does not declare, or has an object table without entries."""
    if doc.get("format") != FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    try:
        return _decode_model(doc)
    except KeyError as err:
        raise ValueError(f"model document lacks the key {err.args[0]!r}") from err


def _decode_model(doc: Mapping) -> MechanizedSCM:
    ovars = [obj(e["name"]) for e in doc["variables"]]
    names = {v.name for v in ovars}
    refs = [(e["name"], "parents", p) for e in doc["variables"] for p in e["parents"]]
    tables = doc["mechanism_tables"]
    refs += [(n, "depends_on", d) for n, t in tables.items() for d in t["depends_on"]]
    for owner, what, ref in refs:
        if ref not in names:
            raise ValueError(f"{what} of {owner!r}: unknown variable {ref!r}")
    parents = {
        obj(e["name"]): tuple(obj(p) for p in e["parents"]) for e in doc["variables"]
    }
    obj_domains = {v: decode_domain(doc["domains"]["object"][v.name]) for v in ovars}
    mech_domains = {
        mech(v.name): decode_domain(doc["domains"]["mechanism"][v.name]) for v in ovars
    }

    assigns = {}
    for v in ovars:
        entries = doc["object_tables"][v.name]["entries"]
        if not entries:
            raise ValueError(f"object table of {v.name!r} has no entries")
        table = {}
        for theta_e, combo_e, dist_e in entries:
            theta = decode_value(theta_e)
            combo = tuple(decode_value(x) for x in combo_e)
            table[(_canon(theta), tuple(_canon(x) for x in combo))] = {
                decode_value(x): p for x, p in dist_e
            }

        def kernel(theta, pa, _table=table, _ps=parents[v]):
            key = (_canon(theta), tuple(_canon(pa[p]) for p in _ps))
            return _table[key]

        if doc["noise"][v.name]["kind"] == "singleton":
            # every conditional is a point mass; keep the deterministic form
            def point(theta, pa, _k=kernel):
                ((value, _),) = _k(theta, pa).items()
                return value

            assigns[v] = DeterministicAssign(point)
        else:
            assigns[v] = KernelAssign(kernel)

    obj_model = ParameterizedSCM(
        variables=tuple(ovars),
        parents=parents,
        domains=obj_domains,
        param_domains={v: mech_domains[mech(v.name)] for v in ovars},
        assigns=assigns,
    )

    mech_assigns = {}
    mech_parents = {}
    for v in ovars:
        mv = mech(v.name)
        spec = doc["mechanism_tables"][v.name]
        deps = tuple(mech(n) for n in spec["depends_on"])
        mech_parents[mv] = frozenset(deps)
        table = {}
        for combo_e, value_e in spec["entries"]:
            key = tuple(_canon(decode_value(x)) for x in combo_e)
            table[key] = decode_value(value_e)

        def assign(ctx, _table=table, _deps=deps):
            return _table[tuple(_canon(ctx[d]) for d in _deps)]

        mech_assigns[mv] = assign

    mech_model = DeterministicSCM(
        variables=tuple(mech(v.name) for v in ovars),
        domains=mech_domains,
        assignments=mech_assigns,
        parents=mech_parents,
    )
    return MechanizedSCM(mech_model, obj_model)


def save_model(m: MechanizedSCM, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(m), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MechanizedSCM:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
