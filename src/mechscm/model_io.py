"""JSON tabulation of a finite-domain mechanized model.

``model_to_dict`` writes a model as one JSON-ready document with five fixed
top-level keys besides ``format``: ``variables`` (object-layer names and
parents), ``domains`` (object and mechanism ranges), ``mechanism_tables``
(each mechanism assignment tabulated over its declared dependencies),
``object_tables`` (each object assignment's exact conditional per parameter
and parent configuration), and ``noise`` (per-variable noise descriptors).
Analytic solution registrations and Python callables are tabulated, so the
document pins a model's finite behavior; nothing loads it back.
"""

from __future__ import annotations

import json

from mechscm.core import (
    DeterministicAssign,
    Domain,
    FiniteDomain,
    MechanizedSCM,
    NonFiniteDomain,
    RealBox,
    Table,
    all_settings,
    mech,
)

__all__ = ["model_to_dict"]

FORMAT = "mechscm-model-v1"


# ---------------------------------------------------------------------------
# Value and domain encoders


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


# ---------------------------------------------------------------------------
# Tabulation


def model_to_dict(m: MechanizedSCM) -> dict:
    mech_model, obj_model = m.mech_model, m.obj_model

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
        entries = []
        for ctx in all_settings(deps, mech_model.domains):
            value = mech_model.assignments[mv](ctx)
            entries.append([[encode_value(x) for x in ctx.values()], encode_value(value)])
        mechanism_tables[mv.name] = {
            "depends_on": [d.name for d in deps],
            "entries": entries,
        }

    object_tables = {}
    noise_info = {}
    for v in obj_model.variables:
        if not obj_model.param_domains[v].is_enumerable:
            raise NonFiniteDomain(f"parameter domain of {v!r} is not finite or discretized")
        parent_settings = tuple(all_settings(obj_model.parents.get(v, ()), obj_model.domains))
        entries = []
        for theta in obj_model.param_domains[v].enumerate():
            for ctx in parent_settings:
                kernel = obj_model.assigns[v].kernel(theta, dict(ctx))
                if kernel is None:
                    raise NonFiniteDomain(f"{v!r} has continuous noise; cannot tabulate")
                dist = sorted(
                    ((encode_value(val), p) for val, p in kernel.items()),
                    key=lambda vp: json.dumps(vp[0], sort_keys=True),
                )
                parent_values = [encode_value(x) for x in ctx.values()]
                entries.append([encode_value(theta), parent_values, [[x, p] for x, p in dist]])
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
