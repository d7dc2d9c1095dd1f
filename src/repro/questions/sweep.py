"""The ``sweep`` question: resilience sweeps over the service API.

Decodes wire params into :meth:`Session.sweep` arguments (raising
``ValueError`` on malformed input — the service layer maps that to a
structured 400) and encodes the result for the job payload. Kept out
of :mod:`repro.service.serialize` so the CLI and notebook users can
reuse the same wire schema.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sweep.report import findings_from_result, report_json
from repro.sweep.scenarios import ALL_KINDS, ReachabilityProperty, host_files

#: The wire params the sweep question accepts.
PARAM_KEYS = {
    "k",
    "kinds",
    "property",
    "prune",
    "limit",
    "max_elements",
    "jobs",
}


def _int_param(params: Dict, key: str, minimum: int) -> Optional[int]:
    value = params.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer")
    if value < minimum:
        raise ValueError(f"{key} must be >= {minimum}")
    return value


def property_from_json(body: Dict) -> ReachabilityProperty:
    if not isinstance(body, dict):
        raise ValueError("property must be an object")
    unknown = sorted(
        set(body)
        - {
            "src_node",
            "src_interface",
            "dst_ip",
            "src_ip",
            "ip_protocol",
            "dst_port",
        }
    )
    if unknown:
        raise ValueError(f"unknown property field(s): {', '.join(unknown)}")
    for required in ("src_node", "src_interface", "dst_ip"):
        if not isinstance(body.get(required), str) or not body[required]:
            raise ValueError(f"property.{required} must be a non-empty string")
    kwargs = {
        "src_node": body["src_node"],
        "src_interface": body["src_interface"],
        "dst_ip": body["dst_ip"],
    }
    if "src_ip" in body:
        if not isinstance(body["src_ip"], str):
            raise ValueError("property.src_ip must be a string")
        kwargs["src_ip"] = body["src_ip"]
    for key in ("ip_protocol", "dst_port"):
        if key in body:
            value = body[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"property.{key} must be an integer")
            kwargs[key] = value
    return ReachabilityProperty(**kwargs)


def sweep_kwargs_from_json(params: Dict) -> Dict:
    """Wire params -> ``Session.sweep`` keyword arguments."""
    unknown = sorted(set(params) - PARAM_KEYS)
    if unknown:
        raise ValueError(f"unknown sweep param(s): {', '.join(unknown)}")
    kwargs: Dict = {}
    k = _int_param(params, "k", 1)
    if k is not None:
        kwargs["k"] = k
    kinds = params.get("kinds")
    if kinds is not None:
        if not isinstance(kinds, list) or not all(
            isinstance(kind, str) for kind in kinds
        ):
            raise ValueError("kinds must be a list of strings")
        bad = sorted(set(kinds) - set(ALL_KINDS))
        if bad:
            raise ValueError(
                f"unknown element kind(s): {', '.join(bad)} "
                f"(choose from {', '.join(ALL_KINDS)})"
            )
        if not kinds:
            raise ValueError("kinds must not be empty")
        kwargs["kinds"] = tuple(kinds)
    if params.get("property") is not None:
        kwargs["prop"] = property_from_json(params["property"])
    if "prune" in params:
        if not isinstance(params["prune"], bool):
            raise ValueError("prune must be a boolean")
        kwargs["prune"] = params["prune"]
    for key in ("limit", "max_elements", "jobs"):
        value = _int_param(params, key, 1)
        if value is not None:
            kwargs[key] = value
    return kwargs


def sweep_answer(session, params: Dict) -> Dict:
    """Run the sweep and encode the job result payload."""
    kwargs = sweep_kwargs_from_json(params)
    result = session.sweep(**kwargs)
    findings = findings_from_result(result, host_files(session.snapshot))
    return report_json(result, findings)
