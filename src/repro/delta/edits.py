"""Canonical single-line config edits, vendor-aware.

Shared by the validation CLI (``python -m repro validate delta``) and
the Table 2 benchmark's incremental phase: both need a "one line
changed" snapshot that parses cleanly on either vendor syntax. One edit
per outcome of the routing stages: none moved, a main RIB rebuilt, the
IGP recomputed; and one that moves the device's forwarding-graph
markers (an interface shut down), so its labels are folded whole.
"""

from __future__ import annotations

from repro.config.loader import detect_syntax


def irrelevant_edit(text: str) -> str:
    """Add an NTP server: modeled (no parse warning) but routing-inert,
    so no seed comes out and every routing stage is the base's."""
    if detect_syntax(text) == "juniperish":
        return text + "set system ntp server 203.0.113.250\n"
    return text + "ntp server 203.0.113.250\n"


def igp_edit(text: str, interface: str, area: int = 0) -> str:
    """Set an OSPF cost on ``interface``: moves the device's IGP
    projection, so the IGP stage runs, and the BGP stage with it only
    where an IGP cost it read moved."""
    if detect_syntax(text) == "juniperish":
        return text + f"set protocols ospf area {area} interface {interface} metric 77\n"
    return text + f"interface {interface}\n ip ospf cost 77\n!\n"


def shutdown_edit(text: str, interface: str) -> str:
    """Shut ``interface`` down: its address, subnet and links leave the
    device's destination-label markers, and its routes the RIBs."""
    if detect_syntax(text) == "juniperish":
        return text + f"set interfaces {interface} disable\n"
    return text + f"interface {interface}\n shutdown\n!\n"


def relevant_edit(text: str) -> str:
    """Add a discard static route: moves the device's connected/static
    projection, so its main RIB is rebuilt; no registry network reads
    the route in a routing stage."""
    if detect_syntax(text) == "juniperish":
        return (
            text
            + "set routing-options static route 203.0.113.128/25 "
            + "next-hop discard\n"
        )
    return text + "ip route 203.0.113.128 255.255.255.128 Null0\n"
