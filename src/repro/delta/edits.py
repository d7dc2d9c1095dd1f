"""Canonical single-line config edits, vendor-aware.

Shared by the validation CLI (``python -m repro validate delta``) and
the Table 2 benchmark's incremental phase: both need a "one line
changed" snapshot that parses cleanly on either vendor syntax.
"""

from __future__ import annotations

from repro.config.loader import detect_syntax


def irrelevant_edit(text: str) -> str:
    """Add an NTP server: modeled (no parse warning) but routing-inert,
    so no seed comes out and the base data plane is reused."""
    if detect_syntax(text) == "juniperish":
        return text + "set system ntp server 203.0.113.250\n"
    return text + "ntp server 203.0.113.250\n"


def relevant_edit(text: str) -> str:
    """Add a discard static route: changes the device's routing
    fingerprint and therefore seeds a recompute."""
    if detect_syntax(text) == "juniperish":
        return (
            text
            + "set routing-options static route 203.0.113.128/25 "
            + "next-hop discard\n"
        )
    return text + "ip route 203.0.113.128 255.255.255.128 Null0\n"
