"""The canonical config edits on a text whose last line has no newline:
each edit goes on a line of its own, in both dialects, and the last
line stays what it was."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.delta.edits import (
    igp_edit,
    irrelevant_edit,
    passive_edit,
    relevant_edit,
    shutdown_edit,
)
from repro.hdr.ip import Ip, Prefix
from repro.synth.base import CiscoishBuilder, InterfaceSpec, JuniperishBuilder

#: The last line of each text: an NTP server, left without a newline.
LAST = {
    "ciscoish": ("Ethernet0", "ntp server 198.51.100.1"),
    "juniperish": ("ge-0/0/0", "set system ntp server 198.51.100.1"),
}

#: Each edit, with what the parsed device must show for it.
EDITS = {
    "irrelevant": (
        lambda text, iface: irrelevant_edit(text),
        lambda device, iface: Ip("203.0.113.250") in device.ntp_servers,
    ),
    "relevant": (
        lambda text, iface: relevant_edit(text),
        lambda device, iface: Prefix("203.0.113.128/25")
        in [route.prefix for route in device.static_routes],
    ),
    "igp": (
        igp_edit,
        lambda device, iface: device.interfaces[iface].ospf_cost == 77,
    ),
    "shutdown": (
        shutdown_edit,
        lambda device, iface: not device.interfaces[iface].enabled,
    ),
    "passive": (
        passive_edit,
        lambda device, iface: device.interfaces[iface].ospf_passive,
    ),
}


def _newline_less(dialect):
    iface, last = LAST[dialect]
    builder = (CiscoishBuilder if dialect == "ciscoish" else JuniperishBuilder)("r1")
    builder.interface(InterfaceSpec(iface, "10.0.0.1", 24, ospf_area=0, ospf_cost=5))
    if dialect == "ciscoish":
        builder.ospf("network 10.0.0.0 0.0.0.255 area 0")
    text = builder.raw(last).render().rstrip("\n")
    assert text.endswith(last)
    return iface, text


@pytest.mark.parametrize("dialect", sorted(LAST))
@pytest.mark.parametrize("kind", sorted(EDITS))
def test_an_edit_on_a_text_without_a_final_newline(dialect, kind):
    iface, text = _newline_less(dialect)
    edit, modelled = EDITS[kind]
    before = load_snapshot_from_texts({"r1.cfg": text}).device("r1")
    assert not modelled(before, iface)
    edited = edit(text, iface)
    assert edited.startswith(text + "\n")
    snapshot = load_snapshot_from_texts({"r1.cfg": edited})
    assert snapshot.warnings == []
    device = snapshot.device("r1")
    assert modelled(device, iface)
    assert Ip("198.51.100.1") in device.ntp_servers  # the last line, intact
