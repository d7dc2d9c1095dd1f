"""Snapshot loading: detect the vendor syntax of each configuration file,
parse it, and assemble a vendor-independent :class:`Snapshot`.

A snapshot is how Batfish consumes a network: a set of configuration
files, one per device (the paper's continuous-validation use-case runs on
"periodic snapshots of network configurations, which most organizations
already have").

Files parse inline, one after another: a process pool per snapshot lost
to its fork and pickle costs at every registry size (DESIGN.md,
"Performance architecture").
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.config.cisco import parse_cisco
from repro.config.juniper import parse_juniper
from repro.config.model import Device, ParseWarning, Snapshot


def detect_syntax(text: str) -> str:
    """Heuristically classify configuration text as ciscoish/juniperish.

    Set-style lines dominate juniperish files; block keywords dominate
    ciscoish ones. Ambiguous files default to ciscoish (the more common
    syntax), mirroring real-world format sniffing.
    """
    set_lines = 0
    block_lines = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("!", "#")):
            continue
        if line.startswith("set "):
            set_lines += 1
        elif line.split()[0] in (
            "hostname", "interface", "router", "ip", "route-map",
            "ntp", "zone", "zone-pair", "snmp-server", "access-list",
        ):
            block_lines += 1
    return "juniperish" if set_lines > block_lines else "ciscoish"


def parse_config_text(text: str, filename: str = "<config>"):
    """Parse one configuration file of either syntax.

    Returns ``(device, warnings)``.
    """
    if detect_syntax(text) == "juniperish":
        return parse_juniper(text, filename)
    return parse_cisco(text, filename)


def _parse_one(filename: str, text: str):
    """Parse one file; every warning names ``filename`` and its line."""
    device, warnings = parse_config_text(text, filename)
    if obs.enabled():
        obs.add("parse.files")
        obs.add(f"parse.lines.{device.vendor}", text.count("\n") + 1)
        obs.add("parse.warnings", len(warnings))
    return device, warnings


Parsed = Tuple[Device, List[ParseWarning]]


def parses_from_base(
    configs: Mapping[str, str], base_configs: Mapping[str, str], base: Snapshot
) -> Dict[str, Parsed]:
    """The parse results a snapshot of ``configs`` can take, by filename,
    from ``base`` (parsed from ``base_configs``): each file whose bytes
    are unchanged and whose hostname no other base file shares keeps the
    base's device and the warnings stamped with its name. Reads only
    :class:`Snapshot` fields, so a base loaded from the snapshot cache
    serves like a freshly parsed one."""
    owners = Counter(base.sources.values())
    return {
        filename: (
            base.devices[hostname],
            [w for w in base.warnings if w.source_file == filename],
        )
        for filename, hostname in base.sources.items()
        if owners[hostname] == 1
        and configs.get(filename) == base_configs[filename]
    }


def load_snapshot_from_texts(
    configs: Mapping[str, str],
    parsed: Optional[Mapping[str, Parsed]] = None,
) -> Snapshot:
    """Build a snapshot from ``{filename_or_hostname: config_text}``.

    Files are parsed one by one and assembled in sorted filename order.
    Files in ``parsed`` (results in hand, e.g. :func:`parses_from_base`)
    are not parsed again.

    Duplicate hostnames are flagged (the later file wins), mirroring the
    tool's behaviour on misassembled snapshot directories.
    """
    snapshot = Snapshot()
    filenames = sorted(configs)
    with obs.phase("parse", files=len(filenames)):
        parsed = parsed or {}
        for filename in filenames:
            if filename in parsed:
                device, warnings = parsed[filename]
            else:
                device, warnings = _parse_one(filename, configs[filename])
            snapshot.warnings.extend(warnings)
            if device.hostname in snapshot.devices:
                snapshot.warnings.append(
                    ParseWarning(
                        hostname=device.hostname,
                        line_number=0,
                        text=filename,
                        comment="duplicate hostname in snapshot; keeping the last file",
                        source_file=filename,
                    )
                )
                if obs.enabled():
                    obs.add("parse.warnings")
            snapshot.devices[device.hostname] = device
            snapshot.sources[filename] = device.hostname
    return snapshot


def read_config_dir(path: str, suffix: Optional[str] = ".cfg") -> Dict[str, str]:
    """Read every ``*.cfg`` (by default) file under ``path`` as
    ``{filename: text}`` without parsing (the caching layer hashes raw
    texts before deciding whether parsing is needed at all)."""
    configs: Dict[str, str] = {}
    for entry in sorted(os.listdir(path)):
        if suffix is not None and not entry.endswith(suffix):
            continue
        full = os.path.join(path, entry)
        if not os.path.isfile(full):
            continue
        with open(full) as handle:
            configs[entry] = handle.read()
    if not configs:
        raise FileNotFoundError(f"no configuration files found under {path!r}")
    return configs


def load_snapshot_from_dir(path: str, suffix: Optional[str] = ".cfg") -> Snapshot:
    """Load every ``*.cfg`` (by default) file under ``path`` as a device
    configuration."""
    return load_snapshot_from_texts(read_config_dir(path, suffix))
