"""Snapshot loading: detect the vendor syntax of each configuration file,
parse it, and assemble a vendor-independent :class:`Snapshot`.

A snapshot is how Batfish consumes a network: a set of configuration
files, one per device (the paper's continuous-validation use-case runs on
"periodic snapshots of network configurations, which most organizations
already have").
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.config.cisco import parse_cisco
from repro.config.juniper import parse_juniper
from repro.config.model import Device, ParseWarning, Snapshot
from repro.parallel import pmap

#: Snapshots smaller than this parse inline; the pool only pays off
#: once per-file parse work dwarfs fork+pickle overhead.
_MIN_PARALLEL_FILES = 8


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


def _parse_one(item: Tuple[str, str]):
    """Per-file parse worker (module-level so pmap can fan it out)."""
    filename, text = item
    vendor = detect_syntax(text)
    if vendor == "juniperish":
        device, warnings = parse_juniper(text, filename)
    else:
        device, warnings = parse_cisco(text, filename)
    # File attribution survives normalization: every warning knows which
    # snapshot file produced it (Session.parse_warnings surfaces this).
    for warning in warnings:
        if not warning.source_file:
            warning.source_file = filename
    if obs.enabled():
        obs.add("parse.files")
        obs.add(f"parse.lines.{vendor}", text.count("\n") + 1)
        obs.add("parse.warnings", len(warnings))
    return device, warnings


def _parse_all(
    configs: Dict[str, str],
    filenames: List[str],
    jobs: Optional[int],
    cache,
) -> List[Tuple[Device, List[ParseWarning]]]:
    """Parse every file, consulting the per-device memo when a cache is
    supplied.

    Each file's parse result is content-addressed independently
    (:func:`repro.core.cache.device_key`), so editing one file of a
    large snapshot reparses only that file — the unit of reuse the
    incremental delta engine is built on. Entries are pinned via
    ``cache.protect`` for the duration so concurrent stores can't evict
    a file we are about to load.
    """
    if cache is None:
        return pmap(
            _parse_one,
            [(filename, configs[filename]) for filename in filenames],
            jobs=jobs,
            min_items=_MIN_PARALLEL_FILES,
        )
    from repro.core.cache import device_key

    keys = {f: device_key(f, configs[f]) for f in filenames}
    results: Dict[str, Tuple[Device, List[ParseWarning]]] = {}
    with cache.protect(("device", keys[f]) for f in filenames):
        missed = []
        for filename in filenames:
            entry = cache.load("device", keys[filename])
            if entry is not None:
                results[filename] = entry
            else:
                missed.append(filename)
        if missed:
            parsed = pmap(
                _parse_one,
                [(filename, configs[filename]) for filename in missed],
                jobs=jobs,
                min_items=_MIN_PARALLEL_FILES,
            )
            for filename, result in zip(missed, parsed):
                cache.store("device", keys[filename], result)
                results[filename] = result
    return [results[filename] for filename in filenames]


def load_snapshot_from_texts(
    configs: Dict[str, str], jobs: Optional[int] = None, cache=None
) -> Snapshot:
    """Build a snapshot from ``{filename_or_hostname: config_text}``.

    Per-file parsing fans out over a process pool (``REPRO_JOBS`` /
    ``jobs``); files are parsed independently and reassembled in sorted
    filename order, so the result is identical to a serial run. With a
    :class:`~repro.core.cache.SnapshotCache`, each file's parse is also
    memoized on its content hash, so re-loading a snapshot with a few
    edited files reparses only those files.

    Duplicate hostnames are flagged (the later file wins), mirroring the
    tool's behaviour on misassembled snapshot directories.
    """
    snapshot = Snapshot()
    filenames = sorted(configs)
    with obs.span("parse", files=len(filenames)):
        parsed = _parse_all(configs, filenames, jobs, cache)
        for filename, (device, warnings) in zip(filenames, parsed):
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


def load_snapshot_from_dir(
    path: str, suffix: Optional[str] = ".cfg", jobs: Optional[int] = None,
    cache=None,
) -> Snapshot:
    """Load every ``*.cfg`` (by default) file under ``path`` as a device
    configuration."""
    return load_snapshot_from_texts(
        read_config_dir(path, suffix), jobs=jobs, cache=cache
    )
