"""Registry golden for the vendor-independent model: the parse of every
registry network at scales 1 and 2.

``snapshot_golden.json`` holds the sha256 of ``repr(snapshot)`` per
network and scale. ``repr`` renders every field of every model object
and the order of every table, and it does not depend on which objects
are shared (unlike a pickle), so a parser rewrite that keeps the model
keeps the digest. The digests are stable across ``PYTHONHASHSEED``.

Re-record (only when the parsed model is *meant* to change)::

    PYTHONPATH=src python tests/config/test_snapshot_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.synth.networks import NETWORKS

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "snapshot_golden.json"
)

CASES = [(spec.name, scale) for spec in NETWORKS for scale in (1, 2)]


def _digest(name: str, scale: int) -> str:
    spec = next(spec for spec in NETWORKS if spec.name == name)
    snapshot = load_snapshot_from_texts(spec.generate(scale))
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{name}@{scale}" for name, scale in CASES)


@pytest.mark.parametrize("name,scale", CASES)
def test_parse_matches_golden(golden, name, scale):
    assert _digest(name, scale) == golden[f"{name}@{scale}"]


if __name__ == "__main__":
    recorded = {f"{name}@{scale}": _digest(name, scale) for name, scale in CASES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} cases -> {GOLDEN_PATH}")
