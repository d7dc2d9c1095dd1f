"""Delta-engine validation sweep: ``python -m repro.delta``.

For every network in the Table 1 registry, applies single-device edits
(one routing-irrelevant, one routing-relevant) and runs the delta
engine with differential validation forced on: whether it reused the
base data plane or recomputed, the FIBs must be byte-identical to a
cache-less from-scratch session. CI runs this as the ``delta-validate``
job.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Tuple

from repro.core.session import Session
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.delta.engine import DeltaValidationError
from repro.synth.networks import NETWORKS

EDITS = (
    ("irrelevant", irrelevant_edit),
    ("relevant", relevant_edit),
)


def run_network(
    name: str,
    configs: Dict[str, str],
    verbose: bool = False,
) -> Tuple[int, int]:
    """Validate both edit kinds against one network; returns
    (validated, failed) counts."""
    base = Session.from_texts(configs)
    # Precompute so an inert edit has a converged base to reuse.
    base.fibs
    target = sorted(configs)[0]
    validated = failed = 0
    for label, edit in EDITS:
        new_text = edit(configs[target])
        try:
            session = base.delta({target: new_text}, validate=True)
        except DeltaValidationError as exc:
            failed += 1
            print(f"FAIL {name} [{label} edit on {target}]:\n{exc}")
            continue
        info = session.delta_info
        validated += 1
        if verbose:
            status = (
                f"recomputed ({info.fallback_reason})"
                if info.fallback
                else f"reused ({info.reused_devices} devices)"
            )
            print(f"  ok {name} [{label} edit on {target}]: {status}")
    return validated, failed


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.delta",
        description="validate the incremental delta engine against "
        "full recomputes across the network registry",
    )
    parser.add_argument(
        "--networks",
        help="comma-separated registry names (default: all of NET1-NET11)",
    )
    parser.add_argument(
        "--scale", type=int, default=1, help="registry scale knob (default 1)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="only NET1 (fast CI signal)"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        wanted = {"NET1"}
    elif args.networks:
        wanted = {n.strip() for n in args.networks.split(",") if n.strip()}
    else:
        wanted = {spec.name for spec in NETWORKS}

    total_validated = total_failed = 0
    for spec in NETWORKS:
        if spec.name not in wanted:
            continue
        configs = spec.generate(args.scale)
        print(f"{spec.name}: {len(configs)} devices ({spec.network_type})")
        validated, failed = run_network(
            spec.name, configs, verbose=args.verbose
        )
        total_validated += validated
        total_failed += failed
    print(
        f"delta validation: validated {total_validated}, failed "
        f"{total_failed} across {len(wanted)} network(s)"
    )
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
