"""``python -m repro.service`` / ``repro-service`` — run the analysis
service as a long-lived process.

The process serves until SIGTERM or SIGINT, then *drains*: the HTTP
listener closes, every accepted job runs to completion, and a one-line
summary is printed before exit — the contract an orchestrator's
rolling restart relies on.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from repro import obs
from repro.service.api import AnalysisService, ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Serve snapshot analysis over an HTTP JSON API.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8585,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="analysis slots: at most this many questions run at once "
        "(default 2)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded queue capacity; beyond it requests get 429",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline (default: none)",
    )
    parser.add_argument(
        "--wait", type=float, default=30.0, metavar="SECONDS",
        help="max synchronous wait for a queued question before its POST "
        "returns 202 (a question run on a free slot answers when done)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed snapshot cache directory "
        "(default: no cache; honors REPRO_CACHE_MAX_BYTES)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="enable repro.obs tracing to this file",
    )
    parser.add_argument(
        "--debug-questions", action="store_true",
        help="expose debug questions (sleep) — tests/load drills only",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per HTTP request")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace:
        obs.enable(args.trace)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue_size,
        default_timeout_s=args.timeout,
        wait_s=args.wait,
        cache=args.cache_dir,
        debug=args.debug_questions,
        verbose=args.verbose,
    )
    service = AnalysisService(config)
    service.start()
    print(
        f"repro.service listening on http://{args.host}:{service.port} "
        f"(workers={args.workers}, queue={args.queue_size})",
        flush=True,
    )

    stop_requested = threading.Event()

    def _request_stop(signum, frame):
        stop_requested.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    stop_requested.wait()

    print("repro.service draining in-flight jobs ...", flush=True)
    drained = service.stop(drain=True)
    stats = service.queue.stats()
    print(
        "repro.service drained: "
        f"completed={stats['completed']} failed={stats['failed']} "
        f"cancelled={stats['cancelled']} coalesced={stats['coalesced']} "
        f"clean={drained}",
        flush=True,
    )
    if obs.enabled():
        obs.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
