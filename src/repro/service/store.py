"""Named-snapshot management for the long-running service.

A :class:`SnapshotStore` owns the mapping *name -> live Session*, the
way Batfish's coordinator owns named snapshots for its clients. Names
are a user-facing convenience; identity is the content key
(:attr:`Session.snapshot_key`), so re-initializing the same configs
under any name re-uses the content-addressed cache instead of
re-parsing, and the job layer coalesces on keys, never names.

All operations are thread-safe (the HTTP layer calls in from many
request threads) and fail with the typed errors of
:mod:`repro.service.errors`.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.cache import SnapshotCache
from repro.core.session import Session
from repro.routing.engine import ConvergenceSettings
from repro.service.errors import (
    InvalidRequestError,
    SnapshotConflictError,
    SnapshotNotFoundError,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


@dataclass
class SnapshotRecord:
    """What the API reports about one stored snapshot."""

    name: str
    key: str  # Session.snapshot_key (content + settings address)
    device_count: int
    warning_count: int
    created_ts: float

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "key": self.key,
            "devices": self.device_count,
            "parse_warnings": self.warning_count,
            "created_ts": round(self.created_ts, 3),
        }


class SnapshotStore:
    """Thread-safe registry of named, initialized snapshots."""

    def __init__(self, cache: Optional[SnapshotCache] = None):
        self._cache = cache
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._records: Dict[str, SnapshotRecord] = {}

    def init(
        self,
        name: str,
        configs: Dict[str, str],
        settings: Optional[ConvergenceSettings] = None,
        force: bool = False,
    ) -> SnapshotRecord:
        """Parse and register a snapshot under ``name``.

        Parsing happens outside the store lock (it can take seconds on
        big snapshots); only the registration itself is serialized.
        ``force=True`` replaces an existing name (re-init semantics);
        otherwise a duplicate name is a 409 conflict.
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise InvalidRequestError(
                f"bad snapshot name {name!r} (alphanumeric plus ._- , "
                "max 100 chars)"
            )
        if not isinstance(configs, dict) or not configs:
            raise InvalidRequestError(
                "configs must be a non-empty {filename: text} object"
            )
        for filename, text in configs.items():
            if not isinstance(filename, str) or not isinstance(text, str):
                raise InvalidRequestError("configs keys and values must be strings")
        with self._lock:
            if not force and name in self._sessions:
                raise SnapshotConflictError(
                    f"snapshot {name!r} already exists", name=name
                )
        session = Session.from_texts(
            configs, cache=self._cache, settings=settings
        )
        record = SnapshotRecord(
            name=name,
            key=session.snapshot_key,
            device_count=len(session.snapshot.devices),
            warning_count=len(session.snapshot.warnings),
            created_ts=time.time(),
        )
        with self._lock:
            if not force and name in self._sessions:
                # Lost an init race for the same name.
                raise SnapshotConflictError(
                    f"snapshot {name!r} already exists", name=name
                )
            self._sessions[name] = session
            self._records[name] = record
        obs.add("service.snapshots.init")
        return record

    def patch(
        self, name: str, changed_configs: Dict[str, Optional[str]]
    ) -> Tuple[SnapshotRecord, Session]:
        """Incrementally update snapshot ``name`` with some files
        changed (``null`` text deletes a file). The delta engine
        reparses only those files and takes each routing stage from the
        existing session whose inputs did not move (:mod:`repro.delta`).
        Replaces the named session in place and returns the updated
        record and the session this call built.

        Where the edited session's routing has run, the new session's
        runs here too — cheap when its stages are taken — so its
        ``delta_info`` says how routing was produced; otherwise its
        routing rows are missing until a question runs routing. Where the edited
        session's analyzer would be the new session's whole, the new
        session takes it here (its ``analyzer`` row reads "reused"); an
        analyzer due a fork is built by the next question that needs it,
        and the row is missing until then.

        The delta runs outside the store lock, like :meth:`init`; it is
        installed only if the live session is still the one it edited,
        and otherwise redone on the live one, so two concurrent PATCHes
        both land.
        """
        if not isinstance(changed_configs, dict) or not changed_configs:
            raise InvalidRequestError(
                "configs must be a non-empty {filename: text-or-null} object"
            )
        for filename, text in changed_configs.items():
            if not isinstance(filename, str) or not (
                text is None or isinstance(text, str)
            ):
                raise InvalidRequestError(
                    "configs keys must be strings; values strings or null "
                    "(null deletes the file)"
                )
        base = self.get(name)
        while True:
            try:
                session = base.delta(changed_configs)
            except ValueError as exc:
                raise InvalidRequestError(str(exc))
            if base.computed("dataplane") is not None:
                session.dataplane
                session.take_analyzer()
            record = SnapshotRecord(
                name=name,
                key=session.snapshot_key,
                device_count=len(session.snapshot.devices),
                warning_count=len(session.snapshot.warnings),
                created_ts=time.time(),
            )
            with self._lock:
                live = self._sessions.get(name)
                if live is None:
                    # Deleted while we were computing: treat as gone.
                    raise SnapshotNotFoundError(
                        f"no snapshot named {name!r}", name=name
                    )
                if live is base:
                    self._sessions[name] = session
                    self._records[name] = record
                    break
            base = live  # another PATCH landed first: edit its session
        obs.add("service.snapshots.patch")
        return record, session

    def get(self, name: str) -> Session:
        """The live session for ``name`` (404 when absent)."""
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise SnapshotNotFoundError(
                f"no snapshot named {name!r}", name=name
            )
        return session

    def record(self, name: str) -> SnapshotRecord:
        with self._lock:
            record = self._records.get(name)
        if record is None:
            raise SnapshotNotFoundError(
                f"no snapshot named {name!r}", name=name
            )
        return record

    def list(self) -> List[SnapshotRecord]:
        with self._lock:
            return [self._records[name] for name in sorted(self._records)]

    def delete(self, name: str) -> None:
        with self._lock:
            if name not in self._sessions:
                raise SnapshotNotFoundError(
                    f"no snapshot named {name!r}", name=name
                )
            del self._sessions[name]
            del self._records[name]
        obs.add("service.snapshots.delete")

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
