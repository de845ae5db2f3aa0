"""Content-addressed persistent store for experiment-cell results.

Every grid cell is deterministic in its own description — evaluation
kind, workload, mitigation, and full parameter record — so a completed
cell never needs to run twice. This module keys each result under a
stable SHA-256 digest of that description (plus the kind's schema
version) and persists it as one JSON file per cell::

    store/
      a3f09c...e1.json     {"kind": ..., "schema_version": ...,
      77b2d4...09.json      "cell": {...}, "result": {...}}

which buys the experiment engine three properties:

- **Resumability**: ``run_grid(spec, store=...)`` skips cells the store
  already holds, returning their stored results bit-identically — a
  killed grid rerun against the same store executes only the missing
  cells.
- **Incrementality**: growing a sweep (more TRH points, another
  workload) recomputes only the new cells; the digest of an existing
  cell does not depend on what else is in the grid.
- **Sharding**: :func:`shard_of` partitions cells by digest, so ``n``
  processes (or machines) each running ``shard=(i, n)`` cover the grid
  exactly once, in any order, with no coordination — against one
  shared store, or each against its own store, whose ``*.json`` files
  then combine by plain copying.

Safety: writes are atomic (temp file + ``os.replace``); a corrupted,
truncated, or foreign file is treated as a miss (the cell reruns and
the entry is rewritten); every read checks that the payload's ``cell``
record hashes to the file name, so a renamed, swapped or tampered
entry is a miss too; a schema-version bump in the kind's registration
invalidates its stored cells by changing their digests, and the
version recorded inside each payload is verified on read as a second
line of defense.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.registry import EVALUATIONS

def _workload_fingerprint(cell: Any) -> Optional[Any]:
    """Content token of a file-backed workload, or ``None``.

    Synthetic workloads are pure functions of the cell's parameters, so
    name + params identify them; a file-backed workload (a recorded
    trace) can change on disk under the same name, so its source object
    contributes a ``store_fingerprint()`` (mtime/size per file — the
    same invalidation key the workload plane uses) to the cell identity.
    Unresolvable workloads and fingerprint errors degrade to ``None``:
    the digest then covers name + params only, and the actual run will
    surface the underlying problem.
    """
    workload = cell.workload_spec
    if workload is None and ":" in str(cell.workload):
        from repro.workloads.sources import resolve_workload_string

        try:
            workload = resolve_workload_string(cell.workload)
        except Exception:
            return None
    hook = getattr(workload, "store_fingerprint", None)
    if not callable(hook):
        return None
    try:
        return hook()
    except OSError:
        return None


def cell_key(cell: Any, with_fingerprint: bool = True) -> Dict[str, Any]:
    """The JSON-ready identity record of a cell.

    Covers everything the cell's result is a function of: evaluation
    kind, schema version, workload name, mitigation/subject, and the
    kind's *identity view* of the parameter record
    (:meth:`~repro.registry.EvaluationInfo.key_params` — for ``perf``
    this drops the simulation engine, which is bit-identical by
    contract, so a store filled under one engine serves the other).
    With ``with_fingerprint`` (store addressing), file-backed workloads
    additionally contribute a content fingerprint (see
    :func:`_workload_fingerprint`), so re-recording a trace under the
    same path invalidates its stored cells instead of silently serving
    results for the old contents; shard assignment leaves it out so the
    partition is portable across machines whose file timestamps differ.
    Other ad-hoc workload objects carried by ``workload_spec`` are keyed
    by their name, like named workloads — two specs sharing a name and
    parameters are assumed interchangeable, which holds for the
    synthetic suite.
    """
    info = EVALUATIONS.get(cell.kind)
    key = {
        "kind": cell.kind,
        "schema_version": info.schema_version,
        "workload": cell.workload,
        "mitigation": cell.mitigation,
        "params": info.key_params(cell.params),
    }
    if with_fingerprint:
        fingerprint = _workload_fingerprint(cell)
        if fingerprint is not None:
            key["workload_fingerprint"] = fingerprint
    return key


def key_digest(key: Mapping[str, Any]) -> str:
    """Stable SHA-256 hex digest of an already-computed :func:`cell_key`.

    Canonicalized with sorted keys and exact float ``repr``, so the
    digest is identical across processes, machines, and Python runs —
    never derived from randomized ``hash()``. Split out from
    :func:`cell_digest` so callers that need the key *and* the digest
    (the engine passes both to :meth:`ResultStore.put`) compute the
    trace-fingerprint ``stat`` pass exactly once.
    """
    payload = json.dumps(
        key, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_digest(cell: Any, with_fingerprint: bool = True) -> str:
    """Stable SHA-256 hex digest of :func:`cell_key` (the store address)."""
    return key_digest(cell_key(cell, with_fingerprint=with_fingerprint))


def shard_of(cell: Any, count: int) -> int:
    """The shard (``0..count-1``) a cell belongs to in a ``count``-way split.

    Digest-based, so the partition is *axis-stable*: a cell's shard
    depends only on the cell itself, never on grid size or axis order —
    extending a sweep cannot migrate existing cells between shards (and
    thus cannot invalidate per-shard stores or restart balanced work).
    The digest here excludes the workload content fingerprint — shard
    membership is a function of the cell's *description*, so machines
    holding the same trace under different mtimes still agree on the
    partition. Every cell lands in exactly one shard (completeness and
    disjointness are by construction of ``% count``).
    """
    if count < 1:
        raise ValueError("shard count must be at least 1")
    return int(cell_digest(cell, with_fingerprint=False), 16) % count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI ``i/n`` shard spec into ``(index, count)``.

    ``index`` is zero-based: ``--shard 0/4 .. 3/4`` covers a grid.
    """
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard spec {text!r} is not of the form i/n (e.g. 0/4)"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard spec {text!r} needs 0 <= i < n (zero-based index)"
        )
    return index, count


@dataclass
class StoreInventory:
    """What a :meth:`ResultStore.inventory` scan found.

    ``live`` counts the entries :meth:`ResultStore.get` serves, per
    ``(kind, schema version)``. ``stale`` and ``corrupt`` list the
    entries it treats as misses, which :meth:`ResultStore.prune` would
    remove, with a reason each.
    """

    live: Dict[Tuple[str, int], int] = field(default_factory=dict)
    stale: List[Tuple[str, str]] = field(default_factory=list)
    corrupt: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total entry files scanned."""
        return sum(self.live.values()) + len(self.stale) + len(self.corrupt)

    @property
    def prunable(self) -> List[Tuple[str, str]]:
        """(path, reason) of every entry pruning would remove."""
        return self.stale + self.corrupt


class ResultStore:
    """A directory of completed experiment cells, one JSON file each
    (see the module docstring).

    Args:
        path: Store directory (created if missing). Safe to share
            between concurrent shard runs: cells are single files,
            written atomically, and two runs computing the same cell
            write identical bytes.

    Raises:
        ValueError: ``path`` holds a ``pack.seg`` segment from an older
            version's packed tier, which is no longer read. The
            directory is left untouched.
    """

    def __init__(self, path: str):
        self.path = path
        segment = os.path.join(path, "pack.seg")
        if os.path.exists(segment):
            raise ValueError(
                f"{segment}: packed store segments are no longer read; "
                "delete pack.seg and pack.idx to recompute those cells "
                "on the next run"
            )
        os.makedirs(path, exist_ok=True)

    def _cell_path(self, cell: Any, digest: Optional[str] = None) -> str:
        return os.path.join(self.path, (digest or cell_digest(cell)) + ".json")

    def __contains__(self, cell: Any) -> bool:
        return self.get(cell) is not None

    def __len__(self) -> int:
        """Number of (well-formed or not) entry files currently stored."""
        return sum(1 for _ in self._entry_files())

    def _entry_files(self) -> Iterator[str]:
        try:
            names = sorted(os.listdir(self.path))
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".json"):
                yield os.path.join(self.path, name)

    def get(self, cell: Any, digest: Optional[str] = None) -> Optional[Any]:
        """The stored result of ``cell``, or ``None`` on any miss.

        A miss is: no entry, or an entry :meth:`_parse_entry` does not
        find live — the same rule ``repro store ls`` counts by — or a
        live entry of another kind. Every miss is recoverable — the
        engine reruns the cell and :meth:`put` rewrites the entry. The
        digest check is what makes a store assembled by copying other
        stores' ``*.json`` files as safe as one this process wrote.
        ``digest`` short-circuits the address computation when the
        caller already holds :func:`cell_digest` of the cell (the
        engine computes it once per cell — fingerprinting a trace
        workload stats its files).
        """
        if digest is None:
            digest = cell_digest(cell)
        try:
            with open(
                os.path.join(self.path, digest + ".json"), encoding="utf-8"
            ) as handle:
                text = handle.read()
        except OSError:
            return None
        state, detail, result = self._parse_entry(digest, text)
        if state != "live" or detail[0] != cell.kind:
            return None
        return result

    @staticmethod
    def _parse_entry(
        digest: str, text: Optional[str]
    ) -> Tuple[str, Any, Optional[Any]]:
        """``(state, detail, result)`` of the entry ``digest`` holding
        ``text`` (``None`` = unreadable): the store's one validity rule.

        States: ``live`` (servable; detail is the ``(kind, version)``
        bucket and ``result`` the deserialized result), ``stale``
        (well-formed but not servable — unknown kind, old schema
        version, a ``cell`` record that does not hash to the file name,
        or a result record the kind's deserializer rejects),
        ``corrupt`` (unparseable JSON or a payload missing the envelope
        fields). For the last two, detail is the reason and ``result``
        is ``None``. :meth:`get` serves live entries only;
        :meth:`inventory` makes the rest visible to ``repro store ls``
        / ``prune``.
        """
        try:
            if text is None:
                raise ValueError("unreadable")
            payload = json.loads(text)
            kind = payload["kind"]
            version = payload["schema_version"]
            record = payload["result"]
        except (ValueError, KeyError, TypeError):
            return "corrupt", "unreadable or truncated payload", None
        if not isinstance(kind, str) or kind not in EVALUATIONS:
            return "stale", f"unknown evaluation kind {kind!r}", None
        info = EVALUATIONS.get(kind)
        if version != info.schema_version:
            return (
                "stale",
                f"{kind} schema v{version} (current v{info.schema_version})",
                None,
            )
        if key_digest(payload.get("cell")) != digest:
            return "stale", "payload does not hash to its file name", None
        try:
            result = info.result_from_dict(record)
        except Exception:
            return "stale", f"{kind} result fails to deserialize", None
        return "live", (kind, version), result

    def _entry_payloads(self) -> Iterator[Tuple[str, str, Optional[str]]]:
        """``(digest, path, text)`` of every entry file (``text=None``
        when unreadable)."""
        for path in self._entry_files():
            try:
                with open(path, encoding="utf-8") as handle:
                    text: Optional[str] = handle.read()
            except OSError:
                text = None
            yield os.path.basename(path)[:-5], path, text

    def inventory(self) -> StoreInventory:
        """Scan every entry: per-kind live counts plus prunable entries."""
        report = StoreInventory()
        for digest, path, text in self._entry_payloads():
            state, detail, _ = self._parse_entry(digest, text)
            if state == "live":
                report.live[detail] = report.live.get(detail, 0) + 1
            elif state == "stale":
                report.stale.append((path, detail))
            else:
                report.corrupt.append((path, detail))
        return report

    def prune(self, dry_run: bool = False) -> List[Tuple[str, str]]:
        """Delete stale/corrupt entries (the silent misses); returns
        ``(path, reason)`` per removed — or, with ``dry_run``, per
        would-be-removed — entry. Live entries are never touched."""
        removals = self.inventory().prunable
        if not dry_run:
            for path, _ in removals:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass  # concurrent prune; the entry is gone either way
        return removals

    def put(
        self,
        cell: Any,
        result: Any,
        digest: Optional[str] = None,
        key: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist ``cell``'s result atomically; returns the entry path.

        ``key``/``digest`` reuse a precomputed :func:`cell_key` /
        :func:`key_digest` pair (the engine computes both once per cell
        at plan time — fingerprinting a trace workload stats its
        files). When omitted they are computed here, from one
        :func:`cell_key` call. The payload records the same
        fingerprint-carrying key the address is derived from, which is
        what lets :meth:`get` verify every entry against its file name —
        including trace-workload cells.
        """
        info = EVALUATIONS.get(cell.kind)
        if key is None:
            key = cell_key(cell)
        if digest is None:
            digest = key_digest(key)
        payload = {
            "kind": cell.kind,
            "schema_version": info.schema_version,
            "cell": key,
            "result": info.result_to_dict(result),
        }
        path = self._cell_path(cell, digest)
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=self.path,
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def put_many(
        self,
        entries: Sequence[Tuple[Any, Any, Optional[str], Optional[Dict[str, Any]]]],
    ) -> List[str]:
        """Persist a batch of ``(cell, result, digest, key)`` records.

        Not a transaction: a loop of independently atomic :meth:`put`
        calls, in order, so a crash mid-batch persists a prefix (which
        resume semantics already tolerate). The grid coordinator files
        every completed cell through it as a batch of one, on every
        backend.
        """
        return [
            self.put(cell, result, digest=digest, key=key)
            for cell, result, digest, key in entries
        ]
