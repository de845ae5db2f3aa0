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
  processes (or machines) each running ``shard=(i, n)`` against one
  shared store cover the grid exactly once, in any order, with no
  coordination.

Safety: writes are atomic (temp file + ``os.replace``); a corrupted,
truncated, or foreign file is treated as a miss (the cell reruns and
the entry is rewritten); a schema-version bump in the kind's
registration invalidates its stored cells by changing their digests,
and the version recorded inside each payload is verified on read as a
second line of defense.

**Packed tier**: one file per cell melts down at 10k+ entries (one
open + one atomic rename each, and directory scans touch every inode).
``repro store pack`` (:meth:`ResultStore.pack`) folds the loose files
into an append-only *segment* (``pack.seg``: one ``<digest> <payload>``
line per cell) plus an offset-index sidecar (``pack.idx``), leaving
the directory at two files however many cells it holds::

    store/
      pack.seg             a3f09c...e1 {"kind": ..., "result": ...}
      pack.idx             {"version": 1, "entries": {digest: [off, len]}}
      77b2d4...09.json     (new results keep landing as loose files)

Reads go through the in-memory index (loaded lazily on the first
lookup) with a loose-file fallback, so packed and loose entries serve
``--resume`` identically; writes always land loose (packing is an
explicit fold, never a hot-path cost). The index is derived state: a
corrupt or missing sidecar is rebuilt by scanning the segment, and a
corrupt segment record is a silent miss that heals like a corrupt
loose file (the cell reruns, the rewrite lands loose, ``pack`` folds
it back). Digests, payloads, and :func:`shard_of` are untouched —
resume, shard, and merge semantics are bit-identical across tiers.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.registry import EVALUATIONS

#: Filenames of the packed tier inside a store directory.
PACK_SEGMENT = "pack.seg"
PACK_INDEX = "pack.idx"

#: Version stamp of the pack-index sidecar format.
PACK_VERSION = 1

_HEX64 = re.compile(r"[0-9a-f]{64}")


def _workload_fingerprint(cell: Any) -> Optional[Any]:
    """Content token of a file-backed workload, or ``None``.

    Synthetic workloads are pure functions of the cell's parameters, so
    name + params identify them; a file-backed workload (a recorded
    trace) can change on disk under the same name, so its source object
    contributes a ``store_fingerprint()`` (mtime/size per file — the
    same invalidation key the trace cache uses) to the cell identity.
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
class MergeStats:
    """What one :meth:`ResultStore.merge_from` pass did.

    ``adopted`` entries were copied in; ``present`` already existed in
    the destination (first write wins — both sides computed the same
    deterministic cell, so the bytes agree); ``unverified`` entries
    failed digest verification (the payload's cell record does not hash
    to the entry's address — renamed, tampered, or written by a store
    predating the fingerprint-carrying payload format) and were left
    behind; ``rejected`` entries were corrupt or stale (unreadable, an
    unknown kind, or a schema-version mismatch).
    """

    adopted: int = 0
    present: int = 0
    unverified: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        """Total source entries examined."""
        return self.adopted + self.present + self.unverified + self.rejected


@dataclass
class PackStats:
    """What one :meth:`ResultStore.pack` pass did.

    ``packed`` loose entries were appended to the segment (and their
    loose files removed); ``duplicate`` loose entries were already in
    the segment under the same address (identical bytes by content
    addressing — the loose copy is simply removed); ``skipped``
    entries were stale or corrupt and stay loose for ``prune``.
    """

    packed: int = 0
    duplicate: int = 0
    skipped: int = 0

    @property
    def folded(self) -> int:
        """Loose files removed by the pass."""
        return self.packed + self.duplicate


@dataclass
class StoreInventory:
    """What a :meth:`ResultStore.inventory` scan found.

    ``live`` counts well-formed entries per ``(kind, stored schema
    version)`` — including versions the registered kind no longer
    declares (those are *stale*: reads treat them as misses).
    ``stale`` and ``corrupt`` list the entries :meth:`ResultStore.prune`
    would remove, with a reason each; packed records are listed as
    ``pack.seg#<digest>`` (pruning them compacts the segment).
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
    """A directory of completed experiment cells: loose JSON files plus
    an optional packed segment (see the module docstring).

    Args:
        path: Store directory (created on first use). Safe to share
            between concurrent shard runs: cells are single files,
            written atomically, and two runs computing the same cell
            write identical bytes. :meth:`pack` is the one operation
            that should not race concurrent packs of the same store.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        #: Lazy ``digest -> (offset, length)`` view of ``pack.seg``
        #: (``None`` until the first packed lookup).
        self._pack: Optional[Dict[str, Tuple[int, int]]] = None

    def _cell_path(self, cell: Any, digest: Optional[str] = None) -> str:
        return os.path.join(self.path, (digest or cell_digest(cell)) + ".json")

    def __contains__(self, cell: Any) -> bool:
        return self.get(cell) is not None

    def __len__(self) -> int:
        """Number of (well-formed or not) cell addresses currently stored
        (a cell both packed and loose counts once)."""
        loose = {os.path.basename(path)[:-5] for path in self._entry_files()}
        return len(loose | set(self._pack_entries()))

    def _entry_files(self) -> Iterator[str]:
        try:
            names = sorted(os.listdir(self.path))
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".json"):
                yield os.path.join(self.path, name)

    # -- packed tier ---------------------------------------------------

    @property
    def _segment_path(self) -> str:
        return os.path.join(self.path, PACK_SEGMENT)

    @property
    def _index_path(self) -> str:
        return os.path.join(self.path, PACK_INDEX)

    def _pack_entries(self) -> Dict[str, Tuple[int, int]]:
        """The segment's ``digest -> (offset, length)`` index, loaded
        lazily on first use (stores that were never packed pay one
        ``stat`` here, ever)."""
        if self._pack is None:
            self._pack = self._load_pack_index()
        return self._pack

    def _load_pack_index(self) -> Dict[str, Tuple[int, int]]:
        if not os.path.exists(self._segment_path):
            return {}
        try:
            with open(self._index_path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != PACK_VERSION:
                raise ValueError("unrecognized pack index version")
            return {
                str(digest): (int(entry[0]), int(entry[1]))
                for digest, entry in payload["entries"].items()
            }
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            # The sidecar is derived state: rebuild it from the segment
            # (and re-persist the healed copy).
            return self._rebuild_pack_index()

    def _rebuild_pack_index(self) -> Dict[str, Tuple[int, int]]:
        """Scan the segment line-by-line and re-derive the offset index.

        Unparseable lines are skipped (their cells read as misses and
        heal through reruns); the healed sidecar is written back so the
        scan happens once, not per process.
        """
        entries: Dict[str, Tuple[int, int]] = {}
        offset = 0
        try:
            with open(self._segment_path, "rb") as handle:
                for line in handle:
                    length = len(line)
                    body = line.rstrip(b"\n")
                    if len(body) > 65 and body[64:65] == b" ":
                        digest = body[:64].decode("ascii", "replace")
                        if _HEX64.fullmatch(digest):
                            entries[digest] = (offset + 65, len(body) - 65)
                    offset += length
        except OSError:
            return {}
        try:
            self._write_pack_index(entries)
        except OSError:  # read-only store: serve the in-memory rebuild
            pass
        return entries

    def _write_pack_index(self, entries: Dict[str, Tuple[int, int]]) -> None:
        """Atomically (re)write the index sidecar."""
        payload = {
            "version": PACK_VERSION,
            "entries": {
                digest: [offset, length]
                for digest, (offset, length) in sorted(entries.items())
            },
        }
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=self.path, suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, self._index_path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _read_packed(self, digest: str) -> Optional[str]:
        """The packed payload text under ``digest``, or ``None``."""
        location = self._pack_entries().get(digest)
        if location is None:
            return None
        offset, length = location
        try:
            with open(self._segment_path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
            if len(data) != length:
                return None
            return data.decode("utf-8")
        except (OSError, UnicodeDecodeError, ValueError):
            return None

    def pack(self) -> PackStats:
        """Fold the loose live entries into the packed segment.

        Appends each live loose payload as one segment line, commits
        the updated index sidecar, and only then removes the folded
        loose files — a crash mid-pack leaves duplicates (packed and
        loose, identical bytes), never losses. Stale/corrupt loose
        files stay behind for :meth:`prune`; loose entries already in
        the segment are removed without re-appending (content
        addressing: same name, same bytes). Idempotent — repacking a
        packed store is a no-op.
        """
        stats = PackStats()
        index = dict(self._pack_entries())
        to_append: List[Tuple[str, str]] = []
        folded: List[str] = []
        for path in list(self._entry_files()):
            digest = os.path.basename(path)[:-5]
            state, _ = self._classify_entry(path)
            if state != "live":
                stats.skipped += 1
                continue
            if digest in index:
                stats.duplicate += 1
                folded.append(path)
                continue
            to_append.append((digest, path))
        if to_append:
            with open(self._segment_path, "ab") as segment:
                offset = segment.tell()
                for digest, path in to_append:
                    try:
                        with open(path, encoding="utf-8") as handle:
                            # Re-serialize: the segment is line-oriented,
                            # so the payload must hold no raw newlines
                            # (put() writes single-line JSON already).
                            data = json.dumps(json.load(handle)).encode("utf-8")
                    except (OSError, ValueError):
                        stats.skipped += 1  # raced away or went corrupt
                        continue
                    segment.write(digest.encode("ascii") + b" " + data + b"\n")
                    index[digest] = (offset + 65, len(data))
                    offset += 65 + len(data) + 1
                    folded.append(path)
                    stats.packed += 1
                segment.flush()
                os.fsync(segment.fileno())
            self._write_pack_index(index)
        self._pack = index
        for path in folded:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        return stats

    def _compact_pack(self, drop: set) -> None:
        """Rewrite the segment without the ``drop`` digests (prune path)."""
        keep = [d for d in sorted(self._pack_entries()) if d not in drop]
        entries: Dict[str, Tuple[int, int]] = {}
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=self.path, suffix=".tmp", delete=False
        )
        try:
            with handle:
                offset = 0
                for digest in keep:
                    text = self._read_packed(digest)
                    if text is None:
                        continue  # unreadable record: drop it too
                    data = text.encode("utf-8")
                    handle.write(digest.encode("ascii") + b" " + data + b"\n")
                    entries[digest] = (offset + 65, len(data))
                    offset += 65 + len(data) + 1
            if entries:
                os.replace(handle.name, self._segment_path)
                self._write_pack_index(entries)
            else:
                os.unlink(handle.name)
                for path in (self._segment_path, self._index_path):
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._pack = entries

    # -- reads ---------------------------------------------------------

    def _payload_texts(self, digest: str) -> Iterator[str]:
        """Candidate payload texts under one address: the packed record
        first (an in-memory index hit beats a file open), then the
        loose file — which is how a rerun's rewrite heals a corrupt
        packed record."""
        packed = self._read_packed(digest)
        if packed is not None:
            yield packed
        try:
            with open(
                os.path.join(self.path, digest + ".json"), encoding="utf-8"
            ) as handle:
                yield handle.read()
        except OSError:
            return

    def get(self, cell: Any, digest: Optional[str] = None) -> Optional[Any]:
        """The stored result of ``cell``, or ``None`` on any miss.

        A miss is: no entry, unreadable/corrupt JSON, a kind or
        schema-version mismatch inside the payload, or a result record
        that fails to deserialize. Every miss is recoverable — the
        engine reruns the cell and :meth:`put` rewrites the entry.
        Packed and loose tiers are both consulted (packed first).
        ``digest`` short-circuits the address computation when the
        caller already holds :func:`cell_digest` of the cell (the
        engine computes it once per cell — fingerprinting a trace
        workload stats its files).
        """
        info = EVALUATIONS.get(cell.kind)
        if digest is None:
            digest = cell_digest(cell)
        for text in self._payload_texts(digest):
            try:
                payload = json.loads(text)
                if payload.get("kind") != cell.kind:
                    continue
                if payload.get("schema_version") != info.schema_version:
                    continue
                return info.result_from_dict(payload["result"])
            except (ValueError, KeyError, TypeError):
                continue
        return None

    @staticmethod
    def _classify_payload(text: Optional[str]) -> Tuple[str, Any]:
        """``(state, detail)`` of one payload text (``None`` = unreadable).

        States: ``live`` (well-formed; detail is the ``(kind, version)``
        bucket), ``stale`` (well-formed but unreadable by the current
        registrations — unknown kind, old schema version, or a result
        record the kind's deserializer rejects), ``corrupt``
        (unparseable JSON or a payload missing the envelope fields).
        Reads already treat stale and corrupt entries as silent misses;
        this makes them visible to ``repro store ls`` / ``prune``.
        """
        try:
            if text is None:
                raise ValueError("unreadable")
            payload = json.loads(text)
            kind = payload["kind"]
            version = payload["schema_version"]
            result = payload["result"]
        except (ValueError, KeyError, TypeError):
            return "corrupt", "unreadable or truncated payload"
        if kind not in EVALUATIONS:
            return "stale", f"unknown evaluation kind {kind!r}"
        info = EVALUATIONS.get(kind)
        if version != info.schema_version:
            return (
                "stale",
                f"{kind} schema v{version} (current v{info.schema_version})",
            )
        try:
            info.result_from_dict(result)
        except Exception:
            return "stale", f"{kind} result fails to deserialize"
        return "live", (kind, version)

    def _classify_entry(self, path: str) -> Tuple[str, Any]:
        """``(state, detail)`` of one loose entry file."""
        try:
            with open(path, encoding="utf-8") as handle:
                text: Optional[str] = handle.read()
        except OSError:
            text = None
        return self._classify_payload(text)

    def _entry_payloads(self) -> Iterator[Tuple[str, str, Optional[str]]]:
        """``(digest, label, text)`` of every entry, both tiers.

        Loose files come first (``text=None`` when unreadable), then
        packed records whose digest no loose file shadows. ``label`` is
        a display path: the file path for loose entries,
        ``<store>/pack.seg#<digest>`` for packed ones.
        """
        loose = set()
        for path in self._entry_files():
            digest = os.path.basename(path)[:-5]
            loose.add(digest)
            try:
                with open(path, encoding="utf-8") as handle:
                    text: Optional[str] = handle.read()
            except OSError:
                text = None
            yield digest, path, text
        for digest in sorted(self._pack_entries()):
            if digest in loose:
                continue
            label = os.path.join(self.path, f"{PACK_SEGMENT}#{digest}")
            yield digest, label, self._read_packed(digest)

    def inventory(self) -> StoreInventory:
        """Scan every entry (loose and packed): per-kind live counts
        plus prunable entries."""
        report = StoreInventory()
        for _, label, text in self._entry_payloads():
            state, detail = self._classify_payload(text)
            if state == "live":
                report.live[detail] = report.live.get(detail, 0) + 1
            elif state == "stale":
                report.stale.append((label, detail))
            else:
                report.corrupt.append((label, detail))
        return report

    def prune(self, dry_run: bool = False) -> List[Tuple[str, str]]:
        """Delete stale/corrupt entries (the silent misses); returns
        ``(path, reason)`` per removed — or, with ``dry_run``, per
        would-be-removed — entry. Live entries are never touched.
        Packed victims (labels of the form ``pack.seg#<digest>``) are
        removed by compacting the segment in one rewrite."""
        removals = self.inventory().prunable
        if not dry_run:
            marker = PACK_SEGMENT + "#"
            drop = set()
            for path, _ in removals:
                name = os.path.basename(path)
                if name.startswith(marker):
                    drop.add(name[len(marker):])
                    continue
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass  # concurrent prune; the entry is gone either way
            if drop:
                self._compact_pack(drop)
        return removals

    @staticmethod
    def _record_digest(record: Dict[str, Any]) -> str:
        """SHA-256 of a payload's ``cell`` record, store-canonicalized.

        The store writes payloads whose ``cell`` record is the
        fingerprint-carrying :func:`cell_key` the entry is addressed
        under, canonicalized exactly like :func:`key_digest`; a JSON
        round-trip preserves that encoding bit-for-bit, so this digest
        equals the entry's filename stem for every entry the current
        :meth:`put` wrote — trace workloads included.
        """
        return key_digest(record)

    def merge_from(self, source: str) -> MergeStats:
        """Adopt another store's entries (loose and packed) into this
        store.

        The multi-host collection primitive: a coordinator merges each
        worker's store after its shard completes. Adoption is per-cell
        atomic (temp file + ``os.replace``, like :meth:`put`) and
        idempotent — an entry this store already holds, loose or
        packed, is left alone (both sides computed the same
        deterministic cell), so merging the same source twice, or two
        workers that shared a directory, changes nothing. Adopted
        entries land loose regardless of the source tier; ``pack``
        folds them when asked.

        Entries are **digest-verified** before adoption: the payload's
        ``cell`` record must hash back to the entry's address, so a
        renamed or tampered file from a remote host cannot poison the
        coordinator's store. The payload carries the same
        fingerprint-bearing key the address was derived from, so
        trace-workload entries verify like any other; entries written
        before the payload carried the fingerprint fail the check and
        are skipped (counted ``unverified``) — the coordinator
        recomputes those cells. Corrupt or stale source entries are
        skipped as ``rejected``. Merging a store into itself is a
        no-op (everything counts as ``present``).
        """
        stats = MergeStats()
        try:
            same = os.path.samefile(source, self.path)
        except OSError:
            same = False
        source_store = ResultStore(source)
        for name, _, text in source_store._entry_payloads():
            if same:
                stats.present += 1
                continue
            destination = os.path.join(self.path, name + ".json")
            if os.path.exists(destination) or name in self._pack_entries():
                stats.present += 1
                continue
            state, _ = self._classify_payload(text)
            if state != "live":
                stats.rejected += 1
                continue
            payload = json.loads(text)
            if self._record_digest(payload.get("cell", {})) != name:
                stats.unverified += 1
                continue
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                dir=self.path,
                suffix=".tmp",
                delete=False,
            )
            try:
                with handle:
                    handle.write(text)
                os.replace(handle.name, destination)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
            stats.adopted += 1
        return stats

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
        what makes every entry digest-verifiable by
        :meth:`merge_from` — including trace-workload cells.
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
        every completed batch through it — a chunk under the process
        pool, a single cell under the serial pool.
        """
        return [
            self.put(cell, result, digest=digest, key=key)
            for cell, result, digest, key in entries
        ]
