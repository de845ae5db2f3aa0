"""Memory-access trace format (USIMM-style): the one reader and writer.

A trace is a sequence of LLC-miss records. Each record carries the number
of non-memory instructions preceding the access (the *gap*), whether it is
a read or write, and the physical byte address. The on-disk format is one
record per line: ``<gap> <R|W> <hex address>`` — the shape USIMM's trace
readers expect. Blank lines and ``#`` comments are ignored; files ending
in ``.gz`` are transparently gzip-compressed.

In memory a trace is the ``(gaps, is_write, addresses)`` column triple:
:func:`parse_trace_columns` reads it, :func:`load_trace_columns` reads
it from a file, and :func:`write_trace_columns` writes it, so this
module alone owns the on-disk format. The simulator consumes the
decoded form, :class:`repro.workloads.columnar.ColumnarTrace`.
"""

from __future__ import annotations

import gzip
import io
from typing import (
    IO, TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:
    import numpy as np

#: Largest gap or address a trace may hold: the columns are int64.
_INT64_MAX = (1 << 63) - 1


class TraceParseError(ValueError):
    """A malformed trace line, reporting the trace name and line number."""

    def __init__(self, name: str, line_no: int, message: str):
        super().__init__(f"{name}: line {line_no}: {message}")
        self.name = name
        self.line_no = line_no


def _parse_line(name: str, line_no: int, line: str) -> Tuple[int, bool, int]:
    """One stripped, non-empty trace line -> (gap, is_write, address)."""
    parts = line.split()
    if len(parts) != 3:
        raise TraceParseError(name, line_no, "expected '<gap> <R|W> <addr>'")
    gap_text, op, addr_text = parts
    if op not in ("R", "W"):
        raise TraceParseError(name, line_no, f"op must be R or W, got {op!r}")
    try:
        gap = int(gap_text)
        address = int(addr_text, 16)
    except ValueError:
        raise TraceParseError(
            name, line_no, f"bad gap or address in {line!r}"
        ) from None
    if gap < 0 or address < 0:
        raise TraceParseError(name, line_no, "gap and address must be non-negative")
    if gap > _INT64_MAX or address > _INT64_MAX:
        raise TraceParseError(
            name, line_no, f"gap or address exceeds int64 in {line!r}"
        )
    return gap, op == "W", address


def parse_trace_columns(
    stream: Union[IO[str], Iterable[str]], name: str = "trace"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trace into ``(gaps, is_write, addresses)`` numpy arrays.

    The columnar loader path: no per-record objects are created.
    Empty (or comment-only) traces yield zero-length, correctly-typed
    arrays.
    """
    import numpy as np

    gaps: List[int] = []
    writes: List[bool] = []
    addresses: List[int] = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        gap, is_write, address = _parse_line(name, line_no, line)
        gaps.append(gap)
        writes.append(is_write)
        addresses.append(address)
    return (
        np.array(gaps, dtype=np.int64),
        np.array(writes, dtype=bool),
        np.array(addresses, dtype=np.int64),
    )


def open_trace(path: str, mode: str = "rt") -> IO[str]:
    """Open a trace file for text IO, transparently gzipped for ``.gz``.

    Gzip members are written with a zero header timestamp, so a
    compressed recording's bytes depend on its content alone.
    """
    if str(path).endswith(".gz"):
        binary = gzip.GzipFile(path, mode.replace("t", ""), mtime=0)
        return io.TextIOWrapper(binary, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def load_trace_columns(
    path: str, name: str = ""
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trace file into ``(gaps, is_write, addresses)``.

    Args:
        path: The USIMM text trace (``.gz`` transparently handled).
        name: Trace name used in parse-error messages (default: the path).
    """
    with open_trace(path) as stream:
        return parse_trace_columns(stream, name=name or str(path))


def write_trace_columns(
    stream: IO[str],
    gaps: Sequence[int],
    is_write: Sequence[bool],
    addresses: Sequence[int],
    header: Optional[Iterable[str]] = None,
) -> int:
    """Write ``(gaps, is_write, addresses)`` columns as trace lines.

    The inverse of :func:`parse_trace_columns`; returns records written.

    Args:
        stream: Text stream to write (see :func:`open_trace` for files).
        gaps: Non-memory instructions preceding each access.
        is_write: Write flags.
        addresses: Physical byte addresses.
        header: Optional ``# ``-prefixed comment lines for provenance.
    """
    for line in header or []:
        stream.write(f"# {line}\n")
    for gap, write, address in zip(gaps, is_write, addresses):
        op = "W" if write else "R"
        stream.write(f"{int(gap)} {op} 0x{int(address):x}\n")
    return len(gaps)
