"""Trace file round-trip edge cases: errors, gzip, empty traces, and
the recorder's pinned bytes."""

import gzip
import hashlib
import io
import os

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMOrganization
from repro.sim import SimulationParams, record_workload
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.sources import resolve_workload
from repro.workloads.trace import (
    TraceParseError,
    load_trace_columns,
    open_trace,
    parse_trace_columns,
    write_trace_columns,
)


def parse(text, name="trace"):
    return parse_trace_columns(io.StringIO(text), name=name)


def save(path, columns):
    with open_trace(str(path), "wt") as stream:
        return write_trace_columns(stream, *columns)


def assert_columns_equal(a, b):
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


class TestParseErrors:
    def test_malformed_line_reports_name_and_line(self):
        text = "5 R 0x40\n5 X 0x80\n"
        with pytest.raises(TraceParseError, match=r"mytrace: line 2: op must be"):
            parse(text, name="mytrace")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(TraceParseError, match=r"line 1: expected"):
            parse("5 R\n")

    def test_bad_numbers_report_line(self):
        with pytest.raises(TraceParseError, match=r"t: line 3"):
            parse("1 R 0x1\n2 W 0x2\nxx R 0x3\n", name="t")

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceParseError, match="non-negative"):
            parse("-3 R 0x40\n")

    @pytest.mark.parametrize(
        "line", ["2 W 0x8000000000000000", "99999999999999999999 R 0x40"]
    )
    def test_values_beyond_int64_report_name_and_line(self, line):
        with pytest.raises(TraceParseError, match=r"big: line 2: .*exceeds int64"):
            parse(f"1 R 0x40\n{line}\n", name="big")

    def test_largest_int64_values_parse(self):
        gaps, _, addresses = parse(f"{2**63 - 1} R 0x7fffffffffffffff\n")
        assert gaps[0] == addresses[0] == 2**63 - 1

    def test_comment_lines_count_toward_line_numbers(self):
        text = "# header\n# more\nbroken\n"
        with pytest.raises(TraceParseError, match=r"line 3"):
            parse(text)

    def test_columnar_parser_same_errors(self):
        with pytest.raises(TraceParseError, match=r"cols: line 2"):
            parse_trace_columns(io.StringIO("1 R 0x1\nbad\n"), name="cols")

    def test_file_loader_uses_path_as_default_name(self, tmp_path):
        path = tmp_path / "broken.trace"
        path.write_text("nope\n")
        with pytest.raises(TraceParseError, match="broken.trace"):
            load_trace_columns(str(path))


class TestGzipRoundTrip:
    def make_columns(self, n=50):
        i = np.arange(n, dtype=np.int64)
        return i, i % 3 == 0, 64 * i

    def test_plain_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        columns = self.make_columns()
        assert save(path, columns) == 50
        assert_columns_equal(load_trace_columns(str(path)), columns)

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        columns = self.make_columns()
        save(path, columns)
        # Really gzip on disk (magic bytes), not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert_columns_equal(load_trace_columns(str(path)), columns)

    def test_gzip_and_plain_agree(self, tmp_path):
        columns = self.make_columns()
        save(tmp_path / "a.trace", columns)
        save(tmp_path / "b.trace.gz", columns)
        plain = (tmp_path / "a.trace").read_text()
        unzipped = gzip.decompress((tmp_path / "b.trace.gz").read_bytes()).decode()
        assert plain == unzipped


class TestEmptyTrace:
    def test_empty_trace_statistics(self):
        arrays = ColumnarTrace.from_addresses(
            *parse(""), AddressMapper(DRAMOrganization())
        )
        assert len(arrays) == 0
        assert arrays.total_instructions == 0
        assert arrays.write_fraction == 0.0
        assert arrays.mpki == 0.0
        assert arrays.row_footprint() == 0

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.trace"
        empty = np.empty(0, np.int64)
        assert save(path, (empty, np.empty(0, bool), empty)) == 0
        assert path.read_bytes() == b""
        assert len(load_trace_columns(str(path))[0]) == 0

    def test_comment_only_file_parses_to_zero_columns(self, tmp_path):
        path = tmp_path / "comments.trace"
        path.write_text("# only\n# comments\n\n")
        gaps, is_write, addresses = load_trace_columns(str(path))
        assert len(gaps) == len(is_write) == len(addresses) == 0
        assert gaps.dtype == np.int64 and addresses.dtype == np.int64

    def test_empty_columnar_trace(self):
        arrays = ColumnarTrace.empty()
        assert len(arrays) == 0
        assert arrays.total_instructions == 0
        assert arrays.mpki == 0.0
        assert arrays.row_footprint() == 0


class TestColumnarRoundTrip:
    def test_encode_decode_inverse(self):
        mapper = AddressMapper(DRAMOrganization())
        rng = np.random.default_rng(7)
        org = mapper.organization
        original = ColumnarTrace(
            gaps=rng.integers(0, 100, 256).astype(np.int64),
            is_write=rng.random(256) < 0.3,
            channel=rng.integers(0, org.channels, 256).astype(np.int16),
            rank=rng.integers(0, org.ranks_per_channel, 256).astype(np.int16),
            bank=rng.integers(0, org.banks_per_rank, 256).astype(np.int16),
            row=rng.integers(0, org.rows_per_bank, 256).astype(np.int32),
            column=rng.integers(0, org.lines_per_row, 256).astype(np.int32),
        )
        addresses = original.encode_addresses(mapper)
        rebuilt = ColumnarTrace.from_addresses(
            original.gaps, original.is_write, addresses, mapper
        )
        assert original.equals(rebuilt)

    def test_encode_rejects_out_of_range(self):
        mapper = AddressMapper(DRAMOrganization())
        arrays = ColumnarTrace.empty()
        with pytest.raises(ValueError, match="row"):
            mapper.encode_arrays(
                np.zeros(1, int), np.zeros(1, int), np.zeros(1, int),
                np.array([mapper.organization.rows_per_bank]), np.zeros(1, int),
            )
        # Empty arrays are fine through the full path.
        assert len(arrays.encode_addresses(mapper)) == 0

    def test_decode_rejects_out_of_range(self):
        """An address beyond the organization's capacity is an error,
        not an alias of a low row; the last in-range line decodes."""
        mapper = AddressMapper(DRAMOrganization())
        org = mapper.organization
        last = (1 << mapper.address_bits) - org.line_size_bytes
        row = mapper.decode_arrays(np.array([last]))[3]
        assert int(row[0]) == org.rows_per_bank - 1
        for address in (1 << mapper.address_bits, 2**63 - 1):
            with pytest.raises(ValueError, match="row"):
                mapper.decode_arrays(np.array([0, address]))
        with pytest.raises(ValueError, match="row"):
            ColumnarTrace.from_addresses(
                np.zeros(1, np.int64), np.zeros(1, bool),
                np.array([2**63 - 1]), mapper,
            )
        # Empty arrays decode to empty coordinates.
        assert all(len(c) == 0 for c in mapper.decode_arrays(np.empty(0)))

    def test_take_truncates(self):
        mapper = AddressMapper(DRAMOrganization())
        gaps = np.arange(10, dtype=np.int64)
        arrays = ColumnarTrace.from_addresses(
            gaps, np.zeros(10, bool), np.arange(10) * 64, mapper
        )
        assert len(arrays.take(4)) == 4
        assert arrays.take(100) is arrays


class TestRecorderBytes:
    """The bytes ``record_workload`` writes for gcc, 2 cores x 200
    requests, pinned so a change to the trace writer cannot move them.

    Gzip members carry no write time, so compressed recordings are
    pinned by their own bytes too, and decompress to the plain
    recording."""

    DIGESTS = {
        "core0.trace": "de22c1aef4f121d32c021ed679bd06152d869042aefc32598a2388e8c7665f6f",
        "core1.trace": "d4a328199bd5167c94d82569eba915b6c93c5696bcef1667c48b685eb6f747e5",
    }

    GZIP_DIGESTS = {
        "core0.trace.gz": "52c321138bd879a8a8e3ca305b9dc250e2eb9590bf3a8bd83052d9a087477c7e",
        "core1.trace.gz": "569b417836eaa2fc0b70062e9ebcdf6760177d6e6fcdb369f59ed31f64c67bc9",
    }

    def record(self, out_dir, compress):
        params = SimulationParams(num_cores=2, requests_per_core=200)
        return record_workload(
            resolve_workload("gcc"), params, out_dir=str(out_dir),
            compress=compress,
        )

    def test_plain_recording_bytes(self, tmp_path):
        paths = self.record(tmp_path, compress=False)
        digests = {
            os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
            for p in paths
        }
        assert digests == self.DIGESTS

    def test_gzip_recording_bytes(self, tmp_path):
        paths = self.record(tmp_path, compress=True)
        digests, texts = {}, {}
        for path in paths:
            data = open(path, "rb").read()
            assert data[:2] == b"\x1f\x8b"
            name = os.path.basename(path)
            digests[name] = hashlib.sha256(data).hexdigest()
            texts[name[: -len(".gz")]] = hashlib.sha256(
                gzip.decompress(data)
            ).hexdigest()
        assert digests == self.GZIP_DIGESTS
        assert texts == self.DIGESTS
