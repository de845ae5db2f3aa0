"""Tests for the trace format, synthetic generator, and workload suites."""

import io

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMOrganization
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.suites import (
    ALL_WORKLOADS,
    PROFILES,
    SUITES,
    profile_by_name,
    swap_heavy_workloads,
    workloads_in_suite,
)
from repro.workloads.synthetic import BenchmarkProfile, SyntheticTraceGenerator
from repro.workloads.trace import parse_trace_columns, write_trace_columns


def parse(text):
    return parse_trace_columns(io.StringIO(text))


class TestTraceFormat:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            parse("-1 R 0x0\n")
        with pytest.raises(ValueError):
            parse("0 R -0x1\n")

    def test_roundtrip(self):
        columns = (
            np.array([10, 0], dtype=np.int64),
            np.array([False, True]),
            np.array([0x1000, 0xFF40], dtype=np.int64),
        )
        buffer = io.StringIO()
        assert write_trace_columns(buffer, *columns, header=["made by t"]) == 2
        assert buffer.getvalue() == "# made by t\n10 R 0x1000\n0 W 0xff40\n"
        buffer.seek(0)
        for parsed, written in zip(parse_trace_columns(buffer, name="t"), columns):
            assert np.array_equal(parsed, written)

    def test_read_skips_comments_and_blanks(self):
        gaps, _, _ = parse("# header\n\n5 R 0x40\n")
        assert len(gaps) == 1
        assert gaps[0] == 5

    def test_read_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse("5 X 0x40\n")
        with pytest.raises(ValueError):
            parse("5 R\n")

    def test_statistics(self):
        arrays = ColumnarTrace.from_addresses(
            np.array([999, 999]), np.array([False, True]), np.array([0, 64]),
            AddressMapper(DRAMOrganization()),
        )
        assert arrays.total_instructions == 2000
        assert arrays.mpki == pytest.approx(1.0)
        assert arrays.write_fraction == 0.5

    def test_footprint(self):
        mapper = AddressMapper(DRAMOrganization())
        addresses = mapper.encode_arrays(  # rows 5, 5 (another line), 6
            np.zeros(3, int), np.zeros(3, int), np.zeros(3, int),
            np.array([5, 5, 6]), np.array([0, 1, 0]),
        )
        arrays = ColumnarTrace.from_addresses(
            np.zeros(3, np.int64), np.zeros(3, bool), addresses, mapper
        )
        assert arrays.row_footprint() == 2


class TestSyntheticGenerator:
    def make(self, **kwargs):
        defaults = dict(
            name="t", suite="X", mpki=10.0, footprint_rows=1024,
            hot_row_count=8, hot_access_fraction=0.5,
        )
        defaults.update(kwargs)
        return BenchmarkProfile(**defaults)

    def test_mpki_approximately_respected(self):
        generator = SyntheticTraceGenerator(self.make(mpki=10.0), seed=1)
        trace = generator.generate_arrays(20_000)
        assert trace.mpki == pytest.approx(10.0, rel=0.1)

    def test_write_fraction_respected(self):
        generator = SyntheticTraceGenerator(self.make(write_fraction=0.4), seed=2)
        trace = generator.generate_arrays(10_000)
        assert trace.write_fraction == pytest.approx(0.4, abs=0.03)

    def test_hot_rows_concentrate_accesses(self):
        generator = SyntheticTraceGenerator(self.make(), seed=3)
        arrays = generator.generate_arrays(20_000)
        keys = list(zip(arrays.channel.tolist(), arrays.bank.tolist(), arrays.row.tolist()))
        from collections import Counter

        top = Counter(keys).most_common(8)
        top_share = sum(c for _, c in top) / len(keys)
        assert top_share > 0.3  # 50% across 8 hot rows, roughly

    def test_no_hot_rows_means_flat(self):
        profile = self.make(hot_row_count=0, hot_access_fraction=0.0)
        generator = SyntheticTraceGenerator(profile, seed=4)
        arrays = generator.generate_arrays(20_000)
        from collections import Counter

        keys = list(zip(arrays.channel.tolist(), arrays.bank.tolist(), arrays.row.tolist()))
        _, count = Counter(keys).most_common(1)[0]
        assert count < 0.01 * len(keys)

    def test_cores_use_disjoint_regions(self):
        profile = self.make()
        a = SyntheticTraceGenerator(profile, seed=5, core_id=0).generate_arrays(5000)
        b = SyntheticTraceGenerator(profile, seed=5, core_id=1).generate_arrays(5000)
        rows_a = set(zip(a.channel.tolist(), a.bank.tolist(), a.row.tolist()))
        rows_b = set(zip(b.channel.tolist(), b.bank.tolist(), b.row.tolist()))
        overlap = len(rows_a & rows_b) / max(1, len(rows_a))
        assert overlap < 0.05

    def test_deterministic_given_seed(self):
        profile = self.make()
        a = SyntheticTraceGenerator(profile, seed=6).generate_arrays(1000)
        b = SyntheticTraceGenerator(profile, seed=6).generate_arrays(1000)
        assert np.array_equal(a.row, b.row)
        assert np.array_equal(a.gaps, b.gaps)

    def test_coordinates_in_range(self):
        org = DRAMOrganization()
        generator = SyntheticTraceGenerator(self.make(), organization=org, seed=7)
        arrays = generator.generate_arrays(5000)
        assert arrays.channel.max() < org.channels
        assert arrays.bank.max() < org.banks_per_rank
        assert arrays.row.max() < org.rows_per_bank
        assert arrays.column.max() < org.lines_per_row

    def test_generated_addresses_decode(self):
        org = DRAMOrganization()
        mapper = AddressMapper(org)
        generator = SyntheticTraceGenerator(self.make(), organization=org, seed=8)
        arrays = generator.generate_arrays(100)
        for address, row in zip(arrays.encode_addresses(mapper), arrays.row):
            decoded = mapper.decode(int(address))
            assert decoded.row == row
            assert 0 <= decoded.row < org.rows_per_bank

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", suite="s", mpki=0.0)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", suite="s", mpki=1.0, hot_access_fraction=0.5)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", suite="s", mpki=1.0, write_fraction=1.5)

    def test_invalid_record_count(self):
        generator = SyntheticTraceGenerator(self.make(), seed=9)
        with pytest.raises(ValueError):
            generator.generate_arrays(0)


class TestSuites:
    def test_exactly_78_workloads(self):
        assert len(ALL_WORKLOADS) == 78

    def test_suite_counts_match_paper(self):
        expected = {
            "GUPS": 1, "SPEC2K6": 29, "SPEC2K17": 22, "GAP": 6,
            "COMMERCIAL": 5, "PARSEC": 7, "BIOBENCH": 2, "MIX": 6,
        }
        for suite, count in expected.items():
            assert len(workloads_in_suite(suite)) == count, suite

    def test_all_suites_listed(self):
        assert set(SUITES) == {w.suite for w in ALL_WORKLOADS}

    def test_unique_names(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(names) == len(set(names))

    def test_mixes_reference_real_profiles(self):
        for spec in workloads_in_suite("MIX"):
            assert spec.is_mix
            for component in spec.components:
                assert component in PROFILES

    def test_profile_for_core_cycles(self):
        mix = workloads_in_suite("MIX")[0]
        assert mix.profile_for_core(0) == mix.profile_for_core(len(mix.components))

    def test_figure_14_club_is_swap_heavy(self):
        club = {"hmmer", "bzip2", "gcc", "zeusmp", "astar", "sphinx3", "xz_17"}
        heavy = {w.name for w in swap_heavy_workloads()}
        assert club <= heavy

    def test_streaming_benchmarks_not_swap_heavy(self):
        heavy = {w.name for w in swap_heavy_workloads()}
        for name in ("lbm", "libquantum", "bwaves", "milc"):
            assert name not in heavy

    def test_profile_lookup_error_is_helpful(self):
        with pytest.raises(KeyError, match="close matches"):
            profile_by_name("gcc_wrong")
