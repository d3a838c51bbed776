"""Tests of the binary ``.rgx`` graph format: exact round-trips, mmap
loading, converter, and malformed-file validation."""

from __future__ import annotations

import pickle
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graphs.binary import (
    HEADER_SIZE,
    RGX_MAGIC,
    RGX_VERSION,
    RgxMapping,
    _FLAG_CHECKSUMS,
    convert_edge_list,
    load_rgx,
    map_rgx_arrays,
    read_header,
    verify_rgx,
    write_rgx,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.io import roundtrip_equal
from repro.utils.exceptions import GraphFormatError


@pytest.fixture(scope="module")
def graph() -> ProbabilisticGraph:
    return erdos_renyi(200, 5.0, random_state=3, name="er")


def _csr_equal(a: ProbabilisticGraph, b: ProbabilisticGraph) -> bool:
    return (
        a.n == b.n
        and a.m == b.m
        and all(
            np.array_equal(x, y)
            for x, y in zip(a.out_csr() + a.in_csr(), b.out_csr() + b.in_csr())
        )
    )


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_exact_round_trip(self, graph, tmp_path, mmap):
        path = tmp_path / "g.rgx"
        write_rgx(graph, path)
        reloaded = load_rgx(path, mmap=mmap)
        assert _csr_equal(graph, reloaded)
        assert reloaded.name == "er"
        assert reloaded.undirected_input == graph.undirected_input

    def test_isolated_trailing_nodes_survive(self, tmp_path):
        # An edge list cannot represent node 4 (no edges); the binary
        # header stores n explicitly, so the round-trip is exact.
        graph = ProbabilisticGraph(5, [(0, 1)], [0.5], name="iso")
        reloaded = load_rgx(write_rgx(graph, tmp_path / "iso.rgx"))
        assert reloaded.n == 5
        assert roundtrip_equal(graph, tmp_path / "iso2.rgx")
        assert not roundtrip_equal(graph, tmp_path / "iso.txt")

    def test_mmap_info_only_on_mmap_loads(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        assert isinstance(load_rgx(path, mmap=True).mmap_info, RgxMapping)
        assert load_rgx(path, mmap=False).mmap_info is None
        assert graph.mmap_info is None

    def test_mmap_arrays_are_read_only_views(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        reloaded = load_rgx(path, mmap=True)
        offsets, _targets, _probs = reloaded.out_csr()
        assert isinstance(offsets, np.memmap)
        with pytest.raises((ValueError, OSError)):
            offsets[0] = 7

    def test_lazy_derived_indexes_match_eager(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        reloaded = load_rgx(path, mmap=True)
        assert np.array_equal(reloaded.in_edge_ids, graph.in_edge_ids)
        assert np.array_equal(reloaded.edge_sources, graph.edge_sources)
        sources, probs, edge_ids = reloaded.in_neighbors(3)
        ref_sources, ref_probs, ref_ids = graph.in_neighbors(3)
        assert np.array_equal(sources, ref_sources)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(edge_ids, ref_ids)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_pickled_graph_is_equal(self, graph, tmp_path, mmap):
        # How a spawned evaluation worker receives its base graph.
        reloaded = load_rgx(write_rgx(graph, tmp_path / "g.rgx"), mmap=mmap)
        copy = pickle.loads(pickle.dumps(reloaded))
        assert _csr_equal(copy, graph)
        assert (copy.name, copy.undirected_input) == ("er", graph.undirected_input)
        assert copy.mmap_info == reloaded.mmap_info
        assert np.array_equal(copy.in_edge_ids, graph.in_edge_ids)
        assert np.array_equal(copy.edge_sources, graph.edge_sources)

    def test_empty_graph(self, tmp_path):
        graph = ProbabilisticGraph(0, [])
        reloaded = load_rgx(write_rgx(graph, tmp_path / "empty.rgx"))
        assert reloaded.n == 0 and reloaded.m == 0

    def test_header_fields(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        n, m, flags, name, data_start = read_header(path)
        assert (n, m, name) == (graph.n, graph.m, "er")
        assert data_start % 64 == 0


class TestConverter:
    def test_convert_edge_list(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("# comment\n0 1\n1 2\n2 0\n3 1\n")
        n, m = convert_edge_list(src, tmp_path / "g.rgx", name="conv")
        assert (n, m) == (4, 4)
        graph = load_rgx(tmp_path / "g.rgx")
        assert graph.name == "conv"
        # weighted cascade applied: p(u, 1) = 1/indeg(1) = 1/2
        assert graph.edge_probability(0, 1) == pytest.approx(0.5)

    def test_convert_uniform_probability(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n1 0\n")
        convert_edge_list(
            src,
            tmp_path / "g.rgx",
            apply_weighted_cascade=False,
            default_probability=0.25,
        )
        graph = load_rgx(tmp_path / "g.rgx")
        assert graph.edge_probability(0, 1) == 0.25


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="not found"):
            load_rgx(tmp_path / "nope.rgx")

    def test_too_small_for_header(self, tmp_path):
        path = tmp_path / "tiny.rgx"
        path.write_bytes(b"RGX1")
        with pytest.raises(GraphFormatError, match="truncated or not an .rgx"):
            load_rgx(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rgx"
        path.write_bytes(b"NOPE" + b"\x00" * (HEADER_SIZE - 4))
        with pytest.raises(GraphFormatError, match="bad magic"):
            load_rgx(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "vfuture.rgx"
        header = struct.pack("<4sIQQIIQ", RGX_MAGIC, RGX_VERSION + 1, 0, 0, 0, 0, 64)
        path.write_bytes(header + b"\x00" * (HEADER_SIZE - len(header)))
        with pytest.raises(GraphFormatError, match="unsupported .rgx version"):
            load_rgx(path)

    def test_truncated_arrays(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphFormatError, match="truncated"):
            load_rgx(path)

    def test_header_n_beyond_uint32(self, tmp_path):
        path = tmp_path / "huge.rgx"
        header = struct.pack(
            "<4sIQQIIQ", RGX_MAGIC, RGX_VERSION, 2**33, 0, 0, 0, 64
        )
        path.write_bytes(header + b"\x00" * (HEADER_SIZE - len(header)))
        with pytest.raises(GraphFormatError, match="uint32"):
            load_rgx(path)

    def test_write_guard_rejects_uint32_overflow(self, tmp_path):
        fake = SimpleNamespace(n=2**32 + 1, m=0)
        with pytest.raises(GraphFormatError, match="uint32"):
            write_rgx(fake, tmp_path / "huge.rgx")

    def test_malformed_data_start(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        data = bytearray(path.read_bytes())
        # corrupt the data_start field (offset 32 in the packed header)
        struct.pack_into("<Q", data, 32, 48)
        path.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError, match="malformed header"):
            load_rgx(path)

    def test_mapping_attach_of_deleted_file(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        mapping = load_rgx(path, mmap=True).mmap_info
        path.unlink()
        with pytest.raises(GraphFormatError, match="does not exist"):
            map_rgx_arrays(mapping)


class TestChecksums:
    def test_checksummed_by_default_and_verifies(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        _n, _m, flags, _name, _start = read_header(path)
        assert flags & _FLAG_CHECKSUMS
        checked = verify_rgx(path)
        assert set(checked) == {
            "out_offsets", "out_targets", "out_probs",
            "in_offsets", "in_sources", "in_probs",
        }
        assert _csr_equal(graph, load_rgx(path, verify=True))

    def test_legacy_file_loads_but_refuses_verification(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "legacy.rgx", checksums=False)
        assert _csr_equal(graph, load_rgx(path))  # plain load: unchanged
        with pytest.raises(GraphFormatError, match="no section checksums"):
            verify_rgx(path)
        with pytest.raises(GraphFormatError, match="no section checksums"):
            load_rgx(path, verify=True)

    def test_sections_identical_with_and_without_checksums(self, graph, tmp_path):
        legacy = write_rgx(graph, tmp_path / "legacy.rgx", checksums=False)
        current = write_rgx(graph, tmp_path / "current.rgx")
        size = legacy.stat().st_size
        # Past the header (whose flags differ by the checksum bit), the
        # first `size` bytes are identical: the table is purely appended.
        assert legacy.read_bytes()[HEADER_SIZE:] == current.read_bytes()[HEADER_SIZE:size]

    def test_corrupted_section_is_detected(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        data = bytearray(path.read_bytes())
        _n, _m, _flags, _name, data_start = read_header(path)
        data[data_start + 8] ^= 0xFF  # flip one byte inside out_offsets
        path.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError, match="checksum mismatch.*out_offsets"):
            verify_rgx(path)
        with pytest.raises(GraphFormatError, match="checksum mismatch"):
            load_rgx(path, verify=True)
        # The historical unverified load stays available (and oblivious).
        load_rgx(path, verify=False)

    def test_truncated_checksum_table_is_detected(self, graph, tmp_path):
        path = write_rgx(graph, tmp_path / "g.rgx")
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 4)
        with pytest.raises(GraphFormatError, match="checksum table is truncated"):
            verify_rgx(path)

    def test_converter_verify_flag(self, tmp_path, capsys):
        source = tmp_path / "edges.txt"
        source.write_text("0 1\n1 2\n2 0\n")
        from repro.experiments.__main__ import run_convert_graph

        destination = tmp_path / "g.rgx"
        assert run_convert_graph([str(source), str(destination), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified 6 section checksums: ok" in out
