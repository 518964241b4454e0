"""Tests for edge streams and the semi-streaming colorer."""

import numpy as np
import pytest

from repro.core.params import PicassoParams
from repro.graphs import complement_graph, erdos_renyi
from repro.pauli import random_pauli_set
from repro.streaming import (
    EdgeListStream,
    FileEdgeStream,
    PauliPairStream,
    save_edge_stream,
    semi_streaming_color,
)


class TestStreams:
    def test_edge_list_stream_batches(self):
        g = erdos_renyi(30, 0.4, seed=0)
        e = g.edges()
        stream = EdgeListStream(e[:, 0], e[:, 1], 30, batch=7)
        seen = 0
        for u, v in stream:
            assert len(u) <= 7
            seen += len(u)
        assert seen == g.n_edges
        # Replayable.
        assert sum(len(u) for u, _ in stream) == g.n_edges

    def test_edge_list_stream_shape_check(self):
        with pytest.raises(ValueError):
            EdgeListStream(np.zeros(2), np.zeros(3), 5)

    def test_file_stream_roundtrip(self, tmp_path):
        g = erdos_renyi(25, 0.3, seed=1)
        path = tmp_path / "edges.txt"
        save_edge_stream(g, path)
        stream = FileEdgeStream(path, 25, batch=11)
        edges = set()
        for u, v in stream:
            edges.update(zip(u.tolist(), v.tolist()))
        expected = set(map(tuple, g.edges().tolist()))
        assert edges == expected

    def test_pauli_pair_stream_matches_graph(self):
        ps = random_pauli_set(40, 5, seed=2)
        g = complement_graph(ps)
        stream = PauliPairStream(ps, batch=101)
        total = sum(len(u) for u, _ in stream)
        assert total == g.n_edges


class TestSemiStreamingColor:
    def test_proper_on_explicit_stream(self):
        g = erdos_renyi(60, 0.4, seed=3)
        e = g.edges()
        stream = EdgeListStream(e[:, 0], e[:, 1], 60, batch=64)
        result = semi_streaming_color(stream, seed=0)
        assert g.validate_coloring(result.colors)
        assert result.stats["passes"] >= 1

    def test_proper_on_pauli_stream(self):
        ps = random_pauli_set(80, 6, seed=4)
        g = complement_graph(ps)
        result = semi_streaming_color(PauliPairStream(ps), seed=0)
        assert g.validate_coloring(result.colors)

    def test_proper_from_file(self, tmp_path):
        g = erdos_renyi(40, 0.5, seed=5)
        path = tmp_path / "edges.txt"
        save_edge_stream(g, path)
        result = semi_streaming_color(FileEdgeStream(path, 40), seed=0)
        assert g.validate_coloring(result.colors)

    def test_memory_certificate(self):
        """Retained edges per pass must undercut the full edge count
        (the semi-streaming point) for a normal palette."""
        ps = random_pauli_set(400, 8, seed=6)
        g = complement_graph(ps)
        result = semi_streaming_color(
            PauliPairStream(ps), params=PicassoParams(), seed=0
        )
        assert result.stats["max_retained_edges"] < g.n_edges

    def test_duplicate_edges_in_file_tolerated(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0 1\n1 0\n0 1\n1 2\n")
        result = semi_streaming_color(FileEdgeStream(path, 3), seed=0)
        from repro.graphs import from_edge_list

        g = from_edge_list([0, 1], [1, 2], 3)
        assert g.validate_coloring(result.colors)

    def test_empty_stream(self):
        stream = EdgeListStream(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 5
        )
        result = semi_streaming_color(stream, seed=0)
        assert result.n_colors == 1

    def test_quality_comparable_to_oracle_picasso(self):
        """Same algorithm family: color counts within 25%."""
        from repro.core import Picasso

        ps = random_pauli_set(150, 6, seed=7)
        stream_colors = semi_streaming_color(PauliPairStream(ps), seed=0).n_colors
        oracle_colors = Picasso(seed=0).color(ps).n_colors
        assert stream_colors <= 1.25 * oracle_colors
        assert oracle_colors <= 1.25 * stream_colors

    def test_telemetry_param_enables_collector(self):
        """``PicassoParams(telemetry=True)`` turns the collector on, as
        it does for the in-memory driver."""
        from repro import telemetry

        telemetry.reset()
        telemetry.enable(False)
        try:
            semi_streaming_color(
                PauliPairStream(random_pauli_set(200, 6, seed=1)),
                PicassoParams(telemetry=True),
                seed=1,
            )
            assert telemetry.enabled()
            assert telemetry.snapshot()["counters"]["streaming.passes"] >= 1
        finally:
            telemetry.reset()
            telemetry.enable(False)
