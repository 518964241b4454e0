"""Tests for PicassoParams and presets."""

import dataclasses

import numpy as np
import pytest

from repro.core import PicassoParams, aggressive_params, normal_params


class TestValidation:
    def test_defaults_valid(self):
        p = PicassoParams()
        assert p.palette_fraction == 0.125
        assert p.alpha == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"palette_fraction": 0.0},
            {"palette_fraction": 1.5},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"conflict_order": "bogus"},
            {"max_iterations": 0},
            {"grow_on_stall": 0.5},
            {"tile_budget_bytes": 0},
            {"n_workers": 0},
            {"executor": "threads"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PicassoParams(**kwargs)

    def test_backend_defaults(self):
        p = PicassoParams()
        assert p.n_workers == 1
        assert p.executor == "auto"
        assert p.with_(n_workers=4, executor="pool").n_workers == 4

    def test_field_count_and_telemetry_default(self):
        assert len(dataclasses.fields(PicassoParams)) == 18
        assert PicassoParams().telemetry is False


class TestSizing:
    def test_palette_size_rounds(self):
        p = PicassoParams(palette_fraction=0.125)
        assert p.palette_size(1000) == 125
        assert p.palette_size(2) >= 1  # palette floor of 1

    def test_list_size_capped_by_palette(self):
        p = PicassoParams(palette_fraction=0.03, alpha=30.0)
        n = 100
        assert p.list_size(n) <= p.palette_size(n)

    def test_list_size_tiny_n(self):
        p = PicassoParams()
        assert p.list_size(1) == 1
        assert p.list_size(2) >= 1

    def test_list_size_grows_with_alpha(self):
        lo = PicassoParams(alpha=0.5).list_size(10_000)
        hi = PicassoParams(alpha=4.5).list_size(10_000)
        assert hi > lo

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 10_000])
    @pytest.mark.parametrize("fraction", [None, 0.03, 0.5, 1.0])
    def test_palette_and_list_size_is_table_one(self, n, fraction):
        # P = max(1, round(f n)), L = min(max(1, round(alpha ln n)), P),
        # with f the run's current (possibly grown) palette fraction.
        p = PicassoParams(palette_fraction=0.125, alpha=3.0)
        f = 0.125 if fraction is None else fraction
        palette = max(1, round(f * n))
        raw = max(1, round(3.0 * np.log(n))) if n > 1 else 1
        assert p.palette_and_list_size(n, fraction) == (
            palette, min(raw, palette)
        )
        if fraction is None:
            assert p.palette_and_list_size(n) == (
                p.palette_size(n), p.list_size(n)
            )


class TestPresets:
    def test_normal(self):
        p = normal_params()
        assert p.palette_fraction == pytest.approx(0.125)
        assert p.alpha == 2.0

    def test_aggressive(self):
        p = aggressive_params()
        assert p.palette_fraction == pytest.approx(0.03)
        assert p.alpha == 30.0

    def test_overrides(self):
        p = normal_params(alpha=3.0, tile_budget_bytes=128)
        assert p.alpha == 3.0
        assert p.tile_budget_bytes == 128
        assert p.palette_fraction == pytest.approx(0.125)

    def test_with_is_functional(self):
        a = PicassoParams()
        b = a.with_(alpha=9.0)
        assert a.alpha == 2.0
        assert b.alpha == 9.0
