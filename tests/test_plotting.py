"""Tests for the SVG simplex renderer."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import bayescv.decision
from bayescv.decision import DecisionTriple, RopeInterval, region_probs, verdict_of
from bayescv.plotting import (
    draws_to_points,
    plotted_indices,
    points_from_triples,
    render_simplex_svg,
)


def corner_points():
    return np.asarray([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


class TestDrawsToPoints:
    def test_matches_per_draw_classification(self, monkeypatch):
        # Blocks of 16 draws: n=200 spans twelve full blocks and a partial one.
        monkeypatch.setattr(bayescv.decision, "_BLOCK", 16)
        rng = np.random.default_rng(7)
        n = 200
        delta0 = rng.normal(0.0, 1.5, size=n)
        sigma0 = rng.uniform(0.05, 2.0, size=n)
        sigma0[::9] = 0.0
        nu = rng.uniform(1.0, 40.0, size=n)
        rope = RopeInterval(0.5)

        points, triple = draws_to_points(delta0, sigma0, nu, 0.5)

        counts = {"left": 0, "rope": 0, "right": 0}
        for i in range(n):
            p = region_probs(float(delta0[i]), float(sigma0[i]), float(nu[i]), rope)
            counts[verdict_of(*p)] += 1
            x = 0.5 * p[1] + p[2]
            y = 0.5 * math.sqrt(3.0) * p[1]
            assert_allclose(points[i], [x, y], atol=1e-14)
        assert triple == DecisionTriple(
            n_left=counts["left"], n_rope=counts["rope"], n_right=counts["right"]
        )

    def test_counts_sum_to_draw_count(self):
        rng = np.random.default_rng(8)
        n = 333
        points, triple = draws_to_points(
            rng.normal(size=n), rng.uniform(0.1, 1.0, size=n), np.full(n, 5.0), 0.3
        )
        assert points.shape == (n, 2)
        assert triple.n_samples == n

    def test_accepts_chain_shaped_arrays(self):
        delta0 = np.full((4, 25), 3.0)
        sigma0 = np.full((4, 25), 0.1)
        nu = np.full((4, 25), 10.0)
        points, triple = draws_to_points(delta0, sigma0, nu, 0.2)
        assert points.shape == (100, 2)
        assert triple.n_right == 100

    def test_extreme_draws_land_on_corners(self):
        # A draw far right of a tiny rope sits at the right vertex; a draw
        # pinned at zero with tiny scale sits at the rope vertex.
        points, _ = draws_to_points(
            np.asarray([50.0, -50.0, 0.0]),
            np.asarray([0.1, 0.1, 1e-6]),
            np.asarray([20.0, 20.0, 20.0]),
            0.5,
        )
        assert_allclose(points[0], [1.0, 0.0], atol=1e-12)
        assert_allclose(points[1], [0.0, 0.0], atol=1e-12)
        assert_allclose(points[2], [0.5, math.sqrt(3.0) / 2.0], atol=1e-12)

    def test_rejects_mismatched_or_empty(self):
        with pytest.raises(ValueError):
            draws_to_points(np.zeros(3), np.ones(4), np.ones(3), 0.1)
        with pytest.raises(ValueError):
            draws_to_points(np.zeros(0), np.zeros(0), np.zeros(0), 0.1)


class TestPointsFromTriples:
    def test_vertices(self):
        triples = [
            DecisionTriple(n_left=10, n_rope=0, n_right=0),
            DecisionTriple(n_left=0, n_rope=0, n_right=10),
            DecisionTriple(n_left=0, n_rope=10, n_right=0),
        ]
        assert_allclose(points_from_triples(triples), corner_points()[[0, 1, 2]])

    def test_centroid(self):
        pts = points_from_triples([DecisionTriple(n_left=1, n_rope=1, n_right=1)])
        assert_allclose(pts[0], corner_points().mean(axis=0), atol=1e-15)


class TestPlottedIndices:
    @pytest.mark.parametrize("max_points", [0, -1])
    def test_rejects_max_points_below_one(self, max_points):
        with pytest.raises(ValueError, match="max_points must be >= 1"):
            plotted_indices(10, max_points)

    @pytest.mark.parametrize("n, max_points", [(3, 5000), (100, 100), (0, 1)])
    def test_every_index_at_or_below_cap(self, n, max_points):
        assert_array_equal(plotted_indices(n, max_points), np.arange(n))

    def test_even_stride_keeps_first_and_last(self):
        shown = plotted_indices(10700, 100)
        assert shown.size == 100
        assert shown[0] == 0
        assert shown[-1] == 10699
        assert np.all(np.diff(shown) > 0)


class TestRenderSimplexSvg:
    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        raw = rng.dirichlet([1.0, 1.0, 1.0], size=50)
        points = np.column_stack(
            [0.5 * raw[:, 1] + raw[:, 2], 0.5 * math.sqrt(3.0) * raw[:, 1]]
        )
        kwargs = dict(
            label_left="tnt",
            label_right="collins",
            triple=DecisionTriple(n_left=5, n_rope=15, n_right=30),
            title="tnt vs collins",
            manifest="run.manifest.txt",
        )
        first = render_simplex_svg(points, **kwargs)
        second = render_simplex_svg(points.copy(), **kwargs)
        assert first == second

    def test_corner_pixels(self):
        svg = render_simplex_svg(corner_points(), label_left="a", label_right="b")
        assert '<circle cx="80.0000" cy="520.0000"' in svg
        assert '<circle cx="560.0000" cy="520.0000"' in svg
        top = 520.0 - 480.0 * math.sqrt(3.0) / 2.0
        assert f'<circle cx="320.0000" cy="{top:.4f}"' in svg

    def test_triangle_outline_and_labels(self):
        svg = render_simplex_svg(corner_points()[:1], label_left="sysA", label_right="sysB")
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert svg.endswith("</svg>\n")
        assert 'd="M 80.0000 520.0000 L 560.0000 520.0000 L 320.0000' in svg
        assert ">sysA</text>" in svg
        assert ">sysB</text>" in svg
        assert ">rope</text>" in svg

    def test_probability_annotations_only_with_triple(self):
        points = corner_points()[:1]
        bare = render_simplex_svg(points, label_left="a", label_right="b")
        assert "P(left)" not in bare
        annotated = render_simplex_svg(
            points,
            label_left="a",
            label_right="b",
            triple=DecisionTriple(n_left=168, n_rope=3, n_right=829),
        )
        assert "P(left)=0.168" in annotated
        assert "P(rope)=0.003" in annotated
        assert "P(right)=0.829" in annotated

    def test_manifest_comment(self):
        points = corner_points()[:1]
        svg = render_simplex_svg(
            points, label_left="a", label_right="b", manifest="out/pair.manifest.txt"
        )
        assert "<!-- manifest: out/pair.manifest.txt -->" in svg
        assert "manifest" not in render_simplex_svg(points, label_left="a", label_right="b")

    def test_escapes_markup_in_text(self):
        svg = render_simplex_svg(
            corner_points()[:1],
            label_left='a<b&"c"',
            label_right="x>y",
            title="<script>",
        )
        assert "&lt;script&gt;" in svg
        assert "a&lt;b&amp;&quot;c&quot;" in svg
        assert "x&gt;y" in svg
        assert "<script>" not in svg

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            render_simplex_svg(np.zeros((3, 3)), label_left="a", label_right="b")
        with pytest.raises(ValueError):
            render_simplex_svg(np.zeros(4), label_left="a", label_right="b")

    def test_draws_every_point_given(self):
        points = np.tile(corner_points(), (4000, 1))
        svg = render_simplex_svg(points, label_left="a", label_right="b")
        assert svg.count("<circle") == 12000
