"""Tests for the workload generators and problem descriptors (repro.workloads)."""

import numpy as np
import pytest

from repro.workloads.graphs import CORA_EDGES, CORA_NODES, cora_like_graph, synthetic_graph
from repro.workloads.images import random_conv_weights, random_feature_map, random_image
from repro.workloads.points import random_points
from repro.workloads.problems import (
    PAPER_PROBLEM_NAMES,
    SIZEABLE_PROBLEMS,
    UnknownProblemError,
    available_problems,
    make_problem,
    problem_global_size,
)
from repro.workloads.tensors import random_matrix, random_vector


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
class TestTensors:
    def test_vectors_are_reproducible_and_bounded(self):
        a = random_vector(100, seed=3)
        b = random_vector(100, seed=3)
        c = random_vector(100, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (100,)
        assert (a >= -1).all() and (a < 1).all()

    def test_matrix_shape_and_reproducibility(self):
        m = random_matrix(5, 7, seed=1)
        assert m.shape == (5, 7)
        np.testing.assert_array_equal(m, random_matrix(5, 7, seed=1))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_vector(0)
        with pytest.raises(ValueError):
            random_matrix(0, 3)


class TestPointsAndImages:
    def test_points_have_geographic_ranges(self):
        lat, lng = random_points(500, seed=2)
        assert len(lat) == len(lng) == 500
        assert (np.abs(lat) <= 90).all()
        assert (np.abs(lng) <= 180).all()

    def test_image_and_feature_map_shapes(self):
        assert random_image(12, 10).shape == (12, 10)
        assert random_feature_map(3, 8, 8).shape == (3, 8, 8)
        assert random_conv_weights(4, 3).shape == (4, 3, 3, 3)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_points(0)
        with pytest.raises(ValueError):
            random_image(0, 5)
        with pytest.raises(ValueError):
            random_feature_map(1, 1, 0)


class TestGraphs:
    def test_synthetic_graph_is_valid_csr(self):
        graph = synthetic_graph(100, 400, seed=5)
        assert graph.num_nodes == 100
        assert graph.num_edges == 400
        assert graph.row_ptr[0] == 0
        assert graph.row_ptr[-1] == 400
        assert (np.diff(graph.row_ptr) >= 0).all()
        assert (graph.col_idx >= 0).all() and (graph.col_idx < 100).all()
        # degrees sum to edge count and match the accessors
        assert sum(graph.degree(v) for v in range(100)) == 400
        assert len(graph.neighbours(0)) == graph.degree(0)

    def test_graph_is_reproducible(self):
        a = synthetic_graph(64, 256, seed=1)
        b = synthetic_graph(64, 256, seed=1)
        np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
        np.testing.assert_array_equal(a.col_idx, b.col_idx)

    def test_cora_like_graph_matches_published_shape(self):
        graph = cora_like_graph(seed=0)
        assert graph.num_nodes == CORA_NODES == 2708
        assert graph.num_edges == CORA_EDGES == 10556
        scaled = cora_like_graph(seed=0, scale=0.1)
        assert scaled.num_nodes == pytest.approx(271, abs=1)

    def test_invalid_graph_parameters(self):
        with pytest.raises(ValueError):
            synthetic_graph(0, 10)
        with pytest.raises(ValueError):
            synthetic_graph(10, -1)
        with pytest.raises(ValueError):
            cora_like_graph(scale=0)


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
class TestProblems:
    def test_available_problems_cover_the_paper_list(self):
        names = available_problems()
        assert set(PAPER_PROBLEM_NAMES) == set(names)
        assert len(PAPER_PROBLEM_NAMES) == 9

    def test_unknown_problem_or_scale_raises(self):
        with pytest.raises(UnknownProblemError):
            make_problem("not_a_problem")
        with pytest.raises(UnknownProblemError):
            make_problem("vecadd", scale="gigantic")

    @pytest.mark.parametrize("scale", ["smoke", "bench", "paper"])
    @pytest.mark.parametrize("name", PAPER_PROBLEM_NAMES)
    def test_problem_global_size_matches_the_built_problem(self, name, scale):
        # the size-only view used by scenario planning must agree with the
        # factory, data allocation excluded
        assert problem_global_size(name, scale=scale, seed=3) == \
               make_problem(name, scale=scale, seed=3).global_size

    def test_problem_global_size_honours_overrides_and_validation(self):
        for name in SIZEABLE_PROBLEMS:
            assert problem_global_size(name, scale="bench", size=96) == 96
        with pytest.raises(UnknownProblemError):
            problem_global_size("sgemm", size=96)         # not sizeable
        with pytest.raises(UnknownProblemError):
            problem_global_size("vecadd", size=0)
        with pytest.raises(UnknownProblemError):
            problem_global_size("not_a_problem")
        with pytest.raises(UnknownProblemError):
            problem_global_size("vecadd", scale="gigantic")

    def test_paper_scale_sizes_match_the_paper(self):
        assert make_problem("vecadd", scale="paper").global_size == 4096
        assert make_problem("knn", scale="paper").parameters["points"] == 42764
        sgemm = make_problem("sgemm", scale="paper")
        assert (sgemm.parameters["m"], sgemm.parameters["n"], sgemm.parameters["k"]) == (256, 16, 144)
        gauss = make_problem("gaussian", scale="paper")
        assert gauss.parameters["width"] == 360 and gauss.parameters["height"] == 360
        gcn = make_problem("gcn_aggregate", scale="paper")
        assert gcn.parameters["nodes"] == 2708 and gcn.parameters["hidden"] == 16
        conv = make_problem("conv2d", scale="paper")
        assert conv.parameters["in_channels"] == 16
        assert conv.global_size == 16 * 32 * 32

    @pytest.mark.parametrize("name", PAPER_PROBLEM_NAMES)
    def test_every_problem_has_reference_and_category(self, name):
        problem = make_problem(name, scale="smoke")
        assert problem.category in ("math", "ml")
        assert problem.global_size >= 1
        reference = problem.reference_outputs()
        assert reference
        for key, value in reference.items():
            assert isinstance(value, np.ndarray)
        assert problem.kernel.check_arguments(problem.arguments) is None
        assert name in problem.summary()

    def test_bench_scale_is_smaller_than_paper_scale(self):
        for name in PAPER_PROBLEM_NAMES:
            bench = make_problem(name, scale="bench")
            paper = make_problem(name, scale="paper")
            assert bench.global_size < paper.global_size

    def test_problems_are_deterministic_per_seed(self):
        a = make_problem("vecadd", scale="smoke", seed=7)
        b = make_problem("vecadd", scale="smoke", seed=7)
        c = make_problem("vecadd", scale="smoke", seed=8)
        np.testing.assert_array_equal(a.arguments["a"], b.arguments["a"])
        assert not np.array_equal(a.arguments["a"], c.arguments["a"])

    def test_math_and_ml_categories_match_the_paper_grouping(self):
        math_problems = {n for n in PAPER_PROBLEM_NAMES
                         if make_problem(n, scale="smoke").category == "math"}
        ml_problems = {n for n in PAPER_PROBLEM_NAMES
                       if make_problem(n, scale="smoke").category == "ml"}
        assert {"vecadd", "relu", "saxpy", "sgemm", "knn", "gaussian"} == math_problems
        assert {"gcn_aggregate", "gcn_layer", "conv2d"} == ml_problems
