"""Tests for feature metrics, including property-based axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    EuclideanMetric,
    ManhattanMetric,
    MatrixMetric,
    Metric,
    TAO_WEIGHTS,
    WeightedEuclideanMetric,
    as_feature,
    check_metric_axioms,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=6)


def test_as_feature_scalar_becomes_vector():
    out = as_feature(3.0)
    assert out.shape == (1,)


def test_as_feature_rejects_matrix():
    with pytest.raises(ValueError):
        as_feature(np.zeros((2, 2)))


def test_as_feature_rejects_nan():
    with pytest.raises(ValueError):
        as_feature([1.0, float("nan")])


def test_euclidean_known_value():
    metric = EuclideanMetric()
    assert metric.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


def test_manhattan_known_value():
    metric = ManhattanMetric()
    assert metric.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(7.0)


def test_weighted_euclidean_known_value():
    metric = WeightedEuclideanMetric([4.0, 1.0])
    assert metric.distance([0.0, 0.0], [1.0, 2.0]) == pytest.approx(np.sqrt(4 + 4))


def test_weighted_euclidean_emphasizes_weighted_coordinates():
    metric = WeightedEuclideanMetric(TAO_WEIGHTS)
    base = np.zeros(4)
    move_first = np.array([0.1, 0, 0, 0])
    move_last = np.array([0, 0, 0, 0.1])
    assert metric.distance(base, move_first) > metric.distance(base, move_last)


def test_weighted_euclidean_dimension_mismatch():
    metric = WeightedEuclideanMetric([1.0, 1.0])
    with pytest.raises(ValueError):
        metric.distance([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_weighted_euclidean_rejects_bad_weights():
    with pytest.raises(ValueError):
        WeightedEuclideanMetric([1.0, 0.0])
    with pytest.raises(ValueError):
        WeightedEuclideanMetric([])
    with pytest.raises(ValueError):
        WeightedEuclideanMetric([1.0, -2.0])


def test_dimension_mismatch_raises():
    metric = EuclideanMetric()
    with pytest.raises(ValueError):
        metric.distance([1.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "metric",
    [EuclideanMetric(), ManhattanMetric(), WeightedEuclideanMetric([0.5, 0.3, 0.2])],
    ids=["euclidean", "manhattan", "weighted"],
)
def test_axioms_on_random_sample(metric):
    rng = np.random.default_rng(0)
    sample = [rng.normal(size=3) for _ in range(6)]
    check_metric_axioms(metric, sample)


@given(a=vectors, b=vectors, c=vectors)
@settings(max_examples=60, deadline=None)
def test_euclidean_triangle_inequality_property(a, b, c):
    size = min(len(a), len(b), len(c))
    metric = EuclideanMetric()
    va, vb, vc = a[:size], b[:size], c[:size]
    assert metric.distance(va, vb) <= (
        metric.distance(va, vc) + metric.distance(vc, vb) + 1e-6
    )


@given(a=vectors, b=vectors)
@settings(max_examples=60, deadline=None)
def test_manhattan_symmetry_property(a, b):
    size = min(len(a), len(b))
    metric = ManhattanMetric()
    assert metric.distance(a[:size], b[:size]) == pytest.approx(
        metric.distance(b[:size], a[:size])
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_weighted_euclidean_axioms_property(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=dim, max_size=dim
        )
    )
    points = data.draw(
        st.lists(
            st.lists(finite_floats, min_size=dim, max_size=dim), min_size=2, max_size=4
        )
    )
    metric = WeightedEuclideanMetric(weights)
    check_metric_axioms(metric, points, tolerance=1e-5)


def test_pairwise_matches_distance():
    rng = np.random.default_rng(1)
    sample = rng.normal(size=(5, 2))
    for metric in (EuclideanMetric(), ManhattanMetric(), WeightedEuclideanMetric([0.5, 0.5])):
        matrix = metric.pairwise_matrix(sample)
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(metric.distance(sample[i], sample[j]))
    # Node-id features have no vectorised form: callers fall back to distance.
    assert MatrixMetric({("a", "b"): 1.0}).pairwise_matrix(np.zeros((2, 1))) is None


# ----------------------------------------------------------------------
# distance_row: element i is distance(center, matrix[i]), bit for bit
# ----------------------------------------------------------------------
_MAX = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny  # smallest normal; below it, subnormals
#: Signed zeros, subnormals, the normal boundary and values near ±1e308.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, 1e308, -1e308, _MAX, -_MAX, 1.0)
row_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(min_value=-_TINY, max_value=_TINY),
    st.floats(min_value=1e307, max_value=_MAX) | st.floats(min_value=-_MAX, max_value=-1e307),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _row_metric(kind, weights):
    if kind == "euclidean":
        return EuclideanMetric()
    if kind == "manhattan":
        return ManhattanMetric()
    return WeightedEuclideanMetric(weights)


@pytest.mark.parametrize("dim", (1, 2, 4, 64))
@pytest.mark.parametrize("kind", ("euclidean", "weighted", "manhattan"))
@given(
    data=st.data(),
    rows=st.sampled_from((0, 1, 5, 64)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from((1e-300, 1e-3, 1.0, 1e3, 1e200)),
)
@settings(max_examples=25, deadline=None)
def test_distance_row_equals_scalar_distance_bitwise(kind, dim, data, rows, seed, scale):
    # Rows of normal features at a drawn scale (1e-300 underflows the
    # squares, 1e200 overflows them) plus 32 unit-scale rows, on which any
    # reordered k-d sum misses the scalar value in the last bit somewhere;
    # then a few coordinates are overwritten with drawn edge values.
    rng = np.random.default_rng(seed)
    center = rng.normal(size=dim) * scale
    matrix = np.vstack([rng.normal(size=(rows, dim)) * scale, rng.normal(size=(32, dim))])
    for _ in range(data.draw(st.integers(min_value=0, max_value=2 * dim), label="edits")):
        row = data.draw(st.integers(min_value=-1, max_value=len(matrix) - 1), label="row")
        target = center if row < 0 else matrix[row]
        target[data.draw(st.integers(min_value=0, max_value=dim - 1))] = data.draw(row_floats)
    weights = rng.uniform(1e-3, 1e3, size=dim)
    metric = _row_metric(kind, weights)
    with np.errstate(over="ignore"):  # the scalar k-d path overflows to inf too
        got = metric.distance_row(center, matrix)
        expected = np.array([metric.distance(center, m) for m in matrix], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (rows + 32,)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@pytest.mark.parametrize("dim", (1, 4))
@pytest.mark.parametrize("kind", ("euclidean", "weighted", "manhattan"))
def test_distance_row_of_no_rows_is_empty(kind, dim):
    row = _row_metric(kind, np.ones(dim)).distance_row(np.zeros(dim), np.zeros((0, dim)))
    assert row.dtype == np.float64 and row.shape == (0,)


def test_distance_row_is_vectorised_only_for_one_d_euclidean():
    assert EuclideanMetric.distance_row is not Metric.distance_row
    for metric_type in (ManhattanMetric, WeightedEuclideanMetric, MatrixMetric):
        assert metric_type.distance_row is Metric.distance_row


# ----------------------------------------------------------------------
# MatrixMetric
# ----------------------------------------------------------------------
def fig3_metric():
    """A Fig-3-style 5-node distance table (consistent with the axioms)."""
    return MatrixMetric(
        {
            ("a", "b"): 2, ("a", "c"): 4, ("a", "d"): 5, ("a", "e"): 1,
            ("b", "c"): 3, ("b", "d"): 4, ("b", "e"): 2,
            ("c", "d"): 6, ("c", "e"): 5,
            ("d", "e"): 5,
        }
    )


def test_matrix_metric_lookup_and_symmetry():
    metric = fig3_metric()
    assert metric.distance("a", "b") == 2
    assert metric.distance("b", "a") == 2
    assert metric.distance("c", "c") == 0


def test_matrix_metric_unknown_pair():
    metric = fig3_metric()
    with pytest.raises(KeyError):
        metric.distance("a", "z")


def test_matrix_metric_distance_row_loops_over_ids():
    metric = fig3_metric()
    row = metric.distance_row("a", ["a", "b", "c", "d", "e"])
    assert row.dtype == np.float64
    assert row.tolist() == [0.0, 2.0, 4.0, 5.0, 1.0]


def test_matrix_metric_rejects_triangle_violation():
    with pytest.raises(ValueError, match="triangle"):
        MatrixMetric({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5})


def test_matrix_metric_rejects_negative():
    with pytest.raises(ValueError):
        MatrixMetric({("a", "b"): -1})


def test_matrix_metric_rejects_nonzero_self_distance():
    with pytest.raises(ValueError):
        MatrixMetric({("a", "a"): 2})


def test_matrix_metric_theorem1_reduction_distances_are_metric():
    """The 1/2-valued distances of the clique-cover reduction satisfy the
    triangle inequality (values in {1, 2} always do)."""
    rng = np.random.default_rng(0)
    names = [f"v{i}" for i in range(6)]
    table = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            table[(a, b)] = 1 if rng.random() < 0.5 else 2
    MatrixMetric(table)  # construction runs the triangle check


def test_check_metric_axioms_catches_violation():
    class Broken(EuclideanMetric):
        def distance(self, a, b):
            return -1.0

    with pytest.raises(AssertionError):
        check_metric_axioms(Broken(), [np.zeros(2), np.ones(2)])
