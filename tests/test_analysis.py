"""Failure encoding, K-means, elbow selection, representatives."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statefuzz import analysis
from statefuzz.analysis import (
    FAILURE_REASONS,
    ClusterModel,
    Encoded,
    analyze_failures,
    encode_failures,
    kmeans,
    select_k,
    select_representatives,
    sweep_k,
)
from statefuzz.errors import DegenerateK, EmptyFailureSet
from statefuzz.oracle import FAILURE, Leaf, Verdict, default_tree
from statefuzz.sutmodel import AppState

from helpers import make_case
from reference import (
    broadcast_sq_dists,
    exhaustive_best_wcss,
    plus_plus_init,
    pointwise_reassignment_polish,
)

FAIL = Verdict("FAILURE", "mode-change-ignored")


def failing(test_id, state=AppState.TAKEOFF, action="POSCTL", delay=100.0, reason="mode-change-ignored"):
    case = make_case(app_state=state, action=action, delay_ms=delay, test_id=test_id)
    return case, Verdict("FAILURE", reason)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def failure_leaf_reasons(part) -> set[str]:
    if isinstance(part, Leaf):
        return {part.reason} if part.verdict == FAILURE else set()
    return failure_leaf_reasons(part.on_true) | failure_leaf_reasons(part.on_false)


@pytest.mark.parametrize("version", ["v0", "v1"])
def test_failure_reasons_are_the_oracle_failure_leaves(version):
    # a reason the oracle can give but the encoding lacks would encode as
    # an all-zero one-hot
    assert len(set(FAILURE_REASONS)) == len(FAILURE_REASONS)
    assert set(FAILURE_REASONS) == failure_leaf_reasons(default_tree(version))


def test_feature_names_are_spec_derived(spec):
    enc = encode_failures([failing("t1")], spec)
    expected = ["delay_norm"]
    expected += [
        "state=TAKEOFF",
        "state=FLYING_TO_WAYPOINT",
        "state=HOVERING",
        "state=LANDING",
        "state=DISARMING",
    ]
    expected += ["mode=OFFBOARD", "mode=LAND"]
    expected += ["action=ALTCTL", "action=POSCTL", "action=STABILIZED"]
    # all environment axes are single-level in this spec: no columns for them
    expected += [f"reason={r}" for r in FAILURE_REASONS]
    assert list(enc.feature_names) == expected
    assert enc.matrix.shape == (1, len(expected))


def test_encoding_one_hots_and_delay_norm(spec):
    enc = encode_failures(
        [failing("t1", state=AppState.HOVERING, action="STABILIZED", delay=625.0)], spec
    )
    row = dict(zip(enc.feature_names, enc.matrix[0]))
    assert row["delay_norm"] == pytest.approx(0.5)  # bands span 50..1200
    assert row["state=HOVERING"] == 1.0
    assert row["state=TAKEOFF"] == 0.0
    assert row["action=STABILIZED"] == 1.0
    assert row["reason=mode-change-ignored"] == 1.0
    assert sum(v for k, v in row.items() if k.startswith("state=")) == 1.0


def test_delay_norm_is_clamped(spec):
    enc = encode_failures([failing("t1", delay=9000.0), failing("t2", delay=1.0)], spec)
    assert enc.matrix[0][0] == 1.0
    assert enc.matrix[1][0] == 0.0


def test_environment_axis_needs_multiple_levels(spec):
    from statefuzz.fuzzspec import parse_fuzz_spec

    from conftest import small_spec_raw

    raw = small_spec_raw()
    raw["ENVIRONMENT"]["wind"] = ["none", "high"]
    windy_spec = parse_fuzz_spec(raw, spec_id="s")
    enc = encode_failures([failing("t1")], windy_spec)
    assert "wind=none" in enc.feature_names
    assert "wind=high" in enc.feature_names
    assert "throttle=mid" not in enc.feature_names


def test_only_failures_are_encoded(spec):
    ok = (make_case(test_id="s1"), Verdict("SUCCESS", "action-honored"))
    bad = failing("t1")
    enc = encode_failures([ok, bad], spec)
    assert enc.test_ids == ("t1",)
    with pytest.raises(EmptyFailureSet):
        encode_failures([ok], spec)


# ---------------------------------------------------------------------------
# k-means machinery
# ---------------------------------------------------------------------------


def blobs(rng, centers, per=10, scale=0.05):
    pts = []
    for c in centers:
        pts.extend(np.asarray(c) + rng.normal(0, scale, size=(per, len(c))))
    return np.array(pts)


def test_kmeans_separates_obvious_blobs():
    rng = np.random.default_rng(1)
    X = blobs(rng, [(0.0, 0.0), (10.0, 10.0)])
    model = kmeans(X, 2, seed=0)
    first, second = model.labels[:10], model.labels[10:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert set(first) != set(second)
    assert model.wcss < 1.0


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X = blobs(rng, [(0, 0), (5, 5), (9, 0)], per=6)
    a = kmeans(X, 3, seed=4)
    b = kmeans(X, 3, seed=4)
    assert a.labels == b.labels
    assert a.wcss == b.wcss


def test_kmeans_rejects_degenerate_k():
    X = np.zeros((4, 2))
    with pytest.raises(DegenerateK):
        kmeans(X, 0)
    with pytest.raises(DegenerateK):
        kmeans(X, 5)


def test_kmeans_handles_duplicate_points():
    X = np.array([[1.0, 1.0]] * 6 + [[4.0, 4.0]] * 2)
    model = kmeans(X, 2, seed=0)
    assert model.wcss == pytest.approx(0.0, abs=1e-12)


def test_sweep_wcss_is_monotone_nonincreasing():
    rng = np.random.default_rng(7)
    X = rng.random((40, 6))
    models = sweep_k(X, 10, seed=3, restarts=4)
    curve = [m.wcss for m in models]
    assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))
    assert [m.k for m in models] == list(range(1, 11))


def test_kmeans_matches_exhaustive_optimum_spot_check():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 3))
    for k in (1, 2, 3):
        model = kmeans(X, k, seed=0, restarts=50)
        assert model.wcss == pytest.approx(exhaustive_best_wcss(X, k), abs=1e-9)


# ---------------------------------------------------------------------------
# elbow selection
# ---------------------------------------------------------------------------


def fake_models(wcss_values):
    return [
        ClusterModel(k=i + 1, labels=(), centroids=np.zeros((i + 1, 1)), wcss=float(w))
        for i, w in enumerate(wcss_values)
    ]


def test_select_k_finds_a_sharp_elbow():
    assert select_k(fake_models([100.0, 10.0, 9.0, 8.5, 8.4])) == 2
    assert select_k(fake_models([50.0, 40.0, 5.0, 4.0])) == 3


def test_select_k_flat_curve_falls_back_to_one():
    assert select_k(fake_models([5.0, 5.0, 5.0])) == 1


def test_select_k_linear_curve_has_no_elbow():
    # every point sits on the chord, so the smallest K wins
    assert select_k(fake_models([100.0, 99.0, 98.0, 97.0])) == 1


def test_select_k_single_model():
    assert select_k(fake_models([42.0])) == 1


def test_select_k_tie_resolves_to_smaller_k():
    # symmetric curve: K=2 and K=3 are equally far from the chord
    assert select_k(fake_models([10.0, 6.0, 2.0, 1.0, 0.0])) <= 3


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------


def test_representatives_pick_extremes_per_cluster():
    X = np.array([[0.0], [0.2], [1.0], [10.0], [10.4]])
    enc = Encoded(matrix=X, feature_names=("x",), test_ids=("a", "b", "c", "d", "e"))
    model = ClusterModel(
        k=2,
        labels=(0, 0, 0, 1, 1),
        centroids=np.array([[0.4], [10.2]]),
        wcss=0.0,
    )
    reps = select_representatives(model, enc)
    assert [r.cluster for r in reps] == [0, 1]
    assert reps[0].closest == "b"   # |0.2-0.4| is the smallest
    assert reps[0].farthest == "c"
    # both members of cluster 1 are 0.2 away: lexicographic id breaks the tie
    assert reps[1].closest == "d"
    assert reps[1].farthest == "d"


def test_representatives_skip_empty_clusters():
    X = np.array([[0.0], [0.1]])
    enc = Encoded(matrix=X, feature_names=("x",), test_ids=("a", "b"))
    model = ClusterModel(k=2, labels=(0, 0), centroids=np.array([[0.05], [99.0]]), wcss=0.0)
    reps = select_representatives(model, enc)
    assert [r.cluster for r in reps] == [0]


# ---------------------------------------------------------------------------
# reassignment polish against the point-by-point loop
# ---------------------------------------------------------------------------


def polish_matrix(rng, kind, n, d):
    if kind == "encoded":
        # a clamped delay column and two one-hot groups, as encode_failures builds
        X = np.zeros((n, d + 4))
        X[:, 0] = np.round(rng.random(n), 1)
        X[np.arange(n), 1 + rng.integers(0, 3, n)] = 1.0
        X[np.arange(n), 4 + rng.integers(0, d, n)] = 1.0
        return X
    if kind == "duplicates":
        prototypes = (rng.random((3, d)) < 0.5).astype(float)
        return prototypes[rng.integers(0, 3, n)]
    if kind == "near-tie":
        # a coarse grid: many points equidistant from two cluster means
        return rng.integers(0, 3, (n, min(d, 3))) / 2.0
    if kind == "tiny":
        # gains of about 1e-10, close above the 1e-12 a move must beat
        return rng.random((n, d)) * 1e-5
    return rng.random((n, d))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    kind=st.sampled_from(["encoded", "duplicates", "near-tie", "continuous", "tiny"]),
    n=st.integers(min_value=5, max_value=150),
    k=st.integers(min_value=2, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.sampled_from([1, 7, analysis.SCREEN_ROWS]),
)
def test_screened_polish_matches_pointwise_loop(kind, n, k, d, seed, rows):
    rng = np.random.default_rng(seed)
    X = polish_matrix(rng, kind, n, d)
    k = min(k, n)
    labels = rng.integers(0, k, n)  # may leave a cluster empty
    with np.errstate(invalid="ignore"):  # the loop divides by an empty cluster's count
        expected = pointwise_reassignment_polish(X, labels, k)
    with mock.patch.object(analysis, "SCREEN_ROWS", rows):
        got = analysis._reassignment_polish(X, labels, k)
    assert np.array_equal(got, expected)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["encoded", "duplicates", "near-tie", "continuous", "tiny"]),
    n=st.integers(min_value=1, max_value=150),
    k=st.integers(min_value=1, max_value=10),
    d=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    column_rows=st.sampled_from([0, 40, analysis.COLUMN_ROWS]),
)
def test_distances_and_seeding_match_the_broadcast_reference(kind, n, k, d, seed, column_rows):
    # one centroid column at a time sums each distance in the broadcast's
    # order, so the results are bit-identical, not merely close
    X = polish_matrix(np.random.default_rng(seed), kind, n, d)
    k = min(k, n)
    with mock.patch.object(analysis, "COLUMN_ROWS", column_rows):
        start = analysis._plus_plus_init(X, k, analysis._restart_rng(seed, k, 0))
        dists = analysis._sq_dists(X, start)
    assert np.array_equal(start, plus_plus_init(X, k, analysis._restart_rng(seed, k, 0)))
    assert np.array_equal(dists, broadcast_sq_dists(X, start))


# ---------------------------------------------------------------------------
# the full stage
# ---------------------------------------------------------------------------


def test_analyze_failures_structure(spec):
    items = []
    for i in range(12):
        items.append(failing(f"a{i:02d}", state=AppState.TAKEOFF, action="POSCTL", delay=100.0 + i))
    for i in range(12):
        items.append(
            failing(
                f"b{i:02d}",
                state=AppState.HOVERING,
                action="STABILIZED",
                delay=700.0 + i,
                reason="unexpected-mode",
            )
        )
    result = analyze_failures(items, spec, seed=0, restarts=5)
    curve = [w for _, w in result.wcss_curve]
    assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))
    assert 1 <= result.k <= 10
    assert set(result.model.labels) == set(range(result.k))
    assert len(result.representatives) == result.k
    assignments = dict(zip(result.encoded.test_ids, result.model.labels))
    for rep in result.representatives:
        assert assignments[rep.closest] == rep.cluster
        assert assignments[rep.farthest] == rep.cluster

    raw = result.to_dict()
    assert raw["n_failures"] == 24
    assert raw["k"] == result.k
    assert raw["wcss"] == result.model.wcss
    assert len(raw["assignments"]) == 24
    assert raw["wcss_curve"] == [[k, w] for k, w in result.wcss_curve]


def test_analyze_failures_caps_k_by_distinct_rows(spec):
    items = [failing(f"t{i}", delay=100.0) for i in range(9)]
    # every row identical: the sweep cannot go past K=1
    result = analyze_failures(items, spec, seed=0)
    assert result.k == 1
    assert len(result.wcss_curve) == 1
    assert result.model.wcss == pytest.approx(0.0, abs=1e-12)


def test_analyze_failures_respects_k_max(spec):
    items = [failing(f"t{i}", delay=50.0 + i * 90.0) for i in range(10)]
    result = analyze_failures(items, spec, seed=1, k_max=3, restarts=3)
    assert len(result.wcss_curve) == 3
    assert result.k <= 3
