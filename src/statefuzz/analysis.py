"""Failure clustering: feature encoding, K-means, elbow selection.

Only failing runs are encoded. A feature vector is built from the test's
own parameters (normalized delay plus one-hot state, mode, action, any
environment factor the spec actually varies) and the oracle's reason code;
telemetry traces stay out of the geometry. K-means is Lloyd with
k-means++ seeding and restarts, each restart polished by single-point
reassignment sweeps; K is chosen by the max-distance-to-chord elbow over
a monotone WCSS curve. Each cluster then names its centroid-closest and
centroid-farthest test; the closest is the one the CLI re-fuzzes, the
farthest is recorded in analysis.json for inspection only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateK, EmptyFailureSet
from .fuzzspec import ENV_AXES, FuzzSpecification
from .oracle import FAILURE, Verdict
from .testgen import TestCase, axis_levels

#: selection restarts per K on the elbow sweep
DEFAULT_RESTARTS = 10

#: default cap for the elbow sweep; fewer distinct rows lower it
MAX_K = 10

#: points per numpy screen of the reassignment polish; bounds the screen's
#: (rows, K, features) temporary to about 0.6 MB at K=10 and 30 features
SCREEN_ROWS = 256

#: relative slack of that screen (see _reassignment_polish)
SCREEN_SLACK = 1e-9

#: points from which _sq_dists takes one centroid at a time: on fewer, its
#: one (n, K, features) difference array costs less than K numpy calls
#: (analyze_failures, alternating in process: columns lose up to 300 points,
#: tie at 400, win from 500; BENCH_18.json "crossover")
COLUMN_ROWS = 512

#: closed set of failure reason codes the default trees can emit
FAILURE_REASONS = (
    "mode-change-ignored",
    "mode-change-delayed",
    "unexpected-mode",
    "thrashing",
    "mode-oscillation",
    "path-deviation",
    "mission-incomplete",
    "disarm-failure",
    "failsafe-mismatch",
)


@dataclass(frozen=True)
class Encoded:
    """A failure set as a dense matrix plus its column/row naming."""

    matrix: np.ndarray            # (n_failures, n_features)
    feature_names: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass(frozen=True)
class ClusterModel:
    k: int
    labels: tuple[int, ...]
    centroids: np.ndarray
    wcss: float


@dataclass(frozen=True)
class ClusterRepresentatives:
    """A cluster's centroid-closest and centroid-farthest test.

    Focused re-fuzzing uses only ``closest``; ``farthest`` shows how wide
    the cluster is.
    """

    cluster: int
    closest: str
    farthest: str

    def to_dict(self) -> dict:
        return {"cluster": self.cluster, "closest": self.closest, "farthest": self.farthest}


@dataclass(frozen=True)
class AnalysisResult:
    encoded: Encoded
    wcss_curve: tuple[tuple[int, float], ...]
    k: int
    model: ClusterModel
    representatives: tuple[ClusterRepresentatives, ...]

    def to_dict(self) -> dict:
        return {
            "n_failures": len(self.encoded.test_ids),
            "feature_names": list(self.encoded.feature_names),
            "wcss_curve": [[k, w] for k, w in self.wcss_curve],
            "k": self.k,
            "wcss": self.model.wcss,
            "assignments": {
                tid: int(label)
                for tid, label in zip(self.encoded.test_ids, self.model.labels)
            },
            "representatives": [r.to_dict() for r in self.representatives],
        }


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def encode_failures(
    items: Sequence[tuple[TestCase, Verdict]],
    spec: FuzzSpecification,
) -> Encoded:
    """Encode every FAILURE-verdict test into a feature vector.

    Normalization bounds come from the spec's bands, not the sample, so
    two campaigns over the same spec share a geometry.
    """
    failures = [(t, v) for t, v in items if v.verdict == FAILURE]
    if not failures:
        raise EmptyFailureSet("no FAILURE verdicts to cluster")

    lo, hi = spec.environment.delay_bounds()
    span = hi - lo
    state_vocab = [t.state.value for t in spec.states]
    mode_vocab = [m.value for m in spec.modes]
    action_vocab = [a.value for a in spec.actions]
    env_axes = [(axis, axis_levels(spec, axis)) for axis in ENV_AXES]

    names: list[str] = ["delay_norm"]
    names += [f"state={s}" for s in state_vocab]
    names += [f"mode={m}" for m in mode_vocab]
    names += [f"action={a}" for a in action_vocab]
    for axis, levels in env_axes:
        if len(levels) > 1:
            names += [f"{axis}={lvl}" for lvl in levels]
    names += [f"reason={r}" for r in FAILURE_REASONS]

    rows: list[list[float]] = []
    ids: list[str] = []
    for test, verdict in failures:
        row = [min(1.0, max(0.0, (test.delay_ms - lo) / span))]
        row += [1.0 if test.app_state.value == s else 0.0 for s in state_vocab]
        row += [1.0 if test.target_mode.value == m else 0.0 for m in mode_vocab]
        row += [1.0 if test.action == a else 0.0 for a in action_vocab]
        env = test.env()
        for axis, levels in env_axes:
            if len(levels) > 1:
                row += [1.0 if env[axis] == lvl else 0.0 for lvl in levels]
        row += [1.0 if verdict.reason == r else 0.0 for r in FAILURE_REASONS]
        rows.append(row)
        ids.append(test.test_id)

    return Encoded(
        matrix=np.array(rows, dtype=float),
        feature_names=tuple(names),
        test_ids=tuple(ids),
    )


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared Euclidean distances; both ways sum each
    distance in the same order, so they give the same bits."""
    if X.shape[0] < COLUMN_ROWS:
        diff = X[:, None, :] - centroids[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)
    out = np.empty((len(centroids), X.shape[0]))
    for j, centroid in enumerate(centroids):
        diff = X - centroid
        out[j] = np.einsum("nd,nd->n", diff, diff)
    return out.T


def _wcss(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = X - centroids[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds; d2 keeps each point's squared distance to its nearest seed."""
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, _sq_dists(X, centroids[-1][None])[:, 0])
        total = d2.sum()
        if total <= 0.0:
            centroids.append(X[rng.integers(n)])
            continue
        probs = d2 / total
        centroids.append(X[rng.choice(n, p=probs)])
    return np.array(centroids, dtype=float)


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int = 300) -> ClusterModel:
    k = centroids.shape[0]
    labels = np.argmin(_sq_dists(X, centroids), axis=1)
    previous = _wcss(X, centroids, labels)
    for _ in range(max_iter):
        for j in range(k):
            members = X[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # re-seat an empty cluster on the worst-served point
                far = np.argmax(np.min(_sq_dists(X, centroids), axis=1))
                centroids[j] = X[far]
        new_labels = np.argmin(_sq_dists(X, centroids), axis=1)
        current = _wcss(X, centroids, new_labels)
        assert current <= previous + 1e-9, "Lloyd iteration increased WCSS"
        previous = current
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return ClusterModel(
        k=k,
        labels=tuple(labels.tolist()),
        centroids=centroids,
        wcss=_wcss(X, centroids, labels),
    )


def _possible_movers(block: np.ndarray, block_labels: np.ndarray, sums: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """Rows of block that may improve by a single-point move, in one numpy pass.

    Screens the test of _reassignment_polish under the given cluster sums
    and counts, with SCREEN_SLACK to spare (see there).
    """
    filled = counts > 0
    d2 = _sq_dists(block, sums / np.where(filled, counts, 1.0)[:, None])
    rows = np.arange(block.shape[0])
    n_a = counts[block_labels]
    gain = n_a / np.maximum(n_a - 1, 1.0) * d2[rows, block_labels]
    cost = counts / (counts + 1) * d2
    cost[:, ~filled] = np.inf
    cost[rows, block_labels] = np.inf
    best = cost.min(axis=1)
    slack = SCREEN_SLACK * (1.0 + gain + best)
    return np.flatnonzero((n_a > 1) & (gain - best > 1e-12 - slack))


def _reassignment_polish(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Single-point reassignment sweeps over a converged partition.

    Lloyd's fixed points are only centroid-stable; moving one point can
    still lower the total WCSS once the centroid shifts it causes are
    priced in (remove x from cluster a of size n_a: gain n_a/(n_a-1)
    times its squared distance; add to b: cost n_b/(n_b+1) times). A
    sweep visits the points in order and moves each to the cluster with
    the largest gain - cost above 1e-12 (the first such cluster on a tie),
    never emptying a cluster; sweeps repeat until none moves, which
    escapes the local minima Lloyd cannot (Hartigan & Wong, 1979).

    Within a sweep the cluster sums and counts change only when a point
    moves, so every point between two moves is judged under one state.
    _possible_movers screens the next SCREEN_ROWS points under that state
    and only the points it flags take the scalar test, in order. The
    first that moves changes the state and the screen restarts after it;
    a flagged point that stays changes nothing, so the other verdicts of
    the screen still hold. A sweep without moves is one screen per block.

    The screen sums squares in another order than the scalar dot product.
    Each squared distance is a sum of d nonnegative terms, so either
    order is within d * 2**-53 of the exact value relative to it, and the
    two values of gain - cost differ by at most about
    2d * 2**-53 * (gain + cost). The encoded features lie in [0, 1], so a
    squared distance is at most d and the difference is below 1e-12. The
    screen flags gain - cost > 1e-12 - SCREEN_SLACK * (1 + gain + cost),
    which covers any d below about 10**6: it never drops a point the
    scalar test moves, and the moves, hence the labels, are exactly those
    of the plain point-by-point loop.
    """
    labels = labels.copy()
    n = X.shape[0]
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, X.shape[1]))
    for j in range(k):
        sums[j] = X[labels == j].sum(axis=0)
    for _ in range(200):
        moved = False
        start = 0
        while start < n:
            stop = min(start + SCREEN_ROWS, n)
            flagged = _possible_movers(X[start:stop], labels[start:stop], sums, counts)
            next_start = stop
            for i in start + flagged:
                a = labels[i]
                x = X[i]
                off_a = x - sums[a] / counts[a]
                gain = counts[a] / (counts[a] - 1) * float(off_a @ off_a)
                best_delta, best_b = 1e-12, -1
                for b in range(k):
                    if b == a or not counts[b]:
                        continue  # an empty cluster has no mean to join
                    off_b = x - sums[b] / counts[b]
                    cost = counts[b] / (counts[b] + 1) * float(off_b @ off_b)
                    if gain - cost > best_delta:
                        best_delta, best_b = gain - cost, b
                if best_b >= 0:
                    sums[a] -= x
                    counts[a] -= 1
                    sums[best_b] += x
                    counts[best_b] += 1
                    labels[i] = best_b
                    moved = True
                    next_start = i + 1
                    break
            start = next_start
        if not moved:
            break
    return labels


def _polished_lloyd(X: np.ndarray, start: np.ndarray) -> ClusterModel:
    """Alternate Lloyd with reassignment polish until neither improves."""
    model = _lloyd(X, start)
    for _ in range(50):
        labels = _reassignment_polish(X, np.array(model.labels), model.k)
        if tuple(labels.tolist()) == model.labels:
            return model
        centroids = np.array([X[labels == j].mean(axis=0) for j in range(model.k)])
        improved = _lloyd(X, centroids)
        assert improved.wcss <= model.wcss + 1e-9, "polish increased WCSS"
        if improved.wcss >= model.wcss - 1e-12:
            return model
        model = improved
    return model


def _restart_rng(seed: int, k: int, restart: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed * 100_003 + k * 101 + restart))


def kmeans(
    X: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    warm_start: Optional[np.ndarray] = None,
) -> ClusterModel:
    """Best ClusterModel over seeded k-means++ restarts (plus a warm start).

    Every restart is polished with single-point reassignment sweeps
    after Lloyd converges.
    """
    n = X.shape[0]
    if k < 1 or k > n:
        raise DegenerateK(f"k must be in [1, {n}], got {k}")
    best: Optional[ClusterModel] = None
    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(np.array(warm_start, dtype=float))
    starts += [_plus_plus_init(X, k, _restart_rng(seed, k, r)) for r in range(restarts)]
    for start in starts:
        model = _polished_lloyd(X, start.copy())
        if best is None or model.wcss < best.wcss - 1e-12:
            best = model
    assert best is not None
    return best


def sweep_k(
    X: np.ndarray,
    k_max: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> list[ClusterModel]:
    """Models for K=1..k_max with a warm start that forces monotone WCSS.

    Each K is seeded with the previous best centroids plus the point
    farthest from them; that candidate can only lower WCSS, so the curve
    never rises even when fresh restarts are unlucky.
    """
    models: list[ClusterModel] = []
    warm: Optional[np.ndarray] = None
    for k in range(1, k_max + 1):
        model = kmeans(X, k, seed=seed, restarts=restarts, warm_start=warm)
        models.append(model)
        far = np.argmax(np.min(_sq_dists(X, model.centroids), axis=1))
        warm = np.vstack([model.centroids, X[far]])
    return models


def select_k(models: Sequence[ClusterModel]) -> int:
    """Elbow: K whose point on the WCSS curve is farthest from the chord.

    Distances are computed on the normalized curve so the choice is scale
    free; ties and flat curves resolve to the smallest K.
    """
    if len(models) == 1:
        return models[0].k
    ks = np.array([m.k for m in models], dtype=float)
    ws = np.array([m.wcss for m in models], dtype=float)
    k_span = ks[-1] - ks[0]
    w_span = ws[0] - ws[-1]
    if w_span <= 1e-12:
        return models[0].k
    xs = (ks - ks[0]) / k_span
    ys = (ws - ws[-1]) / w_span
    # chord runs (0,1) -> (1,0); perpendicular distance ~ |x + y - 1|
    dists = np.round(np.abs(xs + ys - 1.0), 12)
    return models[int(np.argmax(dists))].k


def select_representatives(
    model: ClusterModel, encoded: Encoded
) -> tuple[ClusterRepresentatives, ...]:
    """Centroid-closest and centroid-farthest test of every cluster."""
    X = encoded.matrix
    labels = np.array(model.labels)
    reps: list[ClusterRepresentatives] = []
    for j in range(model.k):
        idx = np.where(labels == j)[0]
        if len(idx) == 0:
            continue
        d = np.sqrt(np.sum((X[idx] - model.centroids[j]) ** 2, axis=1))
        d = np.round(d, 12)
        members = [(float(d[i]), encoded.test_ids[idx[i]]) for i in range(len(idx))]
        closest = min(members, key=lambda m: (m[0], m[1]))[1]
        farthest = min(members, key=lambda m: (-m[0], m[1]))[1]
        reps.append(ClusterRepresentatives(cluster=j, closest=closest, farthest=farthest))
    return tuple(reps)


def analyze_failures(
    items: Sequence[tuple[TestCase, Verdict]],
    spec: FuzzSpecification,
    seed: int = 0,
    k_max: Optional[int] = None,
    restarts: int = DEFAULT_RESTARTS,
) -> AnalysisResult:
    """The whole clustering stage: encode, sweep, pick K, nominate tests."""
    encoded = encode_failures(items, spec)
    n_distinct = len({tuple(row) for row in encoded.matrix.tolist()})
    cap = min(k_max or MAX_K, n_distinct)
    models = sweep_k(encoded.matrix, cap, seed=seed, restarts=restarts)
    k = select_k(models)
    model = models[k - 1]
    return AnalysisResult(
        encoded=encoded,
        wcss_curve=tuple((m.k, m.wcss) for m in models),
        k=k,
        model=model,
        representatives=select_representatives(model, encoded),
    )
