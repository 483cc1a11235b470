"""Slow reference implementations the production modules are checked against.

The point of everything in here is to be obviously correct rather than
fast: exhaustive enumeration with only provably lossless skips, so that a
divergence from the production output always points at the production code.
"""

from __future__ import annotations

import math

import numpy as np

from statefuzz.cutset import MODE_ABSENT, MODE_COLUMN, MODE_VARIES, TableRow, TruthTable
from statefuzz.sutmodel import TICK_MS


# ---------------------------------------------------------------------------
# flight simulation, one hop per 10 ms grid tick
# ---------------------------------------------------------------------------


def grid_advance_until(vehicle, t_target, stop_state):
    """Vehicle.advance_until as a plain grid loop: every handler on every hop.

    Hops land on each 10 ms grid tick, each timer instant and t_target; the
    stop check runs after each hop.
    """
    while not vehicle.finished and vehicle.t + 1e-9 < t_target:
        next_grid = (math.floor(vehicle.t / TICK_MS) + 1) * TICK_MS
        hop = min(t_target, next_grid, vehicle._next_timer())
        dt = hop - vehicle.t
        vehicle._integrate(dt)
        vehicle.t = hop
        vehicle._fire_timers()
        vehicle._sample_deviation(dt / 1000.0)
        vehicle._check_geofence()
        vehicle._check_degraded()
        vehicle._phase_step()
        vehicle._check_ceiling()
        if stop_state is not None and vehicle.app is stop_state:
            return


# ---------------------------------------------------------------------------
# k-means distances and seeding over the whole (n, k, d) difference array
# ---------------------------------------------------------------------------


def broadcast_sq_dists(X, centroids):
    """analysis._sq_dists in one broadcast: every point minus every centroid."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def plus_plus_init(X, k, rng):
    """analysis._plus_plus_init taking, for each pick, every point's distance
    to every centroid picked so far."""
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(broadcast_sq_dists(X, np.array(centroids)), axis=1)
        total = d2.sum()
        if total <= 0.0:
            centroids.append(X[rng.integers(n)])
            continue
        centroids.append(X[rng.choice(n, p=d2 / total)])
    return np.array(centroids, dtype=float)


# ---------------------------------------------------------------------------
# minimal failing conjunctions, by exhaustive search
# ---------------------------------------------------------------------------


def brute_minimize(table):
    """Every minimal always-failing conjunction of the table, after dominance.

    Semantics mirrored from the production contract:

      * candidate literals are (column, value) pairs where value is taken by
        at least one always-failing row; the synthetic mode markers ("*", "-")
        never become literals;
      * a conjunction is sufficient when it covers at least one row and every
        covered row always fails;
      * it is minimal when removing any single literal breaks sufficiency;
      * a minimal conjunction whose covered-row set is a strict subset of
        another kept one is dropped (coverage dominance).

    The search walks every subset of the literal pool with at most one
    literal per column, depth-first. Two skips are applied, both lossless:
    a conjunction covering zero rows stays empty under any extension, and a
    superset of a sufficient conjunction can never be minimal.
    """
    rows = table.rows
    n = len(rows)
    failing = 0
    for i, row in enumerate(rows):
        if row.always_fails:
            failing |= 1 << i
    all_mask = (1 << n) - 1
    if rows and failing == all_mask:
        return [()]
    if not failing:
        return []

    columns = list(table.axes)
    if table.has_mode_column():
        columns.append(MODE_COLUMN)
    pool = []
    for column in columns:
        values = set()
        for i, row in enumerate(rows):
            if not failing >> i & 1:
                continue
            value = row.value_of(column)
            if column == MODE_COLUMN and value in (MODE_VARIES, MODE_ABSENT):
                continue
            values.add(value)
        pool.extend((column, value) for value in sorted(values))

    masks = {}
    for literal in pool:
        m = 0
        for i, row in enumerate(rows):
            if row.value_of(literal[0]) == literal[1]:
                m |= 1 << i
        masks[literal] = m
    nonfailing = all_mask ^ failing

    def sufficient(mask):
        return mask != 0 and mask & nonfailing == 0

    found = []

    def walk(conj, mask, start):
        for idx in range(start, len(pool)):
            literal = pool[idx]
            if any(literal[0] == column for column, _ in conj):
                continue
            m = mask & masks[literal]
            if m == 0:
                continue
            cand = conj + (literal,)
            if sufficient(m):
                found.append((cand, m))
            else:
                walk(cand, m, idx + 1)

    walk((), all_mask, 0)

    def conj_mask(conj):
        m = all_mask
        for literal in conj:
            m &= masks[literal]
        return m

    minimal = []
    for conj, mask in found:
        if all(
            not sufficient(conj_mask(tuple(l for l in conj if l != dropped)))
            for dropped in conj
        ):
            minimal.append((conj, mask))

    def popcount(m):
        return bin(m).count("1")

    ordered = sorted(minimal, key=lambda cm: (-popcount(cm[1]), len(cm[0]), cm[0]))
    kept = []
    for conj, mask in ordered:
        # drop when a kept conjunction already explains every covered row
        # (equal coverage included: the later one adds no failing evidence)
        if any(mask & seen == mask for _, seen in kept):
            continue
        kept.append((conj, mask))
    result = [conj for conj, _ in kept]
    result.sort(key=lambda c: (len(c), c))
    return result


def random_table(rng):
    """A random truth table over up to twelve binary predicate columns.

    Row cells are sampled assignments (as in a fuzzing sweep), not the full
    cube; each row gets a random run/valid/failure split so tables mix
    always-failing, sometimes-failing, clean, and unreachable cells.
    """
    n_columns = rng.choice([1, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10, 12])
    axes = tuple(f"p{i}" for i in range(n_columns))
    with_mode = rng.random() < 0.4
    rows = []
    seen = set()
    for _ in range(rng.randint(1, 24)):
        values = tuple((a, rng.choice(["0", "1"])) for a in axes)
        if with_mode:
            mode = rng.choice(["M0", "M1", MODE_VARIES, MODE_ABSENT])
        else:
            mode = MODE_ABSENT
        key = (values, mode)
        if key in seen:
            continue
        seen.add(key)
        runs = rng.randint(1, 6)
        valid = rng.randint(0, runs)
        failures = rng.randint(0, valid) if valid else 0
        rows.append(
            TableRow(
                values=values,
                observed_mode=mode,
                runs=runs,
                valid=valid,
                failures=failures,
                split=False,
                residual=False,
                test_ids=(),
            )
        )
    return TruthTable(scope="TAKEOFF", axes=axes, rows=tuple(rows))


# ---------------------------------------------------------------------------
# single-point reassignment, one point at a time
# ---------------------------------------------------------------------------


def pointwise_reassignment_polish(X, labels, k):
    """analysis._reassignment_polish as a plain loop: every point, every cluster.

    Lloyd's fixed points are only centroid-stable; moving one point can
    still lower the total WCSS once the centroid shifts it causes are
    priced in (remove x from cluster a of size n_a: gain n_a/(n_a-1)
    times its squared distance; add to b: cost n_b/(n_b+1) times). The
    sweeps accept strictly improving moves until none is left, which
    escapes the local minima Lloyd cannot.
    """
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, X.shape[1]))
    for j in range(k):
        sums[j] = X[labels == j].sum(axis=0)
    for _ in range(200):
        moved = False
        for i in range(X.shape[0]):
            a = labels[i]
            if counts[a] <= 1:
                continue  # never empty a cluster
            x = X[i]
            off_a = x - sums[a] / counts[a]
            gain = counts[a] / (counts[a] - 1) * float(off_a @ off_a)
            best_delta, best_b = 1e-12, -1
            for b in range(k):
                if b == a:
                    continue
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
        if not moved:
            break
    return labels


# ---------------------------------------------------------------------------
# globally optimal k-means objective, by exhaustive partition enumeration
# ---------------------------------------------------------------------------


def exhaustive_best_wcss(points, k):
    """Minimum within-cluster sum of squares over all partitions into at
    most k non-empty parts.

    Enumerates restricted growth strings, carrying per-part running count,
    coordinate sum and squared norm so each complete assignment is scored in
    O(k d). Splitting a part never increases the objective, so the minimum
    over "at most k" equals the minimum over "exactly k" whenever k <= n,
    which is what Lloyd iterations can reach.
    """
    X = np.asarray(points, dtype=float)
    n, d = X.shape
    sq = (X * X).sum(axis=1)
    counts = [0] * k
    sums = [np.zeros(d) for _ in range(k)]
    sqsums = [0.0] * k
    best = [math.inf]

    def score():
        total = 0.0
        for j in range(k):
            if counts[j]:
                total += sqsums[j] - float((sums[j] * sums[j]).sum()) / counts[j]
        return total

    def place(i, used):
        if i == n:
            best[0] = min(best[0], score())
            return
        for j in range(min(used + 1, k)):
            counts[j] += 1
            sums[j] += X[i]
            sqsums[j] += sq[i]
            place(i + 1, max(used, j + 1))
            counts[j] -= 1
            sums[j] -= X[i]
            sqsums[j] -= sq[i]

    place(0, 0)
    return best[0]
