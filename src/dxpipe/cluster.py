"""Seeded k-means (k-means++ init, Lloyd iterations) over hash-bit vectors,
plus the dataset distribution report built on top of it.

Hash bits are embedded as 0.0/1.0 coordinates so centroids stay
well-defined; nearest-centroid ties break toward the lowest index, and a
cluster that loses all members is reseeded with the point farthest from its
nearest centroid.  Inertia is tracked after every assignment step and must
never increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dxpipe.fileio import csv_text
from dxpipe.image import load_pgm
from dxpipe.phash import phash
from dxpipe.synth import NUM_CLASSES, DatasetManifest


# Lloyd iterations before k-means stops unconverged
MAX_ITER = 100


class KMeansError(ValueError):
    """Raised when a Lloyd iteration breaks its own invariant (inertia rose)."""


@dataclass
class ClusterResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: list[float] = field(default_factory=list)


def hash_to_vector(h: int) -> np.ndarray:
    """Embed the 64 hash bits as a float vector (bit i -> coordinate i)."""
    return np.array([(h >> (63 - i)) & 1 for i in range(64)], dtype=np.float64)


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def kmeans(vectors: np.ndarray, k: int, seed: int = 0) -> ClusterResult:
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("vectors must be a nonempty 2-D array")
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")

    rng = np.random.default_rng(seed & (2**64 - 1))
    centroids = _plus_plus_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    it = 0
    for it in range(1, MAX_ITER + 1):
        d2 = _squared_distances(points, centroids)
        new_assignments = np.argmin(d2, axis=1)  # ties -> lowest index
        inertia = float(d2[np.arange(n), new_assignments].sum())
        if history and inertia > history[-1] + 1e-9:
            raise KMeansError(
                f"k-means inertia increased from {history[-1]!r} to {inertia!r} "
                f"at iteration {it}"
            )
        history.append(inertia)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

        for c in range(k):
            members = points[assignments == c]
            if len(members) > 0:
                centroids[c] = members.mean(axis=0)
            else:
                # reseed with the point farthest from its nearest centroid
                nearest = _squared_distances(points, centroids).min(axis=1)
                centroids[c] = points[int(np.argmax(nearest))]

    d2 = _squared_distances(points, centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusterResult(
        assignments=assignments,
        centroids=centroids,
        inertia=inertia,
        n_iter=it,
        inertia_history=history,
    )


@dataclass
class ClusterReport:
    rows: list[tuple[str, int, int, str]]  # path, class_id, cluster, hash hex
    contingency: np.ndarray  # k x NUM_CLASSES
    result: ClusterResult


def cluster_report(manifest: DatasetManifest, k: int, seed: int = 0) -> ClusterReport:
    """Hash every image, cluster the hashes, and tabulate cluster vs class."""
    hashes = [phash(load_pgm(manifest.resolve(e))) for e in manifest.entries]
    vectors = np.stack([hash_to_vector(h) for h in hashes])
    result = kmeans(vectors, k, seed=seed)
    rows = [
        (e.path, e.class_id, int(result.assignments[i]), f"{hashes[i]:016x}")
        for i, e in enumerate(manifest.entries)
    ]
    contingency = np.zeros((k, NUM_CLASSES), dtype=np.int64)
    for _, cid, cluster, _ in rows:
        contingency[cluster, cid] += 1
    return ClusterReport(rows=rows, contingency=contingency, result=result)


def report_to_csv(report: ClusterReport) -> str:
    return csv_text(["path", "class_id", "cluster", "phash"], report.rows)


def contingency_to_csv(report: ClusterReport) -> str:
    return csv_text(
        ["cluster"] + [f"class_{c}" for c in range(NUM_CLASSES)],
        ([c] + [int(v) for v in row] for c, row in enumerate(report.contingency)),
    )
