import numpy as np
import pytest

from conftest import constant_image
from dxpipe import cluster
from dxpipe.cli import run
from dxpipe.cluster import (
    KMeansError,
    cluster_report,
    contingency_to_csv,
    hash_to_vector,
    kmeans,
    report_to_csv,
)
from dxpipe.image import load_pgm, save_pgm
from dxpipe.phash import phash
from dxpipe.synth import DatasetManifest, ManifestEntry


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(0)
    pts = rng.random((6, 4))
    res = kmeans(pts, k=6, seed=1)
    assert res.inertia == 0.0
    assert sorted(res.assignments.tolist()) == list(range(6))


def test_two_separated_groups_recovered():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 0.05, size=(12, 3))
    b = rng.normal(5.0, 0.05, size=(9, 3))
    pts = np.vstack([a, b])
    res = kmeans(pts, k=2, seed=3)
    la = set(res.assignments[:12].tolist())
    lb = set(res.assignments[12:].tolist())
    # brute force over both labelings: each group pure, labels distinct
    assert len(la) == 1 and len(lb) == 1 and la != lb


def test_k1_centroid_is_mean():
    rng = np.random.default_rng(2)
    pts = rng.random((20, 5))
    res = kmeans(pts, k=1, seed=0)
    np.testing.assert_allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)
    assert (res.assignments == 0).all()


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(3)
    pts = rng.random((30, 8))
    r1 = kmeans(pts, k=4, seed=9)
    r2 = kmeans(pts, k=4, seed=9)
    assert np.array_equal(r1.assignments, r2.assignments)
    np.testing.assert_array_equal(r1.centroids, r2.centroids)


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        bits = rng.integers(0, 2, size=(n, 64)).astype(np.float64)
        res = kmeans(bits, k=int(rng.integers(1, min(6, n) + 1)), seed=int(rng.integers(1000)))
        hist = res.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_inertia_matches_recomputation():
    rng = np.random.default_rng(5)
    pts = rng.random((25, 6))
    res = kmeans(pts, k=3, seed=2)
    recomputed = sum(
        float(((pts[i] - res.centroids[res.assignments[i]]) ** 2).sum()) for i in range(25)
    )
    assert abs(res.inertia - recomputed) < 1e-9


def test_kmeans_handles_duplicate_points():
    pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 2)
    res = kmeans(pts, k=3, seed=0)
    assert res.inertia <= 1e-12  # duplicates collapse; clusters may tie
    hist = res.inertia_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_input_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k must be"):
        kmeans(pts, k=4, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        kmeans(pts, k=0, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        kmeans(np.zeros((0, 2)), k=1, seed=0)


def test_hash_to_vector_bit_order():
    v = hash_to_vector(1 << 63)
    assert v[0] == 1.0 and v[1:].sum() == 0.0
    v = hash_to_vector(1)
    assert v[63] == 1.0 and v[:63].sum() == 0.0


def test_cluster_report_counts(tiny_dataset):
    report = cluster_report(tiny_dataset, k=4, seed=11)
    # contingency row sums are cluster sizes, column sums are class counts
    sizes = np.bincount(report.result.assignments, minlength=4)
    np.testing.assert_array_equal(report.contingency.sum(axis=1), sizes)
    np.testing.assert_array_equal(
        report.contingency.sum(axis=0), tiny_dataset.class_counts()
    )
    assert report.contingency.sum() == len(tiny_dataset.entries)


def test_cluster_report_writes_each_hash_as_16_hex_digits(tmp_path, tiny_dataset):
    save_pgm(constant_image(20, 20, 7), tmp_path / "flat.pgm")
    flat = DatasetManifest([ManifestEntry("flat.pgm", 0)], root=tmp_path)
    assert cluster_report(flat, k=1).rows[0][3] == "0" * 16  # leading zeros kept
    for path, _, _, digits in cluster_report(tiny_dataset, k=4, seed=11).rows:
        assert len(digits) == 16
        assert int(digits, 16) == phash(load_pgm(tiny_dataset.root / path))


def test_cluster_report_deterministic(tiny_dataset):
    a = cluster_report(tiny_dataset, k=3, seed=7)
    b = cluster_report(tiny_dataset, k=3, seed=7)
    assert report_to_csv(a) == report_to_csv(b)
    assert contingency_to_csv(a) == contingency_to_csv(b)


def test_report_csv_shapes(tiny_dataset):
    report = cluster_report(tiny_dataset, k=2, seed=1)
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == "path,class_id,cluster,phash"
    assert len(lines) == len(tiny_dataset.entries) + 1
    table = contingency_to_csv(report).strip().splitlines()
    assert len(table) == 3  # header + 2 clusters


def _rising_distances(monkeypatch):
    """Make every distance evaluation larger than the one before, so that
    inertia rises between Lloyd iterations."""
    real = cluster._squared_distances
    calls = []

    def rising(points, centroids):
        calls.append(None)
        return real(points, centroids) + 1000.0 * len(calls)

    monkeypatch.setattr(cluster, "_squared_distances", rising)


def test_kmeans_inertia_rise_is_a_typed_error(monkeypatch):
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 2, size=(30, 64)).astype(np.float64)
    _rising_distances(monkeypatch)
    with pytest.raises(KMeansError, match="k-means inertia increased from .* at iteration 2"):
        kmeans(pts, k=3, seed=1)
    assert issubclass(KMeansError, ValueError)


def test_cluster_cli_reports_inertia_rise_as_one_error_line(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert run(["--out-dir", str(data), "synth", "--scale", "0.02"]) == 0
    _rising_distances(monkeypatch)
    capsys.readouterr()
    code = run(["--out-dir", str(tmp_path / "out"), "cluster",
                "--manifest", str(data / "manifest.csv"), "--k", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: k-means inertia increased from ")
    assert not (tmp_path / "out").exists()
