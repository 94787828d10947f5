import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxpipe import synth
from dxpipe.enhance import hist_equalize, images_per_block
from dxpipe.image import load_pgm, save_pgm, write_pgm
from dxpipe.synth import (
    MAX_IMAGES,
    NUM_CLASSES,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    SynthParams,
    amplify_minority,
    default_class_counts,
    generate_dataset,
    generate_image,
    load_manifest,
    manifest_to_csv,
    save_manifest,
)


def test_generate_image_deterministic():
    p = SynthParams(rng_seed=3)
    a = generate_image(2, p, 17)
    b = generate_image(2, p, 17)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(generate_image(2, p, 18), a)


# SHA-256 over the PGM bytes of generate_image(class, SynthParams(image_size,
# rng_seed), seed) for the seeds below, one digest per class; recorded with the
# whole-canvas renderer that _reference_image keeps
_PINNED_SEEDS = (0, 1, 2**40 + 3)
_PINNED_DIGESTS = [
    (16, 5, (
        "2d9ef4a10f76f55eebce6867834d724e4083725ecab163c197161d01a58a3d45",
        "5a7362310733b978bf3303f935cc95105b933a83aa59930aee31776b7b75b951",
        "9931833d0c2258671b54eaf4f4c391ab5e7e444ec89c8b77740ac540be935dec",
        "8ca246af459227a85049a5b1808d2f4511da80d27fd66be008b725f6d61d00e1",
        "526a1392e32a84d3218faa9c0a440fe628fafe2e50fb666812f8c96d501a8427",
        "0200ccff12430a981dfbdc8b2e1bdea07e6c7826a9ebfc0bedae9ae6ab857311",
    )),
    (32, 42, (
        "dd9011ed862a54ce9a76131a0b26988e5e373962f3ce503d96b1e512b58e83eb",
        "f5694fdc78bf5eadd25eb91122461ef9f6ae05fac2d8aa43a6a995645f9f8d9b",
        "1858fb3e939768a7707892334c1d63d2291d01508e008561ce0580ddfde7fc64",
        "542b1e8591af17acfb3f8d5e58d8c6b1d1d3779d78c5795b1a9a4053702e9b58",
        "73d2d0f8962e3f9ece93a2ca118d86b8a911222b090a01e716a3db35ec96db99",
        "b90bc2925fe4b2af8b653d09a6c94fd48df2f7eff64881a0902638429480a1c4",
    )),
    (33, 7, (
        "26121520f7f32b9c77bc274eeb978d30d9aad08f7c2bd02900d1e59788e893a3",
        "c43594ab734ef01378c26d83d69df79c2021f7cbdb6c915b025d655b10be460f",
        "40a961f6bebd0ce2409ee4bf566854ed6e6b6e4bf1a9c2bcce48f76dd804f2f5",
        "87e9a4cbcc96de446280339a5f544e7297562d157d25e8c6247770501f3d52d3",
        "79c270eea8edd2ee74c2c619cd7bc49f9c2c1d193a06f22d0a7a8ea07e989115",
        "f50e3b8522d00cc74b93e9577381e31b261b2aa2ad599dd9fd86d84403957b8c",
    )),
    (257, 1, (
        "b14f86d28b40a4fa8b350eafbd29e282a2d2ff23c8f5bdb99e4a9ef5cb021e85",
        "925da6ce834bd73dad41a3530b9bc6fe50cd303189c1446a2f7ce91093157226",
        "2fc5e75ead2928a4393dd214679adc83a2e1880dc6d28c802023f06daf2190c3",
        "e7fb5ff0b20d96b3e485469264991e882d8e2008ac48a536aa34ad3adc0a2878",
        "6b2fb5232a5a9c9d79d342aad7df2f04ec48418db65c419ba5ea5853ac4018f0",
        "a023ede005b56e66fdb3db4cdae32ac58b8f43e3ee5b2c74194202362a080a71",
    )),
    (1024, 3, (
        "98761ea3061b4c84d8e437ce60b9779038adadd3a2daf0b49ec335ed636436e0",
        "1bf8c34365e9e4b24123b1d2f7fa9324f7e49e48dc07050a4c1672b44260daaa",
        "46472c523840ca38744b7c517154d76ced2a094de22f23c3bdfe7cd1cdc951bc",
        "42e2c161de316f5a0f896a5da5b689cefb8daaf829d09a950d29c101175d958f",
        "896eae0fa4dc06a608e8c69c6b24a1951cf194e9ecf095ecd1f4ed1ad8b28603",
        "9202a1291032be264406bd93069454267f82a8aadba8c1906a4fac8a8de9b24d",
    )),
]


@pytest.mark.parametrize("size, rng_seed, digests", _PINNED_DIGESTS)
def test_generate_image_bytes_are_pinned(size, rng_seed, digests):
    p = SynthParams(image_size=size, rng_seed=rng_seed)
    got = []
    for cid in range(NUM_CLASSES):
        h = hashlib.sha256()
        for seed in _PINNED_SEEDS:
            h.update(write_pgm(generate_image(cid, p, seed)))
        got.append(h.hexdigest())
    assert got == list(digests)


def _reference_image(class_id: int, p: SynthParams, seed: int) -> np.ndarray:
    """generate_image rendered in float64, truncated to uint8 at the end,
    with every blob's ellipse tested over the whole canvas."""
    rng = np.random.default_rng(
        np.random.SeedSequence([p.rng_seed & (2**64 - 1), class_id, seed & (2**64 - 1)])
    )
    s = p.image_size
    rows = np.arange(s, dtype=np.float64)
    base = synth._BG_TOP + (synth._BG_BOTTOM - synth._BG_TOP) * rows / (s - 1)
    bg = base[:, None] + rng.integers(-synth._BG_JITTER, synth._BG_JITTER + 1, size=(s, s))
    canvas = np.clip(bg, 2, 63)
    x0f, x1f, y0f, y1f = synth._CLASS_BOXES[class_id]
    x0, x1 = x0f * s, x1f * s
    y0, y1 = y0f * s, y1f * s
    lo, hi = synth._BLOB_COUNT_RANGE
    n_blobs = int(rng.integers(lo, hi + 1))
    yy, xx = np.mgrid[0:s, 0:s]
    for i in range(n_blobs):
        cx = x0 + (i + 0.5) * (x1 - x0) / n_blobs + rng.uniform(-0.04, 0.04) * s
        cy = (y0 + y1) / 2.0 + rng.uniform(-0.08, 0.08) * s
        rx = max(1.0, rng.uniform(0.025, 0.05) * s)
        ry = rng.uniform(0.10, 0.16) * s
        val = float(rng.integers(synth._BLOB_MIN_VAL, synth._BLOB_MAX_VAL + 1))
        mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        canvas = np.where(mask, np.maximum(canvas, val), canvas)
    out = canvas.astype(np.uint8)
    if p.noise_impulse_prob > 0.0:
        impulses = rng.random((s, s)) < p.noise_impulse_prob
        salt = rng.integers(0, 2, size=(s, s)).astype(np.uint8) * 255
        out = np.where(impulses, salt, out)
    return out


@settings(max_examples=40, deadline=None)
@given(size=st.integers(16, 300), class_id=st.integers(0, NUM_CLASSES - 1),
       rng_seed=st.integers(0, 2**64 - 1), seed=st.integers(0, 2**64 - 1))
def test_boxed_blobs_match_the_whole_canvas_renderer(size, class_id, rng_seed, seed):
    p = SynthParams(image_size=size, rng_seed=rng_seed)
    got = generate_image(class_id, p, seed)
    np.testing.assert_array_equal(got, _reference_image(class_id, p, seed))


@pytest.mark.parametrize("size", [16, 17, 32, 33, 100, 300, 342, 683, 1000, 1024])
def test_uint8_renderer_matches_the_float_renderer(size):
    for rng_seed in (0, 5, 2**63 + 1):
        p = SynthParams(image_size=size, rng_seed=rng_seed)
        for cid in range(NUM_CLASSES):
            got = generate_image(cid, p, seed=cid + 11)
            np.testing.assert_array_equal(got, _reference_image(cid, p, cid + 11))


def test_floored_background_row_plus_jitter_is_the_float_sum_floored():
    jitter = np.arange(-synth._BG_JITTER, synth._BG_JITTER + 1, dtype=np.float64)
    for s in range(16, 2049):
        rows = np.arange(s, dtype=np.float64)
        base = synth._BG_TOP + (synth._BG_BOTTOM - synth._BG_TOP) * rows / (s - 1)
        floored = np.floor(base)[:, None] + jitter
        np.testing.assert_array_equal(floored, np.floor(base[:, None] + jitter))


def test_generate_image_rejects_bad_class():
    with pytest.raises(ValueError, match="class_id"):
        generate_image(6, SynthParams(), 0)


def test_class0_quadrant_brighter_than_lower_half():
    p = SynthParams(rng_seed=1)
    for seed in range(25):
        arr = generate_image(0, p, seed).astype(np.float64)
        s = arr.shape[0]
        upper_left = arr[: s // 2, : s // 2].mean()
        lower_half = arr[s // 2 :, :].mean()
        assert upper_left > lower_half


def test_no_noise_means_no_impulse_extremes():
    p = SynthParams(rng_seed=2, noise_impulse_prob=0.0)
    for cid in range(6):
        arr = generate_image(cid, p, 0)
        assert arr.max() < 255 and arr.min() > 0


def test_impulse_noise_present_when_enabled():
    p = SynthParams(rng_seed=2, noise_impulse_prob=0.2)
    arr = generate_image(0, p, 0)
    assert (arr == 255).any() or (arr == 0).any()


def test_default_counts_scale_one_fifth():
    counts = default_class_counts()
    assert counts == [108, 126, 103, 105, 48, 15]
    assert sum(counts) == 505
    frac = counts[5] / sum(counts)
    assert abs(frac - 75 / 2526) < 0.005


def test_default_counts_refuse_a_scale_whose_counts_overflow():
    # 1e308 is finite, but 541 * 1e308 is not, and round() of it would
    # raise OverflowError
    with pytest.raises(ValueError, match=r"^scale 1e\+308 gives class counts that are not finite$"):
        default_class_counts(1e308)


def test_default_counts_refuse_a_scale_above_the_image_bound():
    assert sum(default_class_counts(39)) == 98_514 <= MAX_IMAGES
    for scale in (40, 1e300):
        message = f"scale {scale} gives more than 100000 images"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_class_counts(scale)


def test_generate_dataset_counts_and_files(tmp_path):
    manifest = generate_dataset([4, 0, 0, 0, 0, 2], SynthParams(rng_seed=9), tmp_path)
    counts = manifest.class_counts()
    assert counts[0] == 4 and counts[5] == 2 and counts[3] == 0
    assert len(list(tmp_path.glob("*.pgm"))) == len(manifest.entries) == 6
    # every manifest path resolves
    for e in manifest.entries:
        assert manifest.resolve(e).exists()


def test_generate_dataset_deterministic(tmp_path):
    p = SynthParams(rng_seed=11)
    counts = [0, 3, 0, 0, 2, 0]
    m1 = generate_dataset(counts, p, tmp_path / "a")
    m2 = generate_dataset(counts, p, tmp_path / "b")
    assert manifest_to_csv(m1) == manifest_to_csv(m2)
    for e1, e2 in zip(m1.entries, m2.entries):
        assert m1.resolve(e1).read_bytes() == m2.resolve(e2).read_bytes()


@pytest.mark.parametrize("counts, message", [
    ([], "counts must hold 6 class counts, got 0"),
    ([1, 1, 1, 1, 1], "counts must hold 6 class counts, got 5"),
    ([1] * 7, "counts must hold 6 class counts, got 7"),
    ([2, 0, 0, -1, 0, 0], "class 3 count must be >= 0, got -1"),
])
def test_generate_dataset_refuses_counts_that_are_not_six_non_negative_ints(
    tmp_path, counts, message
):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_dataset(counts, SynthParams(), tmp_path)
    assert list(tmp_path.iterdir()) == []  # refused before any image is written


def test_a_dataset_holds_one_run_per_class_that_load_manifest_reads_back(tmp_path):
    counts = [3, 0, 2, 1, 0, 2]
    manifest = generate_dataset(counts, SynthParams(rng_seed=6), tmp_path)
    names = [e.path for e in manifest.entries]
    assert names == [f"class{c}_{i:04d}.pgm" for c, n in enumerate(counts) for i in range(n)]
    assert sorted(p.name for p in tmp_path.glob("*.pgm")) == sorted(names)
    assert manifest.class_counts().tolist() == counts
    save_manifest(manifest, tmp_path / "manifest.csv")
    assert load_manifest(tmp_path / "manifest.csv").entries == manifest.entries


def test_amplify_doubles_listed_class(tmp_path):
    manifest = generate_dataset([3, 0, 0, 0, 0, 4], SynthParams(rng_seed=1), tmp_path)
    out = amplify_minority(manifest, [5])
    counts = out.class_counts()
    assert counts[5] == 8 and counts[0] == 3
    assert len(list(tmp_path.glob("*_he.pgm"))) == 4


def test_amplify_empty_class_is_noop(tmp_path):
    manifest = generate_dataset([2, 0, 0, 0, 0, 0], SynthParams(rng_seed=1), tmp_path)
    out = amplify_minority(manifest, [4])
    assert [e.path for e in out.entries] == [e.path for e in manifest.entries]


def test_amplified_images_are_equalized_copies(tmp_path):
    manifest = generate_dataset([0, 0, 2, 0, 0, 0], SynthParams(rng_seed=8), tmp_path)
    out = amplify_minority(manifest, [2])
    originals = out.entries[:2]
    copies = out.entries[2:]
    for orig, copy in zip(originals, copies):
        src = hist_equalize(load_pgm(out.resolve(orig)))
        np.testing.assert_array_equal(load_pgm(out.resolve(copy)), src)
        assert copy.class_id == orig.class_id


def test_amplify_writes_the_bytes_of_equalizing_one_image_at_a_time(tmp_path):
    # runs longer than a block, shape changes and an unlisted class in between
    rng = np.random.default_rng(21)
    shapes = [(32, 32)] * (images_per_block(32, 32) + 3) + [(20, 24), (20, 24), (32, 32)]
    entries = []
    for i, shape in enumerate(shapes):
        name = f"img{i:03d}.pgm"
        img = rng.integers(0, 256, size=shape).astype(np.uint8)
        if i % 9 == 4:
            img[:] = 77  # constant: the degenerate rule
        save_pgm(img, tmp_path / name)
        entries.append(ManifestEntry(name, 3 if i % 5 == 2 else 1))
    manifest = DatasetManifest(entries=entries, seed=0, root=tmp_path)
    out = amplify_minority(manifest, [1])
    copies = out.entries[len(entries):]
    listed = [e for e in entries if e.class_id == 1]
    assert [e.path for e in copies] == [e.path.replace(".pgm", "_he.pgm") for e in listed]
    for orig, copy in zip(listed, copies):
        expected = write_pgm(hist_equalize(load_pgm(tmp_path / orig.path)))
        assert (tmp_path / copy.path).read_bytes() == expected


def test_manifest_round_trip(tmp_path):
    manifest = generate_dataset([2, 1, 0, 0, 0, 0], SynthParams(rng_seed=4), tmp_path)
    save_manifest(manifest, tmp_path / "manifest.csv")
    loaded = load_manifest(tmp_path / "manifest.csv")
    assert loaded.seed == manifest.seed
    assert loaded.entries == manifest.entries


def test_manifest_rejects_duplicate_paths(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# seed=0\npath,class_id,rotation\na.pgm,0,0\na.pgm,1,0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_manifest(path)


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,label\na.pgm,0\n")
    with pytest.raises(ValueError, match="header"):
        load_manifest(path)


def test_save_manifest_round_trips_rotation(tmp_path):
    from dxpipe.synth import DatasetManifest, ManifestEntry

    m = DatasetManifest(
        entries=[ManifestEntry("x.pgm", 3, 2)], seed=77, root=tmp_path
    )
    save_manifest(m, tmp_path / "m.csv")
    loaded = load_manifest(tmp_path / "m.csv")
    assert loaded.entries[0].rotation == 2
    assert loaded.seed == 77


@pytest.mark.parametrize("text, message", [
    ("# seed=0\npath,class_id,rotation\na.pgm,6,0\n", "line 3: bad class_id '6'"),
    ("# seed=0\npath,class_id,rotation\na.pgm,-1,0\n", "bad class_id '-1'"),
    ("# seed=0\npath,class_id,rotation\na.pgm,+1,0\n", "bad class_id '+1'"),
    ("# seed=0\npath,class_id,rotation\na.pgm,1_0,0\n", "bad class_id '1_0'"),
    ("# seed=0\npath,class_id,rotation\na.pgm,0,4\n", "bad rotation '4'"),
    ("# seed=0\npath,class_id,rotation\na.pgm\n", "line 3: expected path,class_id,rotation"),
    ("# seed=0\npath,class_id,rotation\na.pgm,0,0,0\n", "expected path,class_id,rotation"),
    ("# seed=0\npath,class_id,rotation\n,0,0\n", "expected path,class_id,rotation"),
    ("# seed=x\npath,class_id,rotation\n", "bad seed 'x'"),
    ('# seed=0\npath,class_id,rotation\n"a"b,0,0\n', "line 3:"),
    ("path,class_id,rotation\n# seed=0\n", "expected path,class_id,rotation"),
])
def test_manifest_rejects_what_save_manifest_never_writes(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(path)


def test_manifest_rejects_non_ascii(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"# seed=0\npath,class_id,rotation\n\xff.pgm,0,0\n")
    with pytest.raises(ManifestError, match="not ASCII"):
        load_manifest(path)


_MANIFEST_SAMPLE = b'# seed=42\npath,class_id,rotation\nclass0_0000.pgm,0,0\n"a,b.pgm",5,3\n'
_MANIFEST_TOKENS = [b"", b",", b"\n", b"\r\n", b"\r", b"#", b'"', b"seed=", b"-", b"+", b"_", b"0",
                    b"5", b"6", b"9", b"\xff", b"\x00", b"path,class_id,rotation"]


def _load_manifest_bytes(root, data: bytes) -> None:
    """load_manifest either raises ManifestError or returns a manifest that
    survives a save and a second load unchanged."""
    path = root / "fuzz.csv"
    path.write_bytes(data)
    try:
        loaded = load_manifest(path)
    except ManifestError:
        return
    assert all(0 <= e.class_id < NUM_CLASSES for e in loaded.entries)
    assert len({e.path for e in loaded.entries}) == len(loaded.entries)
    save_manifest(loaded, path)
    again = load_manifest(path)
    assert (again.seed, again.entries) == (loaded.seed, loaded.entries)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=60) | st.sampled_from([_MANIFEST_SAMPLE]))
def test_any_bytes_load_or_raise_manifest_error(tmp_path_factory, data):
    _load_manifest_bytes(tmp_path_factory.getbasetemp(), data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_manifest_loads_or_raises_manifest_error(tmp_path_factory, data):
    buf = bytearray(_MANIFEST_SAMPLE)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(buf)))
        cut = data.draw(st.integers(0, 3))
        buf[i : i + cut] = data.draw(st.sampled_from(_MANIFEST_TOKENS) | st.binary(max_size=3))
    _load_manifest_bytes(tmp_path_factory.getbasetemp(), bytes(buf))


# ASCII file names, line breaks too; no NUL, which no file name holds, and
# no "/", because save_manifest rewrites paths relative to the manifest's directory
_NAMES = st.text(st.characters(min_codepoint=0x01, max_codepoint=0x7F, exclude_characters="/"),
                 min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(_NAMES, max_size=8, unique=True), data=st.data(),
       seed=st.integers(-(2**63), 2**64))
def test_save_then_load_round_trips_exactly(tmp_path_factory, names, data, seed):
    root = tmp_path_factory.getbasetemp()
    entries = [
        ManifestEntry(name, data.draw(st.integers(0, NUM_CLASSES - 1)),
                      data.draw(st.integers(0, 3)))
        for name in names
    ]
    save_manifest(DatasetManifest(entries=entries, seed=seed, root=root), root / "rt.csv")
    loaded = load_manifest(root / "rt.csv")
    assert (loaded.seed, loaded.entries, loaded.root) == (seed, entries, root)
