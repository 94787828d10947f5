import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxpipe.enhance import hist_equalize, images_per_block
from dxpipe.image import Image, Rotation, load_pgm, save_pgm, write_pgm
from dxpipe.synth import (
    NUM_CLASSES,
    ClassSpec,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    SynthParams,
    amplify_minority,
    default_class_specs,
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
    assert a == b
    assert generate_image(2, p, 18) != a


def test_generate_image_rejects_bad_class():
    with pytest.raises(ValueError, match="class_id"):
        generate_image(6, SynthParams(), 0)


def test_class0_quadrant_brighter_than_lower_half():
    p = SynthParams(rng_seed=1)
    for seed in range(25):
        arr = generate_image(0, p, seed).to_array().astype(np.float64)
        s = arr.shape[0]
        upper_left = arr[: s // 2, : s // 2].mean()
        lower_half = arr[s // 2 :, :].mean()
        assert upper_left > lower_half


def test_no_noise_means_no_impulse_extremes():
    p = SynthParams(rng_seed=2, noise_impulse_prob=0.0)
    for cid in range(6):
        arr = generate_image(cid, p, 0).to_array()
        assert arr.max() < 255 and arr.min() > 0


def test_impulse_noise_present_when_enabled():
    p = SynthParams(rng_seed=2, noise_impulse_prob=0.2)
    arr = generate_image(0, p, 0).to_array()
    assert (arr == 255).any() or (arr == 0).any()


def test_default_specs_scale_one_fifth():
    counts = [s.target_count for s in default_class_specs()]
    assert counts == [108, 126, 103, 105, 48, 15]
    assert sum(counts) == 505
    frac = counts[5] / sum(counts)
    assert abs(frac - 75 / 2526) < 0.005


def test_generate_dataset_counts_and_files(tmp_path):
    specs = [ClassSpec(0, "ul", 4), ClassSpec(5, "lc", 2), ClassSpec(3, "lr", 0)]
    manifest = generate_dataset(specs, SynthParams(rng_seed=9), tmp_path)
    counts = manifest.class_counts()
    assert counts[0] == 4 and counts[5] == 2 and counts[3] == 0
    assert len(list(tmp_path.glob("*.pgm"))) == len(manifest.entries) == 6
    # every manifest path resolves
    for e in manifest.entries:
        assert manifest.resolve(e).exists()


def test_generate_dataset_deterministic(tmp_path):
    p = SynthParams(rng_seed=11)
    specs = [ClassSpec(1, "ur", 3), ClassSpec(4, "uc", 2)]
    m1 = generate_dataset(specs, p, tmp_path / "a")
    m2 = generate_dataset(specs, p, tmp_path / "b")
    assert manifest_to_csv(m1) == manifest_to_csv(m2)
    for e1, e2 in zip(m1.entries, m2.entries):
        assert m1.resolve(e1).read_bytes() == m2.resolve(e2).read_bytes()


def test_generate_dataset_rejects_empty_specs(tmp_path):
    with pytest.raises(ValueError, match="nonempty"):
        generate_dataset([], SynthParams(), tmp_path)


def test_amplify_doubles_listed_class(tmp_path):
    specs = [ClassSpec(0, "ul", 3), ClassSpec(5, "lc", 4)]
    manifest = generate_dataset(specs, SynthParams(rng_seed=1), tmp_path)
    out = amplify_minority(manifest, [5])
    counts = out.class_counts()
    assert counts[5] == 8 and counts[0] == 3
    assert len(list(tmp_path.glob("*_he.pgm"))) == 4


def test_amplify_empty_class_is_noop(tmp_path):
    specs = [ClassSpec(0, "ul", 2)]
    manifest = generate_dataset(specs, SynthParams(rng_seed=1), tmp_path)
    out = amplify_minority(manifest, [4])
    assert [e.path for e in out.entries] == [e.path for e in manifest.entries]


def test_amplified_images_are_equalized_copies(tmp_path):
    specs = [ClassSpec(2, "ll", 2)]
    manifest = generate_dataset(specs, SynthParams(rng_seed=8), tmp_path)
    out = amplify_minority(manifest, [2])
    originals = out.entries[:2]
    copies = out.entries[2:]
    for orig, copy in zip(originals, copies):
        src = hist_equalize(load_pgm(out.resolve(orig)))
        assert load_pgm(out.resolve(copy)) == src
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
        save_pgm(Image.from_array(img), tmp_path / name)
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
    specs = [ClassSpec(0, "ul", 2), ClassSpec(1, "ur", 1)]
    manifest = generate_dataset(specs, SynthParams(rng_seed=4), tmp_path)
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
    from dxpipe.image import Rotation
    from dxpipe.synth import DatasetManifest, ManifestEntry

    m = DatasetManifest(
        entries=[ManifestEntry("x.pgm", 3, Rotation(2))], seed=77, root=tmp_path
    )
    save_manifest(m, tmp_path / "m.csv")
    loaded = load_manifest(tmp_path / "m.csv")
    assert loaded.entries[0].rotation == Rotation(2)
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
_MANIFEST_TOKENS = [b"", b",", b"\n", b"\r\n", b"#", b'"', b"seed=", b"-", b"+", b"_", b"0",
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


# printable ASCII file names; no "/", because save_manifest rewrites paths
# relative to the manifest's directory
_NAMES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters="/"),
                 min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(_NAMES, max_size=8, unique=True), data=st.data(),
       seed=st.integers(-(2**63), 2**64))
def test_save_then_load_round_trips_exactly(tmp_path_factory, names, data, seed):
    root = tmp_path_factory.getbasetemp()
    entries = [
        ManifestEntry(name, data.draw(st.integers(0, NUM_CLASSES - 1)),
                      Rotation(data.draw(st.integers(0, 3))))
        for name in names
    ]
    save_manifest(DatasetManifest(entries=entries, seed=seed, root=root), root / "rt.csv")
    loaded = load_manifest(root / "rt.csv")
    assert (loaded.seed, loaded.entries, loaded.root) == (seed, entries, root)
