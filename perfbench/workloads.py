"""The three benchmark workloads: seeded inputs, the CLI calls of one round,
and the checks on their outputs.

Each workload drives ``dxpipe.cli.run(argv)`` with files and flags only.  Its
set-up makes every input, including the rotated copies ``orient`` corrects,
before any timing starts.  A round is the fixed list of CLI calls that the
closed loop repeats; a round's artefacts must hash the same in every round.
Each round writes into directories of its own.  They are deleted, untimed,
when the next round starts, so that the files of earlier rounds neither pile
up nor wait to be written back to disk; the last round stays for the report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(root: Path) -> str:
    """One digest over the names and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def parse_pgm(data: bytes) -> np.ndarray:
    """Canonical P5 as written by dxpipe: ``P5\\n<w> <h>\\n255\\n`` + pixels."""
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not a canonical P5 file")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def encode_pgm(arr: np.ndarray) -> bytes:
    h, w = arr.shape
    return b"P5\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(arr).tobytes()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


class Workload:
    """One workload in its own directory.  ``setup`` gets
    ``run_cli(argv, models=0)``, which makes one CLI call and raises if it
    fails.  ``models`` here and in each round op is how many models the call
    asks ``trainer.train`` for.  ``key_op`` is the op kind whose median
    latency the benchmark reports as ``key_op_s``.  The set-up runs
    ``SETUPS`` times; ``setup_s`` takes the median."""

    name = ""
    key_op = ""
    SETUPS = 5

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.failures: list[str] = []
        self.round = -1

    def cli(self, out_dir: str, *args: str) -> list[str]:
        """Argv for one call writing to ``out_dir`` of the current round
        (of the set-up before the first round)."""
        return ["--seed", str(self.seed), "--out-dir", str(self.out(out_dir)), *args]

    def path(self, rel: str) -> str:
        return str(self.work / rel)

    def out(self, rel: str) -> Path:
        return self.work / (f"round{self.round}" if self.round >= 0 else "") / rel

    def next_round(self) -> list[tuple[str, list[str], int]]:
        if self.round >= 0:
            shutil.rmtree(self.out(""))
        self.round += 1
        return self.round_ops()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def setup(self, run_cli) -> None:
        raise NotImplementedError

    def round_ops(self) -> list[tuple[str, list[str], int]]:
        """(op kind, argv, models) for every CLI call of one round, in order."""
        raise NotImplementedError

    def check(self, kind: str, argv: list[str]) -> None:
        """Checks one successful op's outputs; records failures via ``fail``."""

    def artefacts(self) -> dict[str, str]:
        """SHA-256 of this round's artefacts."""
        raise NotImplementedError

    def setup_artefacts(self) -> dict[str, str]:
        return {"data": sha256_tree(self.work / "data")}

    def report(self, rounds: list[dict[str, float]], samples: dict[str, list[float]]) -> dict:
        """Workload-specific metrics: name -> (value, unit, sample count)."""
        return {}


def _rate(work_per_round: float, rounds, kinds, unit: str = "1/s") -> tuple[float, str, int]:
    """Median over rounds of work per second spent in the ops of ``kinds``."""
    rates = [work_per_round / sum(r[k] for k in kinds) for r in rounds]
    return float(np.median(rates)), unit, len(rates)


class Train(Workload):
    """Region and pose training on 32 px images (synth --scale 0.1: 253 images)."""

    name = "train"
    key_op = "train"
    SETUPS = 9  # a short set-up, so more of them to steady the median
    EPOCHS = 2
    ORIENT_EPOCHS = 1
    # train with a weighting report asks for two models: the one it saves and
    # the uniform-loss one it compares against.
    TRAIN_MODELS = 2

    def setup(self, run_cli) -> None:
        run_cli(self.cli("data", "synth", "--scale", "0.1"))

    def round_ops(self):
        manifest = self.path("data/manifest.csv")
        return [
            ("train", self.cli("run", "train", "--manifest", manifest,
                               "--epochs", str(self.EPOCHS),
                               "--weighting-report", str(self.out("run/weighting.json"))),
             self.TRAIN_MODELS),
            ("orient_train", self.cli("run", "orient-train", "--manifest", manifest,
                                      "--epochs", str(self.ORIENT_EPOCHS)), 0),
        ]

    def check(self, kind, argv):
        log = "trainlog.csv" if kind == "train" else "orient_trainlog.csv"
        epochs = self.EPOCHS if kind == "train" else self.ORIENT_EPOCHS
        rows = read_csv(self.out("run") / log)
        if len(rows) != epochs + 1:
            self.fail(f"{log} has {len(rows) - 1} epochs, expected {epochs}")
        if kind == "train":
            recall = json.loads(self.out("run/weighting.json").read_text())["minority_recall"]
            if not all(0.0 <= v <= 1.0 for v in recall.values()):
                self.fail(f"minority recall out of range: {recall}")

    def artefacts(self):
        run = self.out("run")
        names = ("checkpoint.bin", "orient_checkpoint.bin", "trainlog.csv",
                 "orient_trainlog.csv", "weighting.json")
        return {n: sha256_file(run / n) for n in names}

    def report(self, rounds, samples):
        n_train = len(read_csv(self.out("run/train_manifest.csv"))) - 2  # comment + header
        requested = (self.TRAIN_MODELS * self.EPOCHS + self.ORIENT_EPOCHS * 4) * n_train
        trainlog = read_csv(self.out("run/trainlog.csv"))
        val_acc = max(float(row[3]) for row in trainlog[1:])
        weighting = json.loads(self.out("run/weighting.json").read_text())
        return {
            "train_samples_per_s": _rate(requested, rounds, ("train", "orient_train")),
            "val_acc": (val_acc, "ratio", 1),
            "minority_recall": (weighting["minority_recall"]["weighted"], "ratio", 1),
        }


class Infer(Workload):
    """Many small files: enhance, score, evaluate, orient and cluster 32 px images."""

    name = "infer"
    key_op = "orient_request"
    ROTATED = 128   # rotated copies for orient
    REQUESTS = 100  # single-image orient requests per round

    def setup(self, run_cli) -> None:
        manifest = self.path("data/manifest.csv")
        run_cli(self.cli("data", "synth", "--scale", "0.2"))
        run_cli(self.cli("ckpt", "train", "--manifest", manifest, "--epochs", "1"), models=1)
        run_cli(self.cli("ckpt", "orient-train", "--manifest", manifest, "--epochs", "1"))
        images = sorted((self.work / "data").glob("*.pgm"))
        rng = np.random.default_rng([self.seed & (2**64 - 1), 0x0B])
        picks = np.sort(rng.choice(len(images), size=self.ROTATED, replace=False))
        turns = rng.integers(1, 4, size=self.ROTATED)
        rot = self.work / "rot"
        rot.mkdir()
        # name -> (applied clockwise quarter turns, canonical bytes)
        self.applied: dict[str, tuple[int, bytes]] = {}
        for i, t in zip(picks, turns):
            canonical = images[i].read_bytes()
            name = f"rot{int(t)}_{images[i].name}"
            (rot / name).write_bytes(encode_pgm(np.rot90(parse_pgm(canonical), k=-int(t))))
            self.applied[name] = (int(t), canonical)
        self.rotated = sorted(self.applied)
        self.order = [self.rotated[i] for i in rng.permutation(self.ROTATED)]
        self.n_images = len(images)
        self.restores = 0

    def setup_artefacts(self):
        return {
            "data": sha256_tree(self.work / "data"),
            "checkpoint.bin": sha256_file(self.work / "ckpt/checkpoint.bin"),
            "orient_checkpoint.bin": sha256_file(self.work / "ckpt/orient_checkpoint.bin"),
            "rot": sha256_tree(self.work / "rot"),
        }

    def round_ops(self):
        manifest = self.path("data/manifest.csv")
        region = self.path("ckpt/checkpoint.bin")
        pose = self.path("ckpt/orient_checkpoint.bin")
        ops = [
            ("enhance", self.cli("enh", "enhance", self.path("data"),
                                 "--tiles", "2", "2", "--clip", "1.5"), 0),
            ("predict", self.cli("pred", "predict", "--checkpoint", region,
                                 "--manifest", manifest), 0),
            ("eval_checkpoint", self.cli("evc", "eval", "--checkpoint", region,
                                         "--manifest", manifest), 0),
            ("eval_predictions", self.cli("evp", "eval", "--predictions",
                                          str(self.out("pred/predictions.csv")),
                                          "--manifest", manifest), 0),
            ("orient_bulk", self.cli("orb", "orient", "--checkpoint", pose,
                                     *(self.path(f"rot/{n}") for n in self.rotated)), 0),
        ]
        for i in range(self.REQUESTS):
            name = self.order[(self.round * self.REQUESTS + i) % self.ROTATED]
            ops.append(("orient_request", self.cli(f"ors/{i}", "orient", "--checkpoint", pose,
                                                   self.path(f"rot/{name}")), 0))
        ops.append(("cluster", self.cli("clu", "cluster", "--manifest", manifest, "--k", "6"), 0))
        return ops

    def _check_orient(self, out_dir: Path) -> None:
        for name, detected, _conf in read_csv(out_dir / "orientation.csv")[1:]:
            turns, canonical = self.applied[name]
            if int(detected) == turns:
                self.restores += 1
                if (out_dir / name).read_bytes() != canonical:
                    self.fail(f"orient detected turn {turns} of {name} but did not restore it")

    def check(self, kind, argv):
        if kind == "predict":
            rows = read_csv(self.out("pred/predictions.csv"))[1:]
            if len(rows) != self.n_images:
                self.fail(f"predictions has {len(rows)} rows, expected {self.n_images}")
            for row in rows:
                if abs(sum(float(v) for v in row[2:]) - 1.0) > 1e-5:
                    self.fail(f"prediction row for {row[0]} does not sum to 1")
                    break
        elif kind in ("orient_bulk", "orient_request"):
            self._check_orient(Path(argv[argv.index("--out-dir") + 1]))

    def artefacts(self):
        out = self.out
        return {
            "enhanced": sha256_tree(out("enh")),
            "predictions.csv": sha256_file(out("pred/predictions.csv")),
            "eval_report.json": sha256_file(out("evc/eval_report.json")),
            "eval_report.predictions.json": sha256_file(out("evp/eval_report.json")),
            "oriented": sha256_tree(out("orb")),
            "clusters.csv": sha256_file(out("clu/clusters.csv")),
        }

    def report(self, rounds, samples):
        if not self.restores:
            self.fail("orient never detected an applied turn, so no restore was checked")
        n = self.n_images
        requests = sorted(samples["orient_request"])
        report = json.loads(self.out("evc/eval_report.json").read_text())
        return {
            "score_images_per_s": _rate(2 * n, rounds, ("predict", "eval_checkpoint")),
            "orient_images_per_s": _rate(self.ROTATED, rounds, ("orient_bulk",)),
            "request_p50_ms": (1e3 * percentile(requests, 50), "ms", len(requests)),
            "request_p95_ms": (1e3 * percentile(requests, 95), "ms", len(requests)),
            "enhance_mpx_per_s": _rate(n * 32 * 32 / 1e6, rounds, ("enhance",), "Mpx/s"),
            "cluster_images_per_s": _rate(n, rounds, ("cluster",)),
            "macro_auc": (report["macro_auc"], "ratio", 1),
            "orient_restores_verified": (self.restores, "count", 1),
        }


class Radiograph(Workload):
    """Enhancement kernels at radiograph size: 13 images of 1024 x 1024 px."""

    name = "radiograph"
    key_op = "enhance"
    SETUPS = 7
    SIZE = 1024

    def setup(self, run_cli) -> None:
        run_cli(self.cli("data", "synth", "--image-size", str(self.SIZE), "--scale", "0.005"))
        self.n_images = len(list((self.work / "data").glob("*.pgm")))

    def round_ops(self):
        data = self.path("data")
        return [
            ("enhance", self.cli("enh", "enhance", data), 0),
            ("enhance_equalize", self.cli("eq", "enhance", data, "--stage", "equalize"), 0),
            ("cluster", self.cli("clu", "cluster", "--manifest", self.path("data/manifest.csv"),
                                 "--k", "6"), 0),
        ]

    def check(self, kind, argv):
        if kind.startswith("enhance"):
            out = self.out("enh" if kind == "enhance" else "eq")
            expected = len(encode_pgm(np.zeros((self.SIZE, self.SIZE), np.uint8)))
            sizes = {p.stat().st_size for p in out.glob("*.pgm")}
            if len(list(out.glob("*.pgm"))) != self.n_images or sizes != {expected}:
                self.fail(f"{kind} did not write {self.n_images} {self.SIZE}px images")

    def artefacts(self):
        return {
            "enhanced": sha256_tree(self.out("enh")),
            "equalized": sha256_tree(self.out("eq")),
            "clusters.csv": sha256_file(self.out("clu/clusters.csv")),
        }

    def report(self, rounds, samples):
        mpx = self.n_images * self.SIZE * self.SIZE / 1e6
        return {
            "enhance_mpx_per_s": _rate(mpx, rounds, ("enhance",), "Mpx/s"),
            "cluster_images_per_s": _rate(self.n_images, rounds, ("cluster",)),
        }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; +inf entries (failed requests) sort last."""
    rank = max(1, int(np.ceil(q / 100 * len(sorted_values))))
    return sorted_values[rank - 1]


WORKLOADS = {w.name: w for w in (Train, Infer, Radiograph)}
