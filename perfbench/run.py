"""dxpipe benchmark: seeded CLI workloads, run in-process as a closed loop.

    python3 perfbench/run.py --workload {train,infer,radiograph} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports ``dxpipe`` from ``src/``.  One
client calls ``dxpipe.cli.run(argv)`` and sends its next call (an *op*) only
after the previous one returns.  The workload's list of ops is a *round*;
rounds repeat until ``--seconds`` have passed.

Set-up (imports, input generation, checkpoint preparation) runs before
timing: IMPORTS fresh interpreters each time ``import dxpipe.cli``, and the
workload's set-up runs SETUPS times, each in a forked child, in directories
of its own, so that ``peak_rss_mb`` covers only the imports and the timed
rounds.  ``setup_s`` is the median import plus the median set-up.  Every
set-up must produce the same bytes, and every round the same artefacts.

The host's speed drifts by tens of percent over minutes, in CPU time too, so
the times are scaled to a reference host speed (see ``hostspeed.py``): each
import and set-up by the probes just before and after it, each round, and
each op in it, by the probes taken from the end of the round before to the
end of this one.  ``setup_s``, ``wall_s`` (median round) and ``key_op_s``
(median of the workload's key op) are scaled; the record keeps the raw times
and the factors too.  The workload metrics printed before the result line
(rates and latency percentiles) are raw.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced rounds, traces the set-ups too, and prints the
per-layer metrics: per-name values are per set-up plus per round, and
``trace.overhead_s`` is the median traced minus the median untraced round.
The last stdout line is the JSON result; the lines before it print every
workload metric with its unit and sample count.  The full record (metrics,
artefact digests, environment) goes to ``.perfbench_run/`` in the checkout,
and the spans of a traced run to a ``*-spans.jsonl.gz`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"
IMPORTS = 9
# BLAS threads are pinned to one: on two cores, two threads gave the same
# training wall time at twice the CPU time.
BLAS_THREADS = "1"
BURST = 10          # probes in a burst around each set-up, import and round
PROBE_GAP_S = 0.1   # within a round, one probe per this much op time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: f"{config[k]['name']} {config[k]['version']}" for k in ("blas", "lapack")},
        "blas_config": config["blas"].get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Client:
    """The closed-loop client: one CLI call at a time, output captured.

    With a tracer, each call gets an op id and a group ("setup" or "round")
    so spans can be normalized per set-up and per round."""

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.errors: list[str] = []
        self.op_group: list[str] = []
        self.requested = {"setup": 0, "round": 0}

    def call(self, argv: list[str], group: str | None = None,
             models: int = 0) -> tuple[bool, float]:
        """One CLI call; ``models`` is how many models it asks ``trainer.train``
        for, as the workload states it."""
        if group is not None:
            self.tracer.op = len(self.op_group)
            self.op_group.append(group)
            self.requested[group] += models
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except (Exception, SystemExit) as exc:  # a crashed op is a failed op
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            self.errors.append(f"{argv[4:6]} -> {code} {err.getvalue().strip()[:200]}")
        return code == 0, seconds

    def records(self) -> tuple:
        return (self.errors, self.op_group, self.requested,
                self.tracer.spans if self.tracer else [])

    def adopt(self, records: tuple) -> None:
        """Takes over the records of a forked copy of this client.  The copy
        started from this client's records, so its lists extend them."""
        errors, op_group, self.requested, spans = records
        self.errors[:] = errors
        self.op_group[:] = op_group
        if self.tracer:
            self.tracer.spans[:] = spans  # the wrappers hold this list


def in_child(fn):
    """Runs ``fn()`` in a forked child, waits for it and returns its result.
    Memory the child touches does not count in this process's peak RSS."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            result = (True, fn())
        except BaseException as exc:  # handed to the parent, which raises
            result = (False, f"{type(exc).__name__}: {exc}")
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(result, fh)
        os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            ok, result = pickle.load(fh)
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise RuntimeError(result)
    return result


def between_bursts(speed, units) -> list[tuple[object, float]]:
    """Runs each unit between two bursts of probes; returns each unit's
    result and the scale factor of the probes around it."""
    results = []
    before = speed.sample(BURST)
    for unit in units:
        result = unit()
        after = speed.sample(BURST)
        results.append((result, speed.factor(before + after)))
        before = after
    return results


def import_seconds(speed) -> tuple[list[float], list[float]]:
    """Raw and scaled times of IMPORTS fresh interpreters that each import
    dxpipe.cli."""
    argv = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import dxpipe.cli"]

    def one_import() -> float:
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        return time.perf_counter() - start

    timed = between_bursts(speed, [one_import] * IMPORTS)
    return [t for t, _f in timed], [t * f for t, f in timed]


@contextlib.contextmanager
def tracing(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def set_up(workload, work_root: Path, seed: int, client: Client, speed):
    """Runs the set-up ``workload.SETUPS`` times, each in a forked child and
    its own directory, between bursts of probes; returns the last workload,
    the raw and the scaled set-up times, the set-up digests and a failure if
    the copies differ."""
    group = "setup" if client.tracer else None

    def setup_call(argv, models=0):
        if not client.call(argv, group, models)[0]:
            raise RuntimeError(f"set-up call failed: {client.errors[-1]}")

    def one_setup(k: int):
        wl = workload(work_root / f"setup{k}", seed)
        with tracing(client.tracer):
            start = time.perf_counter()
            wl.setup(setup_call)
            seconds = time.perf_counter() - start
        return wl, seconds, wl.setup_artefacts(), client.records()

    def unit(k: int):
        # The child times its set-up alone, without the fork and the hand-over.
        wl, seconds, digest, records = in_child(lambda: one_setup(k))
        client.adopt(records)
        if k < workload.SETUPS - 1:  # only the last set-up's files are used
            shutil.rmtree(work_root / f"setup{k}")
        return wl, seconds, digest

    timed = between_bursts(speed, [lambda k=k: unit(k) for k in range(workload.SETUPS)])
    digests = [digest for (_wl, _seconds, digest), _f in timed]
    failures = [] if all(d == digests[0] for d in digests) else [
        f"set-ups are not byte-identical: {digests}"]
    return (timed[-1][0][0], [seconds for (_wl, seconds, _d), _f in timed],
            [seconds * f for (_wl, seconds, _d), f in timed], digests[0], failures)


def measure(wl, client: Client, seconds: float, trace: bool, speed) -> dict:
    """Repeats rounds for ``seconds``; a traced run alternates untraced and
    traced rounds.  Op samples come from untraced rounds only.

    A burst of probes ends every round, and before each op come one probe
    for every PROBE_GAP_S of op time since the last probe, at most a burst;
    a round's factor is that of the probes from the burst before it to the
    burst after it."""
    rounds, traced_rounds, samples, sample_rounds, factors = [], [], {}, {}, []
    digests, failures, attempted, failed = None, [], 0, 0
    last_burst = speed.sample(BURST)
    deadline = time.perf_counter() + seconds
    while len(rounds) + len(traced_rounds) < 1 + trace or time.perf_counter() < deadline:
        traced = trace and len(rounds) > len(traced_rounds)
        times: dict[str, float] = {}
        probes, last_probe = list(last_burst), time.perf_counter()
        with tracing(client.tracer if traced else None):
            for kind, argv, models in wl.next_round():
                due = int((time.perf_counter() - last_probe) / PROBE_GAP_S)
                if due:
                    probes += speed.sample(min(due, BURST))
                    last_probe = time.perf_counter()
                ok, op_s = client.call(argv, "round" if traced else None, models)
                attempted += 1
                failed += not ok
                times[kind] = times.get(kind, 0.0) + op_s
                if not traced:
                    samples.setdefault(kind, []).append(op_s if ok else float("inf"))
                    sample_rounds.setdefault(kind, []).append(len(rounds))
                if ok:
                    wl.check(kind, argv)
        try:
            round_digests = wl.artefacts()
        except OSError as exc:  # an op failed to write its output
            round_digests = {"missing": str(exc)}
        if digests is None:
            digests = round_digests
        elif round_digests != digests:
            failures.append(f"round {wl.round} artefacts differ: {round_digests} vs {digests}")
        last_burst = speed.sample(BURST)
        (traced_rounds if traced else rounds).append(times)
        if not traced:
            factors.append(speed.factor(probes + last_burst))
    return {"rounds": rounds, "traced_rounds": traced_rounds, "samples": samples,
            "sample_rounds": sample_rounds, "factors": factors, "digests": digests,
            "failures": failures, "attempted": attempted, "failed": failed}


def layer_metrics(wanted: list[dict], tracer, weight, requested: float, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from weighted spans.

    ``<span name or layer>.self_s``, ``.calls`` and ``.wall_s`` read the span
    summaries; the other names are derived here."""
    self_s, wall_s, calls, amount = summarize(tracer.spans, weight)
    trainings = calls["trainer.train"]
    derived = {
        "nnet.forward.samples": amount["nnet.FusionNet.forward"],
        "nnet.backward.samples": amount["nnet.FusionNet.backward"],
        # No training at all wastes none.
        "trainer.useful_train_frac": requested / trainings if trainings else 1.0,
        "image.bytes_read": amount["image.read_pgm"],
        "image.bytes_written": amount["image.write_pgm"],
        "enhance.mpx": amount["enhance.entry_mpx"],
        "trace.overhead_s": overhead,
    }
    summaries = {"self_s": self_s, "calls": calls, "wall_s": wall_s}
    known = tracer.names | set(LAYERS)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        base, kind = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif base in known and kind in summaries:
            value = summaries[kind][base]
        else:
            raise KeyError(f"per-layer metric {name} names no traced function or layer")
        # Set-up spans weigh 1/SETUPS each, so counts carry float rounding error.
        metrics[name] = {"value": value if metric["unit"] == "s" else round(value, 6),
                         "unit": metric["unit"]}
    return metrics


def run(args, per_layer: list[dict]) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    from hostspeed import HostSpeed  # numpy: only after the thread pinning
    from workloads import WORKLOADS

    speed = HostSpeed()
    imports, imports_scaled = import_seconds(speed)
    sys.path.insert(0, str(ROOT / "src"))
    from dxpipe import cli

    client = Client(cli, Tracer() if args.trace else None)
    work_root = OUT / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        wl, setups, setups_scaled, setup_digests, failures = set_up(
            WORKLOADS[args.workload], work_root, args.seed, client, speed)
        m = measure(wl, client, args.seconds, bool(args.trace), speed)
        workload_metrics = wl.report(m["rounds"], m["samples"])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    rounds, samples = m["rounds"], m["samples"]
    factors = m["factors"]
    wall = [sum(r.values()) for r in rounds]
    wall_scaled = [w * f for w, f in zip(wall, factors)]
    key = [s * factors[i] for s, i in zip(samples[wl.key_op], m["sample_rounds"][wl.key_op])]
    metrics = {
        "setup_s": (statistics.median(imports_scaled) + statistics.median(setups_scaled),
                    "s", wl.SETUPS),
        "wall_s": (statistics.median(wall_scaled), "s", len(wall)),
        "key_op_s": (statistics.median(key), "s", len(key)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_frac": (m["failed"] / m["attempted"], "ratio", m["attempted"]),
        **workload_metrics,
    }
    failures += m["failures"] + wl.failures
    if m["failed"]:
        failures.append(f"{m['failed']} of {m['attempted']} ops failed")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failures": failures[:20],
        "op_errors": client.errors[:20],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "setup_digests": setup_digests,
        "artefact_digests": m["digests"],
        "raw_metrics": {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": statistics.median(wall),
            "key_op_s": statistics.median(samples[wl.key_op]),
        },
        "import_times_s": imports,
        "import_times_scaled_s": imports_scaled,
        "setup_times_s": setups,
        "setup_times_scaled_s": setups_scaled,
        "round_walls_s": wall,
        "round_factors": factors,
        "probe_times_s": speed.times,
        "op_round_s": {k: [r[k] for r in rounds] for k in rounds[0]},
        "environment": environment(),
    }
    if args.trace:
        traced_wall = [sum(r.values()) for r in m["traced_rounds"]]
        per = {"setup": 1 / wl.SETUPS, "round": 1 / len(traced_wall)}
        record["layers"] = layer_metrics(
            per_layer,
            client.tracer,
            lambda op: per[client.op_group[op]],
            sum(per[g] * n for g, n in client.requested.items()),
            statistics.median(traced_wall) - statistics.median(wall),
        )
        record["layer_self_s"] = {
            group: {layer: self_s[layer] for layer in LAYERS}
            for group in per
            for self_s in [summarize(client.tracer.spans, lambda op, g=group: (
                per[g] if client.op_group[op] == g else 0.0))[0]]
        }
        record["traced_round_walls_s"] = traced_wall
        OUT.mkdir(exist_ok=True)
        client.tracer.write(OUT / f"{args.workload}-s{args.seed}-spans.jsonl.gz")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "radiograph"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "dxpipe" / "cli.py").is_file():
        print(f"error: no dxpipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run(args, spec["per_layer"])
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for metric, m in record["metrics"].items():
        print(f"{args.workload:<10} {metric:<24} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for failure in record["failures"]:
        print(f"check failed: {failure}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = record["layers"] if args.trace else record["metrics"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
