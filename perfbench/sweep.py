"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--baseline perfbench/baseline.json]

It runs every workload of BENCHMARK.json once per seed, then once traced
with seed TRACE_SEED.  Each run is ``python3 perfbench/run.py`` in its own
process, as BENCHMARK.json names it.  For every end-to-end metric this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, against
the metric's bound, and the same for the unscaled times.  With ``--baseline``
it also writes the medians, quartiles and sample counts of every workload
metric and unscaled time, the artefact digests per seed, the traced
layer-share table and the environment to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"
TRACE_SEED = 1


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable if a == "python3" else a for a in spec["command"]]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {proc.stdout[-1500:]}")
    return json.loads((OUT / f"{workload}-s{seed}-t{trace}.json").read_text())


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return ""


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def layer_shares(record: dict) -> dict:
    """Self seconds per layer and its share of the layer total, for one
    set-up and for one round of the traced run."""
    shares = {}
    for group, self_s in record["layer_self_s"].items():
        total = sum(self_s.values())
        shares[group] = {layer: {"self_s": v, "share": v / total}
                         for layer, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
    return shares


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in whys:
        records = [run_once(spec, workload, seed, 0) for seed in seeds_from(args.seeds)]
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            metrics[name] = {"unit": records[0]["metrics"][name]["unit"],
                             "samples_per_run": records[0]["metrics"][name]["n"],
                             **quartiles(values)}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:.2f} {'ok' if metrics[name]['spread'] < bound / 3 else 'WIDE'}")
            m = metrics[name]
            print(f"{workload:<10} {name:<24} median {m['median']:<12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {flag}",
                  flush=True)
        raw = {name: quartiles([r["raw_metrics"][name] for r in records])
               for name in records[0]["raw_metrics"]}
        for name, m in raw.items():
            print(f"{workload:<10} {name + ' (raw)':<24} median {m['median']:<12.6g} s      "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.3f}",
                  flush=True)
        entry = {
            "why": whys[workload],
            "metrics": metrics,
            "raw_metrics": raw,
            "digests": {r["seed"]: {**r["setup_digests"], **r["artefact_digests"]}
                        for r in records},
        }
        traced = run_once(spec, workload, TRACE_SEED, 1)
        entry["trace_seed"] = TRACE_SEED
        entry["layer_shares"] = layer_shares(traced)
        entry["layers"] = {k: v["value"] for k, v in traced["layers"].items()}
        for group, shares in entry["layer_shares"].items():
            print(f"{workload:<10} {group:<6} " + ", ".join(
                f"{layer} {100 * v['share']:.1f}%" for layer, v in shares.items()
                if v["self_s"]), flush=True)
        baseline["workloads"][workload] = entry
        baseline["environment"] = {**records[-1]["environment"], "cpu_model": cpu_model()}
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
