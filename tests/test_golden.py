"""The golden run as a gate: every file that tools/golden_run.py writes must
have the bytes recorded in tools/golden/.

The record has two parts (see golden_run.ANY_BUILD_DIRS).  The synth and
enhance outputs and the split manifests must match on any build; the files
that go through a GEMM are compared against the build in build.txt, and on
another build the test fails and names both builds.  A planned change of
bytes is re-recorded with `python tools/golden_run.py --record OUT_DIR` and
reviewed as a diff of the record.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("golden_run", TOOLS / "golden_run.py")
golden_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_run)


def _digests(lines) -> dict[str, str]:
    """relpath -> SHA-256 of `sha256  relpath` lines."""
    return {rel: sha for sha, rel in (line.split("  ", 1) for line in lines)}


def _differing(got: dict[str, str], record: dict[str, str]) -> list[str]:
    return [
        f"  {rel}" + ("" if rel in got else " (not written)")
        for rel in sorted(record)
        if got.get(rel) != record[rel]
    ]


def test_the_golden_run_writes_the_recorded_bytes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "golden_run.py"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = _digests(proc.stdout.splitlines()[:-1])
    any_build = _digests((golden_run.GOLDEN / "any_build.sha256").read_text().splitlines())
    recorded = _digests((golden_run.GOLDEN / "recorded_build.sha256").read_text().splitlines())
    recorded_on = (golden_run.GOLDEN / "build.txt").read_text().strip()
    this_build = golden_run.build()

    problems = []
    if differ := _differing(got, any_build):
        problems.append("differ from the record (on any build):\n" + "\n".join(differ))
    if unrecorded := sorted(set(got) - set(any_build) - set(recorded)):
        problems.append("not in the record:\n" + "\n".join(f"  {rel}" for rel in unrecorded))
    differ = _differing(got, recorded)
    if this_build != recorded_on:
        problems.append(
            f"the GEMM files were recorded on another build:\n  recorded: {recorded_on}\n"
            f"  this run: {this_build}\n"
            f"{len(differ)} of {len(recorded)} of them differ" + "".join(f"\n{d}" for d in differ)
        )
    elif differ:
        problems.append(f"differ from the record (build {this_build}):\n" + "\n".join(differ))
    assert not problems, "\n".join(problems)
