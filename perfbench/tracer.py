"""Span tracer for the dxpipe benchmark, installed from outside the program.

It wraps each public function of every ``dxpipe`` module, the ``FusionNet``
methods and the subcommand handlers in ``cli._COMMANDS``.  ``from x import f``
copies a binding into the importing module, so every module attribute that
holds an original function is replaced, not only the defining one.

Spans (name, start, end, parent index, op id, amount) are appended to an
in-memory list and written out only when the run ends.  ``amount`` is a
per-function work count: batch samples for ``FusionNet.forward/backward``,
bytes for the PGM codec and input megapixels for the enhancement stages.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# The layers are the dxpipe modules.
LAYERS = (
    "cli", "image", "synth", "enhance", "phash", "cluster",
    "nnet", "checkpoint", "trainer", "orient", "metrics",
)


def _mpx(args, _result):
    return args[0].width * args[0].height / 1e6


# Work counted per call, keyed by span name.
_AMOUNTS = {
    "nnet.FusionNet.forward": lambda args, _r: len(args[1]),
    "nnet.FusionNet.backward": lambda args, _r: len(args[2]),
    "image.read_pgm": lambda args, _r: len(args[0]),
    "image.write_pgm": lambda _a, result: len(result),
    "enhance.enhance_chain": _mpx,
    "enhance.sharpen": _mpx,
    "enhance.median_filter": _mpx,
    "enhance.hist_equalize": _mpx,
    "enhance.clahe": _mpx,
}

_METHODS = ("forward", "backward", "predict")


class Tracer:
    """Records nested spans while installed; ``uninstall`` restores the program."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._command_patches: list[tuple[str, object]] = []
        self.names: set[str] = set()  # every span name that can occur

    def _wrap(self, name: str, fn):
        self.names.add(name)
        spans, stack = self.spans, self._stack
        amount_of = _AMOUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, 0)
            if amount_of is not None:
                spans[index] = (name, start, end, parent, self.op, amount_of(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if name == "dxpipe" or name.startswith("dxpipe.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        net = modules["nnet"].FusionNet
        for attr in _METHODS:
            original = vars(net)[attr]
            self._patches.append((net, attr, original))
            setattr(net, attr, self._wrap(f"nnet.FusionNet.{attr}", original))
        commands = modules["cli"]._COMMANDS
        for cmd, handler in list(commands.items()):
            self._command_patches.append((cmd, handler))
            commands[cmd] = self._wrap(f"cli.{cmd}", handler)
        self._commands = commands

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for cmd, handler in self._command_patches:
            self._commands[cmd] = handler
        self._patches.clear()
        self._command_patches.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, weight) -> tuple[dict, dict, dict, dict]:
    """Self seconds, wall seconds, calls and amounts per span name, plus self
    seconds and calls per layer.  Each span counts ``weight(op id)`` times."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _amount in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, wall_s, calls, amount = (defaultdict(float) for _ in range(4))
    for i, (name, start, end, parent, op, amt) in enumerate(spans):
        w = weight(op)
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            self_s[key] += w * (end - start - child[i])
            calls[key] += w
        wall_s[name] += w * (end - start)
        amount[name] += w * amt
        # Megapixels count once, where a call enters the enhance layer.
        if layer == "enhance" and (parent < 0 or not spans[parent][0].startswith("enhance.")):
            amount["enhance.entry_mpx"] += w * amt
    return self_s, wall_s, calls, amount
