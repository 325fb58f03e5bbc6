"""Per-layer tracing of an in-process ``neglab.cli.main`` call.

The layers are the package's modules.  ``install`` rebinds the names by
which one layer calls into another to timing wrappers, from outside the
package:

* every public function of a library module, in its home module and in
  every module that imported it (``neglab.cli.make_dist``,
  ``neglab.entropy.negate``, ...); rebinding the home module also catches
  function-level imports such as ``from .entropy import shannon_entropy``;
* ``ProbDist.__post_init__`` and ``Certificate.__post_init__``, so a
  construction anywhere is validation or certificate time, and counted;
* ``FunctionSpec.__call__``, counted only (it runs inside jensen);
* ``neglab.cli._load_file`` as the load layer;
* ``neglab.cli.json`` and ``neglab.cli.csv``, whose writers are the
  render layer.

A span opens only when the layer changes, so ``calls`` counts entries
into a layer and a layer calling itself costs no span.  A layer's self
time is its span time minus the time of the spans it opened; the self
times of all layers therefore add up to the traced ``main()`` time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

LIBRARY = ("distribution", "negation", "entropy", "jensen", "dissimilarity", "certificates")
LAYERS = ("cli", "load", *LIBRARY, "render")
COUNTS = (
    "distribution.probdist_built",
    "certificates.built",
    "jensen.f_evals",
    "load.bytes",
    "render.bytes",
)


class _Proxy:
    """Forwards attribute reads to ``target`` except the overridden names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _CountingFile:
    """File wrapper adding every written character to ``render.bytes``.

    The CLI writes ASCII only (``json`` escapes the rest), so characters
    are bytes.
    """

    def __init__(self, fh, counts: dict):
        self._fh = fh
        self._counts = counts

    def write(self, text):
        self._counts["render.bytes"] += len(text)
        return self._fh.write(text)


class Tracer:
    """Self time and calls per layer plus the named counts, for one run."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []  # [layer, time spent in child spans]
        self._undo: list[tuple] = []

    def span(self, layer: str, fn, count: str | None = None, size=None):
        """``fn`` wrapped in a span of ``layer``.

        ``count`` names a counter bumped on every call, ``size(args,
        result)`` a byte count added to ``<layer>.bytes``.
        """
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if size:
                counts[f"{layer}.bytes"] += size(args, result)
            return result

        return wrapper

    def _counter(self, fn, count: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Rebind the cross-layer names of the imported neglab package."""
        cli = sys.modules["neglab.cli"]
        modules = {name: sys.modules[f"neglab.{name}"] for name in LIBRARY}
        callers = [cli, *modules.values()]
        for layer, home in modules.items():
            for name in home.__all__:
                fn = getattr(home, name)
                if not (inspect.isfunction(fn) and fn.__module__ == home.__name__):
                    continue
                wrapped = self.span(layer, fn)
                for mod in callers:
                    if getattr(mod, name, None) is fn:
                        self._rebind(mod, name, wrapped)

        probdist = modules["distribution"].ProbDist
        certificate = modules["certificates"].Certificate
        function_spec = modules["jensen"].FunctionSpec
        self._rebind(probdist, "__post_init__", self.span(
            "distribution", probdist.__post_init__, count="distribution.probdist_built"))
        self._rebind(certificate, "__post_init__", self.span(
            "certificates", certificate.__post_init__, count="certificates.built"))
        self._rebind(function_spec, "__call__", self._counter(
            function_spec.__call__, "jensen.f_evals"))

        self._rebind(cli, "_load_file", self.span(
            "load", cli._load_file, size=lambda args, _: os.path.getsize(args[0])))
        json_mod, csv_mod = cli.json, cli.csv
        counts = self.counts
        self._rebind(cli, "json", _Proxy(
            json_mod,
            dumps=self.span("render", json_mod.dumps, size=lambda _, text: len(text)),
            dump=self.span("render", lambda obj, fp, **kw: json_mod.dump(
                obj, _CountingFile(fp, counts), **kw)),
        ))

        def writer(factory):
            def make(fh, *args, **kwargs):
                w = factory(_CountingFile(fh, counts), *args, **kwargs)
                methods = ("writerow", "writerows", "writeheader")
                return _Proxy(w, **{m: self.span("render", getattr(w, m))
                                    for m in methods if hasattr(w, m)})
            return make

        self._rebind(cli, "csv", _Proxy(
            csv_mod, writer=writer(csv_mod.writer), DictWriter=writer(csv_mod.DictWriter)))

    def exact(self) -> dict:
        """The metrics that must repeat exactly: calls per layer and the counts."""
        return {**{f"{layer}.calls": n for layer, n in self.calls.items()}, **self.counts}

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
