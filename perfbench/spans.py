"""Spans and counters around lagtrace's public functions, installed from outside.

Each layer metric group is a set of public functions of one lagtrace module.
Installing the tracer replaces every binding of those functions in every
``lagtrace`` module namespace (``from .tensorlie import magnus_of_word``
gives ``groupring`` and ``johnson`` their own binding) by a wrapper that
records a span.  A span's self time is its duration minus the durations of
the spans nested directly in it, so the self times of all groups plus the
time outside every span add up to the traced wall time.  Spans read the clock
the tracer is given, which can leave out time the benchmark spends on itself.
"""

from __future__ import annotations

import statistics
import sys

from lagtrace.freegroup import max_image_length

# group -> (module, public functions).  Functions not listed here are not
# wrapped; their time is self time of the nearest wrapped caller.
LAYERS = {
    "freegroup.apply": ("freegroup", ["apply"]),
    "freegroup.mcr": (
        "freegroup",
        ["mcr_compose", "mcr_inverse", "mcr_conjugate", "mcr_commutator"],
    ),
    "freegroup.extends": ("freegroup", ["extends_to_handlebody"]),
    "tensorlie.magnus": ("tensorlie", ["magnus_of_word"]),
    "tensorlie.to_lie": ("tensorlie", ["tensor_to_lie"]),
    "tensorlie.dynkin": ("tensorlie", ["dynkin_map"]),
    "tensorlie.bracket": ("tensorlie", ["lie_bracket"]),
    "groupring.fox_column": (
        "groupring",
        ["fox_bar_expand_column", "fox_expand_column", "fox_abelian_column", "fox_derivative"],
    ),
    "groupring.laurent_det": ("groupring", ["laurent_det"]),
    "groupring.mat": ("groupring", ["mat_mul", "mat_apply", "mat_equal"]),
    "intkernel.kernel": ("intkernel", ["integer_kernel_basis"]),
    "derivations.wedge": (
        "derivations",
        ["wedge_from_derivation", "wedge_to_derivation", "contraction_C"],
    ),
    "derivations.trace": ("derivations", ["lagrangian_trace", "morita_trace"]),
    "derivations.act": ("derivations", ["act_on_derivation", "act_on_trace"]),
    "derivations.bracket": ("derivations", ["derivation_bracket"]),
    "derivations.basis": ("derivations", ["basis_D", "basis_G"]),
    "johnson.sample": ("johnson", ["sample_Ak", "handlebody_sample_library"]),
    "johnson.tau": ("johnson", ["tau"]),
    "johnson.degree": ("johnson", ["johnson_degree"]),
    "magnusrep.verify": (
        "magnusrep",
        [
            "verify_theorem_A",
            "verify_theorem_B",
            "verify_det_contraction",
            "truncated_identity_check",
            "truncated_identity_check_A",
            "crossed_check",
        ],
    ),
    "cli.run_suite": ("cli", ["run_suite"]),
}

# A word of at least this many letters counts as long in the *.long_calls
# counters; degree-3 samples reach 200 to 5,000 letters, suite words stay short.
LONG_WORD = 1000


class Layer:
    __slots__ = ("calls", "self_s", "counts", "maxima", "values")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.values: list[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def top(self, name: str, n: int) -> None:
        if n > self.maxima.get(name, 0):
            self.maxima[name] = n


def _word_in(layer: Layer, args, out) -> None:
    n = len(args[0])
    layer.add("letters_in", n)
    layer.top("letters_max", n)
    layer.add("long_calls", n >= LONG_WORD)


def _magnus(layer: Layer, args, out) -> None:
    _word_in(layer, args, out)
    layer.add("terms_out", len(out.terms))


def _apply(layer: Layer, args, out) -> None:
    layer.add("letters_out", len(out))


def _kernel(layer: Layer, args, out) -> None:
    rows, ncols = args
    layer.add("cells", len(rows) * ncols)
    layer.top("cells_max", len(rows) * ncols)
    layer.add("nullity", len(out))


def _sample(layer: Layer, args, out) -> None:
    layer.values.extend(max_image_length(fm.rep) for fm in out)
    layer.add("certified", len(out))


HOOKS = {
    "apply": _apply,
    "magnus_of_word": _magnus,
    "fox_bar_expand_column": _word_in,
    "fox_expand_column": _word_in,
    "fox_abelian_column": _word_in,
    "fox_derivative": _word_in,
    "integer_kernel_basis": _kernel,
    "sample_Ak": _sample,
}


class Tracer:
    """Wraps the LAYERS functions of an imported lagtrace until uninstalled."""

    def __init__(self, clock):
        self.clock = clock
        self.layers = {group: Layer() for group in LAYERS}
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self._stack: list[float] = []  # child time covered, per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: Layer, hook):
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                layer.self_s += dur - stack.pop()
                layer.calls += 1
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if hook is not None:
                hook(layer, args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("lagtrace.")]
        originals = {}
        for group, (modname, names) in LAYERS.items():
            module = sys.modules["lagtrace." + modname]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(fn, self.layers[group], HOOKS.get(name))
        # yield_ratio: sample_Ak builds exactly one identity_map per candidate
        johnson = sys.modules["lagtrace.johnson"]
        identity_map = johnson.identity_map
        sample = self.layers["johnson.sample"]

        def counted_identity_map(*args):
            sample.add("candidates", 1)
            return identity_map(*args)

        self._restore.append((johnson, "identity_map", identity_map))
        johnson.identity_map = counted_identity_map
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def metrics(self, wall_s: float, hit_ratio: float, scale: float) -> dict[str, float]:
        """Flat per-layer metrics; ``other.self_s`` closes the sum to wall_s.

        Every time, ``wall_s`` too, is multiplied by ``scale``, which keeps
        the sum.
        """
        L = self.layers
        out: dict[str, float] = {}
        for group, layer in L.items():
            out[group + ".calls"] = layer.calls
            out[group + ".self_s"] = layer.self_s * scale

        def count(group, name):
            return L[group].counts.get(name, 0)

        for group in ("tensorlie.magnus", "groupring.fox_column"):
            out[group + ".letters_in"] = count(group, "letters_in")
            out[group + ".letters_max"] = L[group].maxima.get("letters_max", 0)
            out[group + ".long_calls"] = count(group, "long_calls")
        out["freegroup.apply.letters_out"] = count("freegroup.apply", "letters_out")
        out["tensorlie.magnus.terms_out"] = count("tensorlie.magnus", "terms_out")
        out["tensorlie.magnus.hit_ratio"] = hit_ratio
        out["intkernel.kernel.cells"] = count("intkernel.kernel", "cells")
        out["intkernel.kernel.cells_max"] = L["intkernel.kernel"].maxima.get("cells_max", 0)
        out["intkernel.kernel.nullity"] = count("intkernel.kernel", "nullity")
        candidates = count("johnson.sample", "candidates")
        certified = count("johnson.sample", "certified")
        out["johnson.sample.yield_ratio"] = certified / candidates if candidates else 0.0
        image_len = L["johnson.sample"].values  # longest image of each sample
        out["johnson.sample.image_len_max"] = max(image_len, default=0)
        out["johnson.sample.image_len_median"] = (
            statistics.median(image_len) if image_len else 0
        )
        out["other.self_s"] = (wall_s - self.top_s) * scale
        out["trace.wall_s"] = wall_s * scale
        return out
