"""Call tracing for the benchmark's traced run.

`Tracer.install()` wraps every public function of the fedjets layer modules
and rebinds the wrapper at *every* module attribute that holds the original
function, so calls made through names imported with `from .x import f` are
traced as well as calls through `module.f`. Nothing inside the program
changes; `uninstall()` restores the original bindings.

Each call records a span (name, tag, start, end, parent index). Self time is
a span's duration minus the durations of its direct children. A few
functions also feed counters (packets per aggregation, pretraining epochs,
computed matmul FLOPs of the dense engine).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# The modules of src/fedjets that form the benchmark's layers.
LAYERS = ("experiment", "central", "data", "gating", "runtime", "baselines", "nn", "evaluation", "checkpoint")

MIXTURE = "runtime.mixture_loss_and_grads"
# Dense-engine entry points whose matmul FLOPs are computed from shapes.
ENGINE = ("nn.forward", "nn.forward_to_layer", "nn.loss_and_grad", "nn.backward_from_output_grad")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@functools.lru_cache(maxsize=None)
def _macs(layer_dims: tuple[int, ...]) -> tuple[int, int]:
    """Multiply-accumulates per row for all layers, and for the first layer."""
    per_layer = [a * b for a, b in zip(layer_dims, layer_dims[1:])]
    return sum(per_layer), per_layer[0]


def _engine_flops(name, args, kwargs) -> int:
    """Matmul FLOPs a dense-engine call performs itself (not in child spans).

    Every entry point runs one full forward pass (2*n*macs). The backward
    pass adds the weight gradients (2*n*macs) and the input gradients of
    every layer but the first.
    """
    spec = _arg(args, kwargs, 0, "spec")
    if name == "nn.loss_and_grad":
        rows = _arg(args, kwargs, 2, "batch").inputs.shape[0]
    else:
        rows = _arg(args, kwargs, 2, "inputs").shape[0]
    macs, first = _macs(spec.layer_dims)
    flops = 2 * rows * macs
    if name == "nn.backward_from_output_grad":
        flops += 2 * rows * macs + 2 * rows * (macs - first)
    return flops


def _observe_aggregate(counters, args, kwargs, result):
    counters["runtime.aggregate.packets"] += len(_arg(args, kwargs, 1, "packets"))


def _observe_pretrain(counters, args, kwargs, result):
    counters["central.pretrain.epochs"] += result.epochs


def _engine_observer(name):
    def observe(counters, args, kwargs, result):
        counters["nn.flop"] += _engine_flops(name, args, kwargs)

    return observe


OBSERVERS = {
    "runtime.aggregate": _observe_aggregate,
    "central.pretrain": _observe_pretrain,
    **{name: _engine_observer(name) for name in ENGINE},
}

# Spans of these functions carry a tag, so their self time can be split.
TAGGERS = {"evaluation.evaluate_round": lambda args, kwargs: _arg(args, kwargs, 2, "method")}


def public_functions(package) -> dict:
    """{function object: "layer.name"} for the public functions each layer
    module defines itself (re-exported names belong to their own module)."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                out[obj] = f"{layer}.{attr}"
    return out


def binding_sites(package, functions) -> list[tuple[object, str, object]]:
    """Every (module, attribute, function) of the package binding one of `functions`."""
    prefix = package.__name__ + "."
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in functions:
                sites.append((module, attr, obj))
    return sites


class Tracer:
    """Records spans and counters for calls into the fedjets layers while
    installed. Use as a context manager, or call install()/uninstall()."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        names = public_functions(self.package)
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for module, attr, fn in binding_sites(self.package, wrappers):
            setattr(module, attr, wrappers[fn])
            self._patched.append((module, attr, fn))
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        observe = OBSERVERS.get(name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None if tagger is None else tagger(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, tag, start, end, parent)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def profile(self) -> "Profile":
        return Profile(self.spans, self.counters)


class Profile:
    """Per-function call counts, self times and inclusive times derived
    from spans."""

    def __init__(self, spans, counters):
        n = len(spans)
        child = [0.0] * n
        for name, tag, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counters = Counter(counters)
        in_mixture = [False] * n
        in_engine = [False] * n
        self.engine_s = 0.0  # inclusive time of outermost dense-engine calls
        for i, (name, tag, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
            if tag is not None:
                self.self_s[f"{name}.{tag}"] += own
            under_mixture = parent >= 0 and in_mixture[parent]
            under_engine = parent >= 0 and in_engine[parent]
            in_mixture[i] = name == MIXTURE or under_mixture
            in_engine[i] = name in ENGINE or under_engine
            if under_mixture:
                self.counters[f"{MIXTURE}.{name}"] += 1
            if name in ENGINE and not under_engine:
                self.engine_s += end - start

    def per_call_in_mixture(self, name: str) -> float:
        """Calls of `name` made inside one mixture_loss_and_grads call."""
        calls = self.calls[MIXTURE]
        return self.counters[f"{MIXTURE}.{name}"] / calls if calls else 0.0
