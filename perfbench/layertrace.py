"""Per-layer tracing of dynzeta, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module with
a wrapper, in every dynzeta module namespace that bound it (for example
`dynzeta.sequences.divisors` as well as `dynzeta.arith.divisors`), plus the
public methods listed in METHODS. Nothing under src/ is edited.

Time is aggregated, never stored per call: a wrapper entered from another
layer pushes a frame, and on return adds its duration minus the time spent
in other layers' wrappers below it to its layer's self time. A call from
inside the same layer only counts, so a layer's time is never counted twice.
Leaf functions such as `is_prime`, `valuation` and `moebius` go through the
same aggregate path, so millions of calls cost counters, not records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arith", "sequences", "series", "words", "exponents", "compiler", "jsonio", "cli")
METHODS = {"series": {"FixSource": ("value", "prefix")}, "compiler": {"CompileResult": ("admits",)}}
SIZES = ("small", "large")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, seconds spent in other layers below]
        self.size = "small"
        self.fn_calls: Counter = Counter()  # "layer.function" -> calls
        self.self_s = defaultdict(float)  # (layer, size) -> seconds
        self.request_self = defaultdict(float)  # layer -> seconds, current request
        self.counters: Counter = Counter()
        self.max_coeff_bits = 0
        self.max_int = 0
        self.requests_with_transform = 0
        self._transform_seen = False

    # -- request boundaries, driven by the worker --------------------------------

    def begin(self, size: str) -> None:
        self.size = size
        self.request_self.clear()
        self._transform_seen = False

    def end(self) -> dict:
        if self._transform_seen:
            self.requests_with_transform += 1
        return {layer: s for layer, s in self.request_self.items() if s}

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("dynzeta")
        modules = {layer: importlib.import_module(f"dynzeta.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replaced[fn] = self._wrap(layer, name, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    qual = f"{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(layer, qual, getattr(cls, meth)))
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        pre = _PRE.get(qual)
        post = _POST.get(qual)
        stack, fn_calls, request_self = self.stack, self.fn_calls, self.request_self
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[qual] += 1
            nested = bool(stack) and stack[-1][0] == layer
            if pre is not None:
                pre(tracer, args, kwargs)
            if nested:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    own = elapsed - frame[1]
                    tracer.self_s[layer, tracer.size] += own
                    request_self[layer] += own
                    if stack:
                        stack[-1][1] += elapsed
            if post is not None:
                post(tracer, args, kwargs, result, nested)
            return result

        return wrapper

    # -- observations -----------------------------------------------------------------

    def note_int(self, value: int) -> None:
        if abs(value).bit_length() > self.max_int.bit_length():
            self.max_int = abs(value)

    def metrics(self) -> dict:
        """Per-layer metrics in the benchmark's names (no trace overhead)."""
        from oracles import decimal_digits

        out = {}
        for layer in LAYERS:
            calls = sum(c for q, c in self.fn_calls.items() if q.split(".", 1)[0] == layer)
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = sum(self.self_s[layer, s] for s in SIZES)
            for s in SIZES:
                out[f"{layer}.self_s.{s}"] = self.self_s[layer, s]
        for fn in ("divisors", "moebius", "factorize", "is_prime"):
            out[f"arith.{fn}.calls"] = self.fn_calls[f"arith.{fn}"]
        c = self.counters
        out["sequences.transform_terms"] = c["transform_terms"]
        out["sequences.transforms_per_verdict"] = (
            self.fn_calls["sequences.mobius_transform"] / self.requests_with_transform
            if self.requests_with_transform else 0.0)
        out["series.coeffs"] = c["series_coeffs"]
        out["series.max_coeff_bits"] = self.max_coeff_bits
        out["series.nonintegral_share"] = (
            c["nonintegral"] / c["log_zeta_coeffs"] if c["log_zeta_coeffs"] else 0.0)
        out["words.eval_points"] = c["eval_points"]
        out["words.gen_applications"] = c["gen_applications"]
        out["words.normal_form.calls"] = self.fn_calls["words.normal_form"]
        admits = self.fn_calls["compiler.CompileResult.admits"]
        out["compiler.admits.calls"] = admits
        out["compiler.admitted_ratio"] = c["admitted"] / admits if admits else 0.0
        out["compiler.word_gens"] = c["word_gens"]
        out["exponents.apply_spec.calls"] = self.fn_calls["exponents.apply_spec"]
        out["exponents.map_evals"] = c["map_evals"]
        out["exponents.probe_transforms"] = c["probe_transforms"]
        out["jsonio.bytes_in"] = c["bytes_in"]
        out["jsonio.bytes_out"] = c["bytes_out"]
        out["jsonio.max_int_digits"] = decimal_digits(self.max_int)
        for code in (0, 1, 2):
            out[f"cli.exit{code}"] = c[f"exit{code}"]
        return out


# -- per-function observers: pre(tracer, args, kwargs), post(..., result, nested) --

def _transform(tr, args, kwargs, result, nested):
    tr.counters["transform_terms"] += len(_arg(args, kwargs, 0, "entries"))
    tr._transform_seen = True


def _probe(tr, args, kwargs):
    if tr.stack and tr.stack[-1][0] == "exponents":
        tr.counters["probe_transforms"] += 1


def _series_result(log_or_zeta: bool):
    def post(tr, args, kwargs, result, nested):
        coeffs = result.coeffs
        tr.counters["series_coeffs"] += len(coeffs) - 1
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
        tr.max_coeff_bits = max(tr.max_coeff_bits, bits)
        if log_or_zeta:
            tr.counters["log_zeta_coeffs"] += len(coeffs)
            tr.counters["nonintegral"] += sum(c.denominator != 1 for c in coeffs)
    return post


def _eval_range(tr, args, kwargs, result, nested):
    word, max_n = _arg(args, kwargs, 0, "word"), _arg(args, kwargs, 1, "max_n")
    tr.counters["eval_points"] += max_n
    tr.counters["gen_applications"] += len(word.gens) * max_n


def _eval_word(tr, args, kwargs, result, nested):
    tr.counters["eval_points"] += 1
    tr.counters["gen_applications"] += len(_arg(args, kwargs, 0, "word").gens)


def _eval_generator(tr, args, kwargs, result, nested):
    if not nested:  # inside eval_word the point is already counted
        tr.counters["eval_points"] += 1
        tr.counters["gen_applications"] += 1


def _admits(tr, args, kwargs, result, nested):
    tr.counters["admitted"] += bool(result)


def _compiled(tr, args, kwargs, result, nested):
    tr.counters["word_gens"] += len(result.word.gens)


def _map_evals(index):
    def pre(tr, args, kwargs):
        tr.counters["map_evals"] += _arg(args, kwargs, index, "max_n")
    return pre


def _ints_in(tr, args, kwargs):
    for value in _arg(args, kwargs, 0, "entries"):
        tr.note_int(value)


def _ints_out(tr, args, kwargs, result, nested):
    for value in result:
        tr.note_int(value)


def _fractions_in(tr, args, kwargs):
    for c in _arg(args, kwargs, 0, "series").coeffs:
        tr.note_int(c.numerator)
        tr.note_int(c.denominator)


def _fractions_out(tr, args, kwargs, result, nested):
    _fractions_in(tr, (result,), {})


_PRE = {
    "sequences.check_realizable": _probe,
    "exponents.membership_test": _map_evals(2),
    "exponents.preimage_structure": _map_evals(2),
    "exponents.check_divisibility_properties": _map_evals(1),
    "jsonio.sequence_to_json": _ints_in,
    "jsonio.series_to_json": _fractions_in,
}
_POST = {
    "sequences.mobius_transform": _transform,
    "series.zeta_from_fix": _series_result(True),
    "series.log_series": _series_result(True),
    "series.exp_series": _series_result(False),
    "series.series_mul": _series_result(False),
    "series.series_pow": _series_result(False),
    "words.eval_range": _eval_range,
    "words.eval_word": _eval_word,
    "words.eval_generator": _eval_generator,
    "compiler.CompileResult.admits": _admits,
    "compiler.compile_spec": _compiled,
    "jsonio.sequence_from_json": _ints_out,
    "jsonio.series_from_json": _fractions_out,
}
