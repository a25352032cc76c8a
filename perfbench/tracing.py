"""Layer tracing for the benchmark's traced run.

The tracer rebinds the public functions of each tqft2d module, in every
tqft2d module namespace that holds them (so ``tqft2d.cli.evaluate``,
``tqft2d.evaluator.cached_check_all`` and ``tqft2d.groups.commutator_count``
all become wrappers), and restores the originals afterwards. The program
itself is not changed. Each call is one span (name, start, end, parent,
op id), kept in memory and written out at the end of the run. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

MODULES = ("cli", "dsl", "words", "fields", "frobenius", "evaluator", "groups")

# layer -> (defining module, function) pairs timed as that layer's calls.
# cached_check_all lives in frobenius but is the evaluator's validation
# step, so its spans are counted for the layer that calls it.
TRACED = {
    "cli": [("cli", "main")],
    "dsl": [("dsl", "parse"), ("dsl", "format_word")],
    "words": [("words", "decompose_components"), ("words", "is_equivalent"), ("words", "normal_form")],
    "evaluator": [
        ("evaluator", "evaluate"),
        ("evaluator", "matrix_to_json"),
        ("frobenius", "cached_check_all"),
        ("evaluator", "genus_invariant"),
        ("evaluator", "check_relations"),
    ],
    "fields": [("fields", "make_field"), ("fields", "field_spec_from_json")],
    "frobenius": [
        ("frobenius", name)
        for name in (
            "truncated_poly",
            "group_algebra",
            "group_center",
            "algebra_from_json",
            "load_algebra",
            "derive_comultiplication",
            "check_all",
            "check_monoid",
            "check_comonoid",
            "check_frobenius",
            "check_commutative",
            "check_nondegenerate",
        )
    ],
    "groups": [
        ("groups", name)
        for name in (
            "cyclic",
            "product",
            "builtin",
            "from_mul",
            "group_from_json",
            "load_group",
            "conjugacy_classes",
            "commutator_count",
            "dw_partition",
        )
    ],
}

# Work counts recorded per call: input units from the arguments, output
# units from the result.
_ARG_UNITS = {
    "dsl.parse": lambda text, *a, **k: len(text),
    "evaluator.evaluate": lambda w, *a, **k: len(w.layers),
}
_RESULT_UNITS = {"evaluator.evaluate": lambda m: m.rows * m.cols}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent index, op id]
        self.op_id = -1
        self.paused = False
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.units: Counter = Counter()
        self.result_units: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []  # open spans, innermost last
        self._layers: list[str] = []  # their layers
        self._child_ns: list[int] = []
        self._rebound: list = []

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        arg_units = _ARG_UNITS.get(name)
        result_units = _RESULT_UNITS.get(name)
        stack, layers, child_ns, spans = self._stack, self._layers, self._child_ns, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            child_ns.append(0)
            if arg_units is not None:
                self.units[name] += arg_units(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an error once per layer it escapes from
                if parent < 0 or layers[-2] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                layers.pop()
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += end - start
                self.self_ns[name] += end - start - inner
                self.calls[name] += 1
                spans[index] = (name, start, end, parent, self.op_id)
            if result_units is not None:
                self.result_units[name] += result_units(result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [importlib.import_module("tqft2d")]
        namespaces += [importlib.import_module(f"tqft2d.{m}") for m in MODULES]
        for layer, entries in TRACED.items():
            for module, fn_name in entries:
                original = getattr(importlib.import_module(f"tqft2d.{module}"), fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._rebound.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)
        self._rebound.clear()

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(TRACED, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e9
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**header, "fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans},
                fh,
            )


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.self_s", "s/op", "lower"),
    ("cli.calls", "calls/op", "lower"),
    ("cli.errors", "errors/op", "lower"),
    ("dsl.parse_s", "s/op", "lower"),
    ("dsl.parse_calls", "calls/op", "lower"),
    ("dsl.parse_chars_per_s", "chars/s", "higher"),
    ("dsl.format_s", "s/op", "lower"),
    ("dsl.errors", "errors/op", "lower"),
    ("words.decompose_s", "s/op", "lower"),
    ("words.decompose_calls", "calls/op", "lower"),
    ("words.equiv_s", "s/op", "lower"),
    ("words.normal_form_s", "s/op", "lower"),
    ("words.normal_form_max_width", "count", "lower"),
    ("words.errors", "errors/op", "lower"),
    ("evaluator.evaluate_s", "s/op", "lower"),
    ("evaluator.evaluate_calls", "calls/op", "lower"),
    ("evaluator.layers_per_s", "layers/s", "higher"),
    ("evaluator.entries_per_s", "entries/s", "higher"),
    ("evaluator.output_entries", "entries/call", "lower"),
    ("evaluator.output_density", "ratio", "lower"),
    ("evaluator.to_json_s", "s/op", "lower"),
    ("evaluator.validate_s", "s/op", "lower"),
    ("evaluator.validate_cache_hit_ratio", "ratio", "higher"),
    ("evaluator.genus_invariant_s", "s/op", "lower"),
    ("evaluator.check_relations_s", "s/op", "lower"),
    ("evaluator.errors", "errors/op", "lower"),
    ("fields.nonint_ratio", "ratio", "lower"),
    ("fields.max_scalar_bits", "bits", "lower"),
    ("fields.errors", "errors/op", "lower"),
    ("frobenius.construct_s", "s/op", "lower"),
    ("frobenius.derive_s", "s/op", "lower"),
    ("frobenius.check_all_s", "s/op", "lower"),
    ("frobenius.check_all_calls", "calls/op", "lower"),
    ("frobenius.mutants_detected_ratio", "ratio", "higher"),
    ("frobenius.errors", "errors/op", "lower"),
    ("groups.construct_s", "s/op", "lower"),
    ("groups.conjugacy_s", "s/op", "lower"),
    ("groups.oracle_s", "s/op", "lower"),
    ("groups.oracle_tuples", "tuples/op", "lower"),
    ("groups.oracle_tuples_per_s", "tuples/s", "higher"),
    ("groups.errors", "errors/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_CONSTRUCT = {
    "frobenius": ("truncated_poly", "group_algebra", "group_center", "algebra_from_json", "load_algebra"),
    "groups": ("cyclic", "product", "builtin", "from_mul", "group_from_json", "load_group"),
}
_CHECKS = ("check_all", "check_monoid", "check_comonoid", "check_frobenius", "check_commutative", "check_nondegenerate")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(t: Tracer, n_ops: int, facts: Counter, max_facts: Counter,
                  cache_hits: int, cache_misses: int, overhead_ratio: float,
                  host_factor: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass of n_ops ops; times and counts are per op.

    `facts` are counts computed from the pass's inputs and outputs
    (output matrix entries, oracle tuples, mutants); they are computed,
    not measured. Span times are multiplied by `host_factor`, the factor that
    normalises the pass's op latencies to the reference host.
    """

    def per_op(x: float) -> float:
        return x / n_ops

    def names(layer, fns):
        return [f"{layer}.{fn}" for fn in fns]

    def self_s(*fns: str) -> float:
        return t.self_s(*fns) * host_factor

    parse_s = self_s("dsl.parse")
    evaluate_s = self_s("evaluator.evaluate")
    oracle_s = self_s("groups.commutator_count", "groups.dw_partition")
    values = {
        "cli.self_s": per_op(self_s("cli.main")),
        "cli.calls": per_op(t.calls["cli.main"]),
        "dsl.parse_s": per_op(parse_s),
        "dsl.parse_calls": per_op(t.calls["dsl.parse"]),
        "dsl.parse_chars_per_s": _ratio(t.units["dsl.parse"], parse_s),
        "dsl.format_s": per_op(self_s("dsl.format_word")),
        "words.decompose_s": per_op(self_s("words.decompose_components")),
        "words.decompose_calls": per_op(t.calls["words.decompose_components"]),
        "words.equiv_s": per_op(self_s("words.is_equivalent")),
        "words.normal_form_s": per_op(self_s("words.normal_form")),
        "words.normal_form_max_width": max_facts["nf_width"],
        "evaluator.evaluate_s": per_op(evaluate_s),
        "evaluator.evaluate_calls": per_op(t.calls["evaluator.evaluate"]),
        "evaluator.layers_per_s": _ratio(t.units["evaluator.evaluate"], evaluate_s),
        "evaluator.entries_per_s": _ratio(t.result_units["evaluator.evaluate"], evaluate_s),
        "evaluator.output_entries": _ratio(
            t.result_units["evaluator.evaluate"], t.calls["evaluator.evaluate"]
        ),
        "evaluator.output_density": _ratio(facts["nonzeros"], facts["entries"]),
        "evaluator.to_json_s": per_op(self_s("evaluator.matrix_to_json")),
        "evaluator.validate_s": per_op(self_s("evaluator.cached_check_all")),
        "evaluator.validate_cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "evaluator.genus_invariant_s": per_op(self_s("evaluator.genus_invariant")),
        "evaluator.check_relations_s": per_op(self_s("evaluator.check_relations")),
        "fields.nonint_ratio": _ratio(facts["nonint"], facts["entries"]),
        "fields.max_scalar_bits": max_facts["max_bits"],
        "frobenius.construct_s": per_op(self_s(*names("frobenius", _CONSTRUCT["frobenius"]))),
        "frobenius.derive_s": per_op(self_s("frobenius.derive_comultiplication")),
        "frobenius.check_all_s": per_op(self_s(*names("frobenius", _CHECKS))),
        "frobenius.check_all_calls": per_op(t.calls["frobenius.check_all"]),
        "frobenius.mutants_detected_ratio": _ratio(facts["mutants_detected"], facts["mutants"]),
        "groups.construct_s": per_op(self_s(*names("groups", _CONSTRUCT["groups"]))),
        "groups.conjugacy_s": per_op(self_s("groups.conjugacy_classes")),
        "groups.oracle_s": per_op(oracle_s),
        "groups.oracle_tuples": per_op(facts["oracle_tuples"]),
        "groups.oracle_tuples_per_s": _ratio(facts["oracle_tuples"], oracle_s),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in TRACED:
        values[f"{layer}.errors"] = per_op(t.errors[layer])
    return values
