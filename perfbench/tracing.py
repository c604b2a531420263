"""Outside-in tracing of susyqm's layers, with no change to the package.

``Tracer.install`` rebinds every public function of the layer modules
(``grid``, ``operators``, ``engine``, ``partner``, ``models``, ``cli``) to a
timing wrapper, in its defining module and in every module that imported it
by name. It also wraps the ``apply`` and ``to_dense`` methods of the three
operator classes, the tridiagonal eigensolver the engine imported and
``numpy.linalg.eigh``. Spans are kept in memory as
``[name, start, end, parent, raised, note]``; ``summarize`` turns them into
per-layer self times and counts.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy

LAYERS = ("grid", "operators", "engine", "partner", "models", "cli")
OPERATOR_CLASSES = ("LinearOperator", "AntilinearOperator", "MixedOperator")
# cli.fmt formats each printed float (four per grid point in a partner report);
# a span per call would cost more than the work it measures.
UNTRACED = {"cli.fmt"}

BUILD = {"operators." + f for f in (
    "second_derivative", "momentum", "parity_operator", "hamiltonian",
    "delta_well_hamiltonian", "momentum_squared_hamiltonian", "supercharge_Q",
    "supercharge_q_pair", "rotor_basis_operators", "rotor_supercharge",
    "rotor_supercharge_pair")}
ALGEBRA = {"operators." + f for f in (
    "add", "subtract", "scale", "commutator", "anticommutator", "frobenius_norm")}
ENGINE_CALLS = ("algebra_residuals", "detect_pairing", "ground_state_check",
                "eq5_action_table")

# span name -> what to record from (args, result) of each call
NOTES = {
    "operators.to_dense": lambda args, result: result.nbytes,
    "engine.numeric_spectrum": lambda args, result: args[0].storage,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        package = importlib.import_module("susyqm")
        modules = {layer: importlib.import_module(f"susyqm.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                traced = self._wrap(name, fn)
                for namespace in namespaces:
                    if vars(namespace).get(attr) is fn:
                        self._patch(namespace, attr, traced)
        operators = modules["operators"]
        for cls_name in OPERATOR_CLASSES:
            cls = getattr(operators, cls_name)
            for method in ("apply", "to_dense"):
                if method in vars(cls):
                    self._patch(cls, method, self._wrap(f"operators.{method}", vars(cls)[method]))
        engine = modules["engine"]
        self._patch(engine, "eigh_tridiagonal",
                    self._wrap("engine.eigh_tridiagonal", engine.eigh_tridiagonal))
        self._patch(numpy.linalg, "eigh", self._wrap("engine.eigh", numpy.linalg.eigh))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans: list[list], wall_s: float, passes: int) -> dict[str, float]:
    """Per-pass self times and counts of the traced layers.

    A span's self time is its duration minus the durations of its direct
    children. ``wall_s`` is the traced time of all passes together; what
    no span covers is reported as ``trace.unattributed_s``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, raised, note) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        errors[name.split(".")[0]] += raised
        if note is not None:
            notes[name].append(note)

    def layer_s(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    storages = Counter(notes["engine.numeric_spectrum"])
    m = {
        "operators.compose.s": self_s["operators.compose"],
        "operators.compose.calls": calls["operators.compose"],
        "operators.to_dense.calls": calls["operators.to_dense"],
        "operators.to_dense.bytes": sum(notes["operators.to_dense"]),
        "operators.apply.s": self_s["operators.apply"],
        "operators.apply.calls": calls["operators.apply"],
        "operators.build.s": sum(self_s[k] for k in BUILD),
        "operators.hamiltonian.s": self_s["operators.hamiltonian"],
        "operators.algebra.s": sum(self_s[k] for k in ALGEBRA),
        "operators.self_s": layer_s("operators"),
        "engine.numeric_spectrum.s": self_s["engine.numeric_spectrum"],
        "engine.numeric_spectrum.dense_calls": storages["dense"],
        "engine.numeric_spectrum.tridiag_calls": storages["tridiag"],
        "engine.eigh.s": self_s["engine.eigh"],
        "engine.eigh.calls": calls["engine.eigh"],
        "engine.eigh_tridiagonal.s": self_s["engine.eigh_tridiagonal"],
        "engine.eigh_tridiagonal.calls": calls["engine.eigh_tridiagonal"],
        **{f"engine.{f}.s": self_s[f"engine.{f}"] for f in ENGINE_CALLS},
        "engine.build_check.self_s": self_s["engine.build_check"],
        "engine.self_s": layer_s("engine"),
        "partner.partner_potential.s": self_s["partner.partner_potential"],
        "partner.box_to_free_scan.s": self_s["partner.box_to_free_scan"],
        "partner.self_s": layer_s("partner"),
        "grid.s": layer_s("grid"),
        "models.s": layer_s("models"),
        "cli.self_s": layer_s("cli"),
        **{f"{layer}.errors": errors[layer] for layer in LAYERS},
    }
    attributed = sum(self_s.values())
    m["trace.unattributed_s"] = wall_s - attributed
    m["trace.attributed_frac"] = attributed / wall_s
    m["trace.spans"] = len(spans)
    per_pass = {k: v / passes for k, v in m.items() if k != "trace.attributed_frac"}
    per_pass["trace.attributed_frac"] = m["trace.attributed_frac"]
    return per_pass
