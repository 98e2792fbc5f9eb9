"""Per-module spans and counters for the traced run.

``install`` wraps the public functions of each ``cocycle`` module (and the
names other modules imported from it) so that every call becomes a span
on one stack.  A layer's self time is its spans' durations minus their
child spans.  Coarse spans (one per CLI command, table, point or check)
are kept in memory with their parent, op and layer and written out when
the run ends; the hot ones (``F`` calls, ``LatticeSolver.h`` per key) are
only aggregated.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [layer, span id, child seconds]
        self.spans: list[tuple] = []  # (op, id, parent id, layer, name, start, end)
        self._next_id = 0
        self.begin_op(-1)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.n: dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, fn, *, record: bool = True, on_result=None):
        """``fn`` as a span of ``layer``; ``on_result(counts, result)`` may
        add counts taken from its return value."""
        name = getattr(fn, "__qualname__", layer)

        def traced(*args, **kwargs):
            stack = self.stack
            self._next_id += 1
            frame = [layer, self._next_id, 0.0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                self.total_s[layer] += dt
                self.self_s[layer] += dt - frame[2]
                if stack:
                    stack[-1][2] += dt
                if record:
                    self.spans.append((self.op, frame[1], parent, layer, name, t0, t1))
            self.n[f"calls:{layer}"] += 1
            if on_result is not None:
                on_result(self.n, result)
            return result

        return traced

    def wrap_kernel(self, evaluate):
        """``FuncSpec.evaluate``: only outermost calls count, since a seed
        kernel evaluates its seed three times inside one call of F."""

        def traced(spec, *args):
            stack = self.stack
            if stack and stack[-1][0] == "F":
                return evaluate(spec, *args)
            caller = stack[-1][0] if stack else "-"
            frame = ["F", 0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = evaluate(spec, *args)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s["F"] += dt
                if stack:
                    stack[-1][2] += dt
            n = self.n
            if any(isinstance(a, np.ndarray) for a in args):
                n["array_calls"] += 1
                n["array_points"] += np.size(out)
                n[f"array_points@{caller}"] += np.size(out)
            else:
                n["scalar_calls"] += 1
                n["scalar_s"] += dt
            n[f"F@{caller}"] += 1
            return out

        return traced

    def dump(self, path: str, per_op: list[dict]) -> None:
        keys = ("op", "id", "parent", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": per_op, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def _replace(modules, name: str, make) -> None:
    """Replace attribute ``name`` in every module that holds the original."""
    original = getattr(modules[0], name)
    wrapped = make(original)
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


class _JsonShim:
    """Stands in for the CLI's ``json`` module so ``json.dumps`` of a table
    counts as serialization."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def _add_len(key):
    def count(n, result):
        n[key] += len(result)

    return count


def install(tracer: Tracer) -> None:
    import cocycle
    from cocycle import cli, continuous, expressions, rational, smooth, verify

    t = tracer
    spans = {
        # layer, modules holding the name, names
        "parse": ((expressions, cli, cocycle),
                  ("builtin_seed", "seed_expression", "bivariate_expression", "cocycle_from_seed")),
        "lattice": ((continuous, cli, cocycle), ("reconstruct_table", "h_rational")),
        "limit": ((continuous, cocycle), ("reconstruct_point",)),
        "grid_keys": ((continuous, cli, cocycle), ("grid_keys",)),
        "residual": ((verify, cli, cocycle), ("kurepa_residual", "symmetry_residual", "cocycle_residual")),
        "bound": ((verify, cli, cocycle), ("check_bound_c0",)),
        "modgrid": ((verify, cocycle), ("modulus_estimate",)),
        "probe": ((verify, cocycle), ("modulus_probe",)),
        "cli": ((cli,), ("run",)),
    }
    for layer, (modules, names) in spans.items():
        for name in names:
            _replace(modules, name, lambda fn, layer=layer: t.wrap(layer, fn))

    def count_keys(n, table):
        n["ck_keys"] += len(table.samples)

    _replace((smooth, cli, cocycle), "reconstruct_ck_table",
             lambda fn: t.wrap("ck", fn, on_result=count_keys))

    def count_steps(n, chain):
        n["chain_calls"] += 1
        n["chain_steps"] += len(chain.steps)

    _replace((continuous, rational, cocycle), "euclid_chain",
             lambda fn: t.wrap("chain", fn, record=False, on_result=count_steps))

    table = continuous.ReconstructedFunction
    table.to_csv_text = t.wrap("serialize", table.to_csv_text, on_result=_add_len("serialize_bytes"))
    table.to_json_obj = t.wrap("serialize", table.to_json_obj)
    cli.json = _JsonShim(t.wrap("serialize", json.dumps, on_result=_add_len("serialize_bytes")))

    solver = continuous.LatticeSolver
    solver.h = t.wrap("lattice", solver.h, record=False)

    kernel_access = solver.H

    def H(self, x, y):
        n = t.n
        before = n["scalar_calls"]
        value = kernel_access(self, x, y)
        n["H_calls"] += 1
        n["H_F"] += n["scalar_calls"] - before
        return value

    solver.H = H

    f_value = solver.f_value

    def traced_f_value(self, r, engine="euclid-chain"):
        if t.stack and t.stack[-1][0] == "limit":
            t.n["limit_levels"] += 1
        return f_value(self, r, engine)

    solver.f_value = traced_f_value
    expressions.FuncSpec.evaluate = t.wrap_kernel(expressions.FuncSpec.evaluate)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, function of the tracer's per-op state)
LAYER_METRICS = {
    "expressions.scalar_calls": ("count", lambda t: t.n["scalar_calls"]),
    "expressions.scalar_call_us": ("us", lambda t: 1e6 * _ratio(t.n["scalar_s"], t.n["scalar_calls"])),
    "expressions.self_s": ("s", lambda t: t.self_s["F"] + t.self_s["parse"]),
    "expressions.array_calls": ("count", lambda t: t.n["array_calls"]),
    "expressions.array_points": ("count", lambda t: t.n["array_points"]),
    "continuous.H_calls": ("count", lambda t: t.n["H_calls"]),
    "continuous.H_miss_ratio": ("ratio", lambda t: _ratio(t.n["H_F"], t.n["H_calls"])),
    "continuous.lattice_self_s": ("s", lambda t: t.self_s["lattice"] + t.self_s["chain"]),
    "continuous.limit_levels": ("count/point", lambda t: _ratio(t.n["limit_levels"], t.n["calls:limit"])),
    "continuous.limit_self_s": ("s", lambda t: t.self_s["limit"]),
    "continuous.grid_keys_s": ("s", lambda t: t.total_s["grid_keys"]),
    "continuous.serialize_s": ("s", lambda t: t.total_s["serialize"]),
    "continuous.serialize_bytes": ("bytes", lambda t: t.n["serialize_bytes"]),
    "rational.chain_calls": ("count", lambda t: t.n["chain_calls"]),
    "rational.chain_steps": ("count", lambda t: t.n["chain_steps"]),
    "smooth.ck_self_s": ("s", lambda t: t.self_s["ck"]),
    "smooth.F_calls_per_key": ("count/key", lambda t: _ratio(t.n["F@ck"], t.n["ck_keys"])),
    "verify.residual_s": ("s", lambda t: t.total_s["residual"]),
    "verify.modulus_grid_s": ("s", lambda t: t.total_s["modgrid"]),
    "verify.modulus_grid_points": ("count", lambda t: t.n["array_points@bound"] + t.n["array_points@modgrid"]),
    "verify.bound_self_s": ("s", lambda t: t.self_s["bound"]),
    "verify.modulus_probe_calls": ("count", lambda t: t.n["calls:probe"]),
    "verify.modulus_probe_s": ("s", lambda t: t.total_s["probe"]),
    "cli.self_s": ("s", lambda t: t.self_s["cli"]),
}


def op_metrics(tracer: Tracer) -> dict[str, float]:
    return {name: float(fn(tracer)) for name, (_, fn) in LAYER_METRICS.items()}
