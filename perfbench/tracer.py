"""Run one koszulpow CLI job with spans around the public layer functions.

Usage: python3 perfbench/tracer.py SPANS_OUT [CLI ARGS...]

The wrapping happens from outside the package: after ``import koszulpow``
every function named in ``LAYERS`` is replaced by a timing wrapper, in its
defining module and in every other ``koszulpow`` module that bound it by
``from ... import``.  An alias left unpatched would let calls bypass the
span silently, so ``install`` fails loudly if one remains in a container it
cannot rebind.  Spans (name, start, end, parent) and counters stay in
memory and are written as one JSON file when the job ends; the benchmark
computes self time from them.  Span times are thread CPU time (see Tracer).  ``koszulpow.poly`` is not wrapped: spans per
polynomial operation would swamp the run, so its cost shows up as the self
time of its callers.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import thread_time

# module -> public functions ("Class.method" for methods).  Left out because
# no CLI job of the workloads reaches them: ideals.PowerReducer.reduce (used
# only by resolution.augment) and extensions.theta_representative (splice at
# s = 2 only).
LAYERS = {
    "linalg": ["rref", "Echelon.insert", "Echelon.reduce", "sparse_rank",
               "smith_normal_form"],
    "homology": ["tor", "homology_ranks", "tor_products", "induced_tor_map",
                 "freeness_check", "koszul_regularity_probe",
                 "coker_transfer_ranks"],
    "chain": ["tensor_mod_I", "map_slice", "GradedSlice.sparse_rows",
              "GradedSlice.rank", "verify_complex", "constant_matrix",
              "compose"],
    "resolution": ["build_k_ris", "homology_slice_dims", "verify_exactness",
                   "reduction_chain_map", "dga_multiply"],
    "spectral": ["e1_page", "e2_page", "collapse_check", "support_blocks"],
    "ideals": ["hilbert_function"],
    "koszul": ["verify_identities", "del_map"],
    "extensions": ["iterated_splice", "splice"],
    "cli": ["render_report"],
}


def _rref_counts(args, kwargs, result):
    matrix, n_cols = args[0], args[1]
    return {"cells": len(matrix) * n_cols}


def _sparse_rank_counts(args, kwargs, result):
    return {"nnz": sum(len(r) for r in args[0])}


def _map_slice_counts(args, kwargs, result):
    zero = result.domain.zero()
    cells = len(result.row_basis) * len(result.col_basis)
    nnz = sum(len(r) - r.count(zero) for r in result.rows)
    return {"cells": cells, "nnz": nnz}


def _render_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


# span name -> f(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "linalg.rref": _rref_counts,
    "linalg.sparse_rank": _sparse_rank_counts,
    "chain.map_slice": _map_slice_counts,
    "cli.render_report": _render_counts,
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Span recorder.

    A span is [name, start, end, parent, aux]: parent is the enclosing span
    in the same thread (None at the top of a thread) and aux is the time
    spent inside this span computing its children's counters, which belongs
    to no layer and is excluded from self time.  Times are read from the
    calling thread's CPU clock, so spans running in the `--workers` thread
    pool neither count the wait for the interpreter lock nor the parent's
    wait for them: with one thread running at a time, self times summed
    over all threads stay within the job's wall time.
    """

    def __init__(self):
        self.names = span_names()
        self.spans: list[list] = []
        self.local = threading.local()
        self.counters: dict[str, int] = {}
        self.counter_lock = threading.Lock()

    def stack(self) -> list[list]:
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            return self.local.stack

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        counter = COUNTERS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            parent = stack[-1] if stack else None
            span = [name_id, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(span)
            span[1] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = thread_time()
                stack.pop()
            if counter is not None:
                t0 = thread_time()
                counts = counter(args, kwargs, result)
                with self.counter_lock:
                    for key, inc in counts.items():
                        full = f"{name}.{key}"
                        self.counters[full] = self.counters.get(full, 0) + inc
                if parent is not None:
                    parent[4] += thread_time() - t0
            return result

        return wrapper

    def install(self) -> None:
        import koszulpow  # noqa: F401  (loads every submodule)
        import koszulpow.cli  # noqa: F401
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "koszulpow" or k.startswith("koszulpow.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"koszulpow.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                orig = getattr(home, fn_name)
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                        elif isinstance(val, (dict, list, tuple)) and \
                                any(v is orig for v in
                                    (val.values() if isinstance(val, dict)
                                     else val)):
                            raise RuntimeError(
                                f"{mod.__name__}.{key} holds {name}; "
                                f"calls through it would bypass the span")

    def write(self, path: str) -> None:
        """Write the spans with parents as indices (-1 at a thread's top)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[nid, start, end, -1 if parent is None else index[id(parent)],
                 aux] for nid, start, end, parent, aux in self.spans]
        doc = {"names": self.names, "spans": rows, "counters": self.counters}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: tracer.py SPANS_OUT [CLI ARGS...]", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import koszulpow.cli
    try:
        return koszulpow.cli.run(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
