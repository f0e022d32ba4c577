"""The benchmark's tracer (perfbench/tracer.py) wraps the functions named in
its LAYERS table from outside the package, so a deletion or rename in the
package breaks the traced benchmark.  This pins that every name resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, fns in tracer.LAYERS.items():
        mod = importlib.import_module(f"koszulpow.{mod_name}")
        for fn in fns:
            obj = mod
            for part in fn.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{fn}")
    assert tracer.span_names() and not missing
