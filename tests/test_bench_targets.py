"""The benchmark's traced runs wrap asdimlab functions by name; every name
they look up must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for mod_name, attr, _, _ in targets:
        mod = importlib.import_module(f"asdimlab.{mod_name}")
        # looked up as tracing.install does: class methods from the class's
        # own __dict__, everything else as a module attribute
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
