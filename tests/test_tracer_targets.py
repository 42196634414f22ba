"""Every boundary the benchmark tracer wraps must exist in the package.

``perfbench/spans.py`` patches each ``(module, attribute path)`` of its
``TARGETS`` list when a run is traced; a name deleted from ``kinsde`` would
break ``perfbench/run.py --trace 1`` only when that run happens.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, path) for module, path, _ in mod.TARGETS]


@pytest.mark.parametrize("module, path", tracer_targets(), ids=lambda v: v)
def test_target_resolves(module, path):
    mod = importlib.import_module(module)
    if "." in path:
        # the tracer patches the class's own attribute, not an inherited one
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name)), f"{module}.{path}"
    else:
        assert callable(getattr(mod, path, None)), f"{module}.{path}"
