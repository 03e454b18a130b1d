"""Every attribute perfbench's tracer wraps must resolve, so a change that
renames or drops a traced name fails here and not only under ``--trace 1``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TARGETS  # noqa: E402


def test_every_traced_attribute_resolves():
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in TARGETS
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert not missing, f"traced names that no longer resolve: {missing}"
