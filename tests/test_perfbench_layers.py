"""The benchmark's traced run can still wrap every entry point it names.

``perfbench/layers.py`` looks class methods up in the class ``__dict__``, so
a store name bound to a class that only inherits ``get``/``put`` breaks
``--trace 1`` runs while ``--trace 0`` runs never notice.  This test loads
that file as it is and installs and removes its wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layers.py"
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    if "." in attribute:
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
    return getattr(owner, attribute)


def test_every_entry_point_is_wrapped_and_restored():
    layers = _load_layers()
    assert len(layers.ENTRY_POINTS) == 29
    originals = [_target(module, attribute) for module, attribute, _, _ in layers.ENTRY_POINTS]
    wrappers = layers.LayerWrappers(layers.SpanRecorder())
    try:
        wrappers.install()
        assert len(wrappers._originals) == 29
        for (module, attribute, _, _), original in zip(layers.ENTRY_POINTS, originals):
            wrapped = _target(module, attribute)
            assert wrapped is not original, f"{module}.{attribute} not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        wrappers.remove()
    for (module, attribute, _, _), original in zip(layers.ENTRY_POINTS, originals):
        assert _target(module, attribute) is original
