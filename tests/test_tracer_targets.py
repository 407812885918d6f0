"""The end-to-end benchmark's layer tracer still finds every name it patches.

``benchmarks/e2e/layers.py`` wraps package attributes by name
(``vars(owner)[name]``), so deleting or renaming one of its targets
raises ``KeyError`` when a traced run starts.  This test installs the
tracer and uninstalls it again, and checks that every patched attribute
is its original object afterwards.
"""

import importlib.util
from pathlib import Path

LAYERS_PATH = (Path(__file__).resolve().parents[1]
               / "benchmarks" / "e2e" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracer = _load_layers().LayerTracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, name, original in patches:
            assert vars(owner)[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in patches:
        assert vars(owner)[name] is original, (owner, name)
