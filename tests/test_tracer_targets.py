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


def test_traced_problem_builders_evaluate():
    """The tracer re-builds every problem the design flow and E12 build
    (``_patch_builder``); the problems it returns still evaluate, and
    their evaluations reach the traced layers."""
    import numpy as np

    from repro.core.amplifier import AmplifierTemplate
    from repro.core.bands import design_grid, stability_grid
    from repro.core.design import DesignFlow
    from repro.experiments import e12_robust_front
    from repro.experiments.common import reference_device
    from repro.optimize.robust import RobustEvaluator

    device = reference_device().small_signal
    template = AmplifierTemplate(device)
    x = np.full((1, 10), 0.5)
    with _load_layers().LayerTracer() as tracer:
        design_problem = DesignFlow(device).problem
        robust_problem = e12_robust_front.build_robust_problem(
            template, evaluator=RobustEvaluator(
                template, band_grid=design_grid(5),
                guard_grid=stability_grid(6)))
        with tracer.span():
            f, g = design_problem.evaluate(x)
            assert (f.shape, g.shape) == ((1, 2), (1, 5))
            f, g = robust_problem.evaluate(x)
            assert (f.shape, g.shape) == ((1, 3), (1, 5))
    assert tracer.calls["core.objectives"] >= 1
    assert tracer.calls["optimize.robust"] >= 1
