"""Self-tests of the layer map and the self-time attribution."""

import cProfile
from pathlib import Path

from bench_layers import (
    HEAPQ,
    LAYER_OF_MODULE,
    LAYERS,
    STDLIB,
    LayerResolver,
    is_unmeasured,
    layer_of_module,
    self_time_by_layer,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _modules() -> list[str]:
    out = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        out.append(module.removesuffix(".__init__"))
    return out


def test_every_module_has_a_layer():
    missing = [m for m in _modules() if not is_unmeasured(m) and layer_of_module(m) not in LAYERS]
    assert not missing, f"modules with no layer (add them to LAYER_OF_MODULE): {missing}"


def test_layer_map_names_existing_modules_and_known_layers():
    modules = set(_modules())
    assert set(LAYER_OF_MODULE) <= modules
    assert set(LAYER_OF_MODULE.values()) <= set(LAYERS)
    assert set(LAYERS) - set(LAYER_OF_MODULE.values()) == {HEAPQ, STDLIB}


def test_unmeasured_modules_stay_out_of_layers():
    for module in _modules():
        if is_unmeasured(module):
            assert layer_of_module(module) is None, module


def test_profile_attribution_charges_kernel_and_heapq():
    from repro.sim.core import Simulator

    def ticker(sim):
        for _ in range(2000):
            yield sim.timeout(1.0)

    sim = Simulator()
    for _ in range(20):
        sim.process(ticker(sim))
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    by_layer, unattributed = self_time_by_layer(profiler.getstats(), LayerResolver(SRC))
    assert by_layer["sim.core"] > 0
    assert by_layer[HEAPQ] > 0
    # The kernel is the only program code that ran: no other layer shows.
    assert set(by_layer) <= {"sim.core", HEAPQ, STDLIB}
    assert unattributed < 0.2 * sum(by_layer.values())
