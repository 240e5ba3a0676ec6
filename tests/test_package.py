import importlib

import chern_gate

MODULES = (
    "exact",
    "obstruction",
    "pipeline",
    "report",
    "riemann_roch",
    "ring",
    "scenario",
    "search",
)


def test_package_exports_exactly_the_module_public_names():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"chern_gate.{name}")
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = module
    assert len(chern_gate.__all__) == len(set(chern_gate.__all__))
    assert set(chern_gate.__all__) == {"__version__", *owner}
    for public, module in owner.items():
        assert getattr(chern_gate, public) is getattr(module, public), public
