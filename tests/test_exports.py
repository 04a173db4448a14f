import importlib
import pkgutil

import nverc
from nverc import calib, ham


def test_every_exported_name_resolves():
    modules = [nverc] + [importlib.import_module(f"nverc.{m.name}")
                         for m in pkgutil.iter_modules(nverc.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    # names re-exported at the top level are the objects of their owner
    for owner, names in ((ham, ("EffectiveParams", "effective_params", "dressing_unitary",
                                "compensation_ratio")),
                         (calib, ("phi_from_times",))):
        for name in names:
            assert getattr(nverc, name) is getattr(owner, name), name
