"""Exact and asymptotic enumeration of d-combining tree-child networks."""

__version__ = "0.1.0"

_SUBMODULES = ("asymptotics", "cli", "criteria", "distributions", "exact",
               "networks", "words")


def __getattr__(name):
    """Import a submodule on first use, so `import treechild` loads none."""
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
