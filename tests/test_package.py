"""The package surface: each module's __all__ is the one list of its public names."""

import importlib

import timescatter

EXPORTING_MODULES = ("errors", "media", "waves", "scatter", "oracle", "cascade", "verify")


def test_star_import_yields_all_without_duplicates():
    namespace = {}
    exec("from timescatter import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(timescatter.__all__)
    assert len(set(timescatter.__all__)) == len(timescatter.__all__)


def test_each_export_is_the_object_its_module_lists():
    owners = {}
    for name in EXPORTING_MODULES:
        module = importlib.import_module(f"timescatter.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} is listed by {owners[public].__name__} and {name}"
            owners[public] = module
    assert sorted(owners) == sorted(timescatter.__all__)
    for public, module in owners.items():
        assert getattr(timescatter, public) is getattr(module, public)


def test_media_helpers_import_from_their_module_only():
    from timescatter.media import check_medium, phase_speed

    assert callable(check_medium) and callable(phase_speed)
    assert "check_medium" not in timescatter.__all__
    assert "phase_speed" not in timescatter.__all__
