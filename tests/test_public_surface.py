"""The public surface can only shrink.

Every ``__all__`` entry of every ``repro`` package must resolve, and the
online entry points the top-level package exports are pinned here: a class
in ``repro.__all__`` that runs clips (it has ``run``, ``advance`` or
``start``).  A change that drops one shortens ``ONLINE_ENTRY_POINTS``; a
change that adds one has to add it here, in plain sight.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

#: ``MultiQueryScheduler`` is kept only for svqbench and goes next (ROADMAP 13).
ONLINE_ENTRY_POINTS = ["FleetRun", "MultiQueryScheduler", "OnlineEngine", "StreamSession"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}, which it does not define"


def test_the_online_entry_points_are_the_committed_ones():
    exported = sorted(
        name
        for name in repro.__all__
        if inspect.isclass(getattr(repro, name))
        and any(
            callable(getattr(getattr(repro, name), method, None))
            for method in ("run", "advance", "start")
        )
    )
    assert exported == ONLINE_ENTRY_POINTS
