"""The public surface can only shrink.

Every ``__all__`` entry of every ``repro`` package must resolve, and the
online entry points the top-level package exports are pinned here: a class
in ``repro.__all__`` that runs clips (it has ``run``, ``advance`` or
``start``).  A change that drops one shortens ``ONLINE_ENTRY_POINTS``; a
change that adds one has to add it here, in plain sight.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_importing_repro_loads_no_worker_machinery():
    """``import repro`` loaded ``multiprocessing`` only for the sharded
    top-K's process executor; the thread pool of
    :mod:`repro.utils.executors` imports ``concurrent.futures`` when a
    caller asks for one."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_no_module_starts_a_process_pool():
    """Four worker processes bought 1.09x on two cores for sharded top-K,
    and the ingest pool had no caller, so both went.  A new one is a
    design change: nothing under ``src/repro`` imports ``multiprocessing``
    or names ``ProcessPoolExecutor``."""
    package = Path(repro.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [
                f"{path.relative_to(package)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] == "multiprocessing"
                or name == "ProcessPoolExecutor"
            ]
    assert found == []
