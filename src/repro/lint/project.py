"""The project symbol index — phase one of the two-phase analyzer.

The index pass parses every file once and summarises what the
cross-module rule (RL008) needs into plain dataclasses:

* per module: classes, module-level ``*_VERSION`` constants, and the
  import table (local name → project dotted name);
* per class: ``state_dict`` string-key sets and the paired version
  constant (detected from ``"version": SOME_VERSION`` in a returned dict
  literal or a ``version=SOME_VERSION`` constructor keyword).

Summaries hold no AST nodes.

The **version lock** (``version_lock.json`` next to this module) records,
for every version-paired class, the key set its ``state_dict`` had when
the paired constant last moved.  RL008 compares the live key set against
the lock: keys moved while the constant stood still is exactly the
"forgot to bump ``CHECKPOINT_VERSION``" bug, caught at lint time instead
of at resume time.  ``python -m repro.lint --update-version-lock``
refreshes the lock after an intentional bump.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import dotted_name

__all__ = [
    "ClassSummary",
    "ModuleSummary",
    "ProjectIndex",
    "VersionLock",
    "DEFAULT_LOCK_PATH",
]

_VERSION_NAME = re.compile(r"^[A-Z][A-Z0-9_]*_VERSION$")


@dataclass(frozen=True)
class ClassSummary:
    """One class, reduced to what the cross-module rules consult."""

    name: str
    module: str
    #: Sorted string-literal keys of dict literals returned by
    #: ``state_dict``/``to_dict`` (None when neither method exists or the
    #: return is not statically a dict literal).
    state_dict_keys: tuple[str, ...] | None
    #: Module-level ``*_VERSION`` constant paired with the key set.
    version_constant: str | None

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the index keeps about one source file."""

    path: str
    module: str  # dotted name ("repro.core.session", "tests.lint.test_x")
    classes: tuple[ClassSummary, ...]
    #: Module-level integer constants matching ``*_VERSION``.
    version_constants: tuple[tuple[str, int], ...]
    #: Import table: local name → source dotted name
    #: (``from repro.core.session import StreamSession`` →
    #: ``{"StreamSession": "repro.core.session.StreamSession"}``).
    imports: tuple[tuple[str, str], ...]


class ProjectIndex:
    """Merged module summaries plus the derived cross-module tables."""

    def __init__(self, modules: dict[str, ModuleSummary] | None = None) -> None:
        #: path → summary
        self.modules: dict[str, ModuleSummary] = dict(modules or {})
        self.version_lock: "VersionLock" = VersionLock()
        self._classes: dict[str, ClassSummary] | None = None

    # -- construction ------------------------------------------------------------

    def add(self, summary: ModuleSummary) -> None:
        self.modules[summary.path] = summary
        self._classes = None

    # -- lookups -----------------------------------------------------------------

    def classes(self) -> dict[str, ClassSummary]:
        """Qualified class name → summary, across all modules."""
        if self._classes is None:
            self._classes = {
                cls_summary.qualified: cls_summary
                for summary in self.modules.values()
                for cls_summary in summary.classes
            }
        return self._classes

    def module_by_path(self, path: str) -> ModuleSummary | None:
        return self.modules.get(path)

    def versioned_classes(self) -> list[ClassSummary]:
        """Classes paired with a ``*_VERSION`` constant, sorted by name."""
        return sorted(
            (
                c
                for c in self.classes().values()
                if c.version_constant is not None
                and c.state_dict_keys is not None
            ),
            key=lambda c: c.qualified,
        )

    def version_value(self, cls_summary: ClassSummary) -> int | None:
        """Current integer value of a class's paired version constant."""
        for summary in self.modules.values():
            if summary.module != cls_summary.module:
                continue
            for name, value in summary.version_constants:
                if name == cls_summary.version_constant:
                    return value
        return None


# -- single-module indexing ----------------------------------------------------------


def index_module(path: str, module: str, tree: ast.Module) -> ModuleSummary:
    """Summarise one parsed source file."""
    imports = _imports(tree)
    version_constants = tuple(
        sorted(
            (target.id, node.value.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
            for target in node.targets
            if isinstance(target, ast.Name) and _VERSION_NAME.match(target.id)
        )
    )
    return ModuleSummary(
        path=path,
        module=module,
        classes=tuple(
            _index_class(node, module)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        ),
        version_constants=version_constants,
        imports=tuple(sorted(imports.items())),
    )


def _imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


def _index_class(cls: ast.ClassDef, module: str) -> ClassSummary:
    state_keys, version_constant = _state_dict_contract(cls)
    return ClassSummary(
        name=cls.name,
        module=module,
        state_dict_keys=state_keys,
        version_constant=version_constant,
    )


def _state_dict_contract(
    cls: ast.ClassDef,
) -> tuple[tuple[str, ...] | None, str | None]:
    """(sorted state_dict keys, paired version constant) for one class.

    Keys come from dict literals in ``return`` statements of
    ``state_dict``/``to_dict``.  The version pairing is detected two
    ways: a ``"version": SOME_VERSION`` entry in that literal, or a
    ``version=SOME_VERSION`` keyword in any call inside the class (the
    frozen-dataclass idiom, e.g. ``cls(version=SERVICE_BUNDLE_VERSION)``).
    """
    keys: set[str] = set()
    found_literal = False
    version_constant: str | None = None
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name not in ("state_dict", "to_dict"):
            continue
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)):
                continue
            found_literal = True
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                    if key.value == "version":
                        name = dotted_name(value)
                        if name is not None and _VERSION_NAME.match(
                            name.rpartition(".")[2]
                        ):
                            version_constant = name.rpartition(".")[2]
    if version_constant is None:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg != "version":
                    continue
                name = dotted_name(keyword.value)
                if name is not None and _VERSION_NAME.match(
                    name.rpartition(".")[2]
                ):
                    version_constant = name.rpartition(".")[2]
    if not found_literal:
        return None, version_constant
    return tuple(sorted(keys)), version_constant


# -- version lock --------------------------------------------------------------------

DEFAULT_LOCK_PATH = Path(__file__).with_name("version_lock.json")

_LOCK_FORMAT = 1


@dataclass
class VersionLock:
    """Recorded (version value, state_dict key set) per versioned class."""

    #: qualified class → (constant name, version value, sorted keys)
    entries: dict[str, tuple[str, int, tuple[str, ...]]] = field(
        default_factory=dict
    )

    @classmethod
    def load(cls, path: Path = DEFAULT_LOCK_PATH) -> "VersionLock":
        if not path.exists():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("format") != _LOCK_FORMAT:
            raise ValueError(
                f"unsupported version-lock format in {path}; "
                f"expected format {_LOCK_FORMAT}"
            )
        entries = {}
        for qualified, entry in data.get("entries", {}).items():
            entries[str(qualified)] = (
                str(entry["constant"]),
                int(entry["version"]),
                tuple(str(k) for k in entry["keys"]),
            )
        return cls(entries)

    def save(self, path: Path = DEFAULT_LOCK_PATH) -> None:
        payload = {
            "format": _LOCK_FORMAT,
            "entries": {
                qualified: {
                    "constant": constant,
                    "version": version,
                    "keys": list(keys),
                }
                for qualified, (constant, version, keys) in sorted(
                    self.entries.items()
                )
            },
        }
        path.write_text(
            json.dumps(payload, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_index(cls, index: ProjectIndex) -> "VersionLock":
        lock = cls()
        for cls_summary in index.versioned_classes():
            version = index.version_value(cls_summary)
            if version is None or cls_summary.state_dict_keys is None:
                continue
            lock.entries[cls_summary.qualified] = (
                cls_summary.version_constant or "",
                version,
                cls_summary.state_dict_keys,
            )
        return lock
