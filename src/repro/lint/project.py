"""The project symbol index — phase one of the two-phase analyzer.

The index pass parses every file once and summarises what cross-module
rules need into plain dataclasses:

* per module: classes, functions, module-level ``*_VERSION`` constants,
  and the import table (local name → project dotted name);
* per class: methods, ``state_dict`` string-key sets, the paired version
  constant (detected from ``"version": SOME_VERSION`` in a returned dict
  literal or a ``version=SOME_VERSION`` constructor keyword), whether the
  class defines its own pickling protocol, and which attributes carry
  process-unsafe state (locks, open handles, memmaps);
* per function/method: the best-effort set of project callees, plus
  whether the body directly performs a known-blocking call — folded to a
  transitive ``blocking`` set over the whole call graph so RL006 can flag
  an ``async def`` that reaches ``time.sleep`` through two helpers.

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
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "VersionLock",
    "DEFAULT_LOCK_PATH",
    "BLOCKING_CALLS",
    "BLOCKING_ATTR_CALLS",
    "RISKY_FACTORIES",
]

_VERSION_NAME = re.compile(r"^[A-Z][A-Z0-9_]*_VERSION$")

#: Dotted call targets that block the calling thread — the known-blocking
#: call table RL006 seeds its reachability analysis from.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
        "open",
        "input",
    }
)

#: Method names that block regardless of receiver spelling — Pipe/file
#: reads the event loop must never wait on.  Kept narrow (``recv`` not
#: ``get``/``send``) so dict lookups and generator sends stay clean.
BLOCKING_ATTR_CALLS = frozenset(
    {
        "recv",
        "recv_bytes",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
    }
)

#: Constructors whose product must not cross a process boundary: OS
#: handles and synchronisation primitives do not survive pickling (or
#: worse, appear to), and memory maps re-open as private copies.
RISKY_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Event": "lock",
    "threading.Semaphore": "lock",
    "multiprocessing.Lock": "lock",
    "Lock": "lock",
    "RLock": "lock",
    "open": "open handle",
    "np.memmap": "memmap",
    "numpy.memmap": "memmap",
    "memmap": "memmap",
    "mmap.mmap": "memmap",
    "np.lib.format.open_memmap": "memmap",
    "open_memmap": "memmap",
}


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method, reduced to its call-graph footprint."""

    name: str  # qualified within the module: "f" or "Cls.f"
    module: str  # dotted module name
    lineno: int
    is_async: bool
    #: Best-effort callee references: bare names (module-local or
    #: imported), ``self.x`` methods (recorded as ``.x``), and dotted
    #: ``mod.attr`` chains resolved later through the import table.
    calls: tuple[str, ...]
    #: The direct blocking call hit in the body, if any ("time.sleep").
    direct_blocking: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class ClassSummary:
    """One class, reduced to what the cross-module rules consult."""

    name: str
    module: str
    lineno: int
    methods: tuple[str, ...]
    #: Sorted string-literal keys of dict literals returned by
    #: ``state_dict``/``to_dict`` (None when neither method exists or the
    #: return is not statically a dict literal).
    state_dict_keys: tuple[str, ...] | None
    #: Module-level ``*_VERSION`` constant paired with the key set.
    version_constant: str | None
    #: Attribute name → why it is process-unsafe ("lock", "open handle",
    #: "memmap"), from ``__init__`` assignments and dataclass field
    #: defaults.
    risky_attrs: tuple[tuple[str, str], ...]
    #: A class defining its own pickle protocol has taken responsibility
    #: for dropping its unpicklable members (RL009 then trusts it).
    defines_pickle_protocol: bool
    has_lifecycle_table: bool = False

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the index keeps about one source file."""

    path: str
    module: str  # dotted name ("repro.core.session", "tests.lint.test_x")
    classes: tuple[ClassSummary, ...]
    functions: tuple[FunctionSummary, ...]
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
        self._blocking: dict[str, str] | None = None
        self._classes: dict[str, ClassSummary] | None = None
        self._functions: set[str] | None = None
        self._by_module: dict[str, ModuleSummary] | None = None

    # -- construction ------------------------------------------------------------

    def add(self, summary: ModuleSummary) -> None:
        self.modules[summary.path] = summary
        self._invalidate()

    def _invalidate(self) -> None:
        self._blocking = None
        self._classes = None
        self._functions = None
        self._by_module = None

    @classmethod
    def from_sources(
        cls, sources: dict[str, ast.Module], module_names: dict[str, str]
    ) -> "ProjectIndex":
        """Index pre-parsed trees (``path → tree``, ``path → dotted``)."""
        index = cls()
        for path, tree in sources.items():
            index.add(index_module(path, module_names[path], tree))
        return index

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

    def class_by_local_name(
        self, module: ModuleSummary, name: str
    ) -> ClassSummary | None:
        """Resolve a bare class name used in ``module`` — defined locally
        or imported from another indexed module."""
        for cls_summary in module.classes:
            if cls_summary.name == name:
                return cls_summary
        imports = dict(module.imports)
        target = imports.get(name)
        if target is None:
            return None
        return self.classes().get(target)

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

    # -- blocking-call closure ----------------------------------------------------

    def blocking_functions(self) -> dict[str, str]:
        """Transitively-blocking functions: qualified name → the blocking
        call it reaches (``"time.sleep"`` or ``"via <callee>"``)."""
        if self._blocking is not None:
            return self._blocking
        functions: dict[str, FunctionSummary] = {}
        for summary in self.modules.values():
            for fn in summary.functions:
                functions[fn.qualified] = fn
        blocking: dict[str, str] = {
            fn.qualified: fn.direct_blocking
            for fn in functions.values()
            if fn.direct_blocking is not None
        }
        # Fixpoint over the call graph (async functions do not propagate:
        # calling one returns a coroutine, it does not block the caller).
        changed = True
        while changed:
            changed = False
            for fn in functions.values():
                if fn.qualified in blocking or fn.is_async:
                    continue
                module = self._module_named(fn.module)
                if module is None:
                    continue
                for callee in fn.calls:
                    resolved = self.resolve_call(module, fn, callee)
                    if resolved is not None and resolved in blocking:
                        blocking[fn.qualified] = f"via {resolved}()"
                        changed = True
                        break
        self._blocking = blocking
        return blocking

    def _module_named(self, dotted: str) -> ModuleSummary | None:
        if self._by_module is None:
            self._by_module = {
                summary.module: summary for summary in self.modules.values()
            }
        return self._by_module.get(dotted)

    def resolve_call(
        self, module: ModuleSummary, caller: FunctionSummary, callee: str
    ) -> str | None:
        """Resolve one recorded callee reference to a qualified function.

        ``.name`` resolves against the caller's own class; bare names
        against module-level functions then the import table; dotted
        names against the import table's module entries.  Unresolvable
        references (attribute calls on arbitrary objects) return None —
        the analysis stays honest rather than guessing.
        """
        if callee.startswith("."):
            if "." not in caller.name:
                return None
            cls_name = caller.name.split(".", 1)[0]
            candidate = f"{module.module}.{cls_name}{callee}"
            return candidate if self._function_exists(candidate) else None
        imports = dict(module.imports)
        if "." not in callee:
            candidate = f"{module.module}.{callee}"
            if self._function_exists(candidate):
                return candidate
            target = imports.get(callee)
            if target is not None and self._function_exists(target):
                return target
            return None
        head, rest = callee.split(".", 1)
        target = imports.get(head)
        if target is not None:
            candidate = f"{target}.{rest}"
            if self._function_exists(candidate):
                return candidate
        return None

    def _function_exists(self, qualified: str) -> bool:
        if self._functions is None:
            self._functions = {
                fn.qualified
                for summary in self.modules.values()
                for fn in summary.functions
            }
        return qualified in self._functions


# -- single-module indexing ----------------------------------------------------------


def module_dotted_name(module_parts: tuple[str, ...]) -> str:
    return ".".join(module_parts)


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
    classes: list[ClassSummary] = []
    functions: list[FunctionSummary] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes.append(_index_class(node, module))
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        _index_function(stmt, module, owner=node.name)
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_index_function(node, module, owner=None))
    return ModuleSummary(
        path=path,
        module=module,
        classes=tuple(classes),
        functions=tuple(functions),
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


def _index_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    module: str,
    *,
    owner: str | None,
) -> FunctionSummary:
    calls: list[str] = []
    direct_blocking: str | None = None
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = call_target(node)
        if target is None:
            continue
        if direct_blocking is None and is_blocking_call(node, target):
            direct_blocking = target
        calls.append(target)
    name = f"{owner}.{func.name}" if owner else func.name
    return FunctionSummary(
        name=name,
        module=module,
        lineno=func.lineno,
        is_async=isinstance(func, ast.AsyncFunctionDef),
        calls=tuple(dict.fromkeys(calls)),
        direct_blocking=direct_blocking,
    )


def call_target(node: ast.Call) -> str | None:
    """A call's target as a resolvable reference string.

    ``f(...)`` → ``"f"``; ``self.f(...)`` → ``".f"``; ``a.b.f(...)`` →
    ``"a.b.f"``; anything else (subscripts, calls-of-calls) → None.
    """
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    dotted = dotted_name(func)
    if dotted is None:
        return None
    if dotted.startswith("self."):
        return dotted[len("self") :]  # keep the leading dot: ".f"
    return dotted


def is_blocking_call(node: ast.Call, target: str | None = None) -> bool:
    """True when the call hits the known-blocking table."""
    if target is None:
        target = call_target(node)
    if target is None:
        return False
    if target in BLOCKING_CALLS:
        return True
    head, _, attr = target.rpartition(".")
    if attr in BLOCKING_ATTR_CALLS and head:
        return True
    # ``anything.sleep(...)`` blocks however ``time`` was imported —
    # except the async frameworks' own awaitable sleeps.
    return (
        attr == "sleep"
        and bool(head)
        and head.rpartition(".")[2] not in ("asyncio", "anyio", "trio", "self")
    )


def _index_class(cls: ast.ClassDef, module: str) -> ClassSummary:
    methods = tuple(
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    state_keys, version_constant = _state_dict_contract(cls)
    return ClassSummary(
        name=cls.name,
        module=module,
        lineno=cls.lineno,
        methods=methods,
        state_dict_keys=state_keys,
        version_constant=version_constant,
        risky_attrs=tuple(sorted(_risky_attrs(cls).items())),
        defines_pickle_protocol=any(
            m in ("__getstate__", "__reduce__", "__reduce_ex__")
            for m in methods
        ),
        has_lifecycle_table=any(
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "_LIFECYCLE_TRANSITIONS"
                for t in (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
            )
            for stmt in cls.body
        ),
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


def _risky_attrs(cls: ast.ClassDef) -> dict[str, str]:
    """``self.x = threading.Lock()``-style assignments in ``__init__``
    plus dataclass ``field(default_factory=threading.Lock)`` defaults."""
    risky: dict[str, str] = {}
    for stmt in cls.body:
        # Dataclass field defaults at class level.
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and dotted_name(value.func) in ("field", "dataclasses.field")
            ):
                for keyword in value.keywords:
                    if keyword.arg != "default_factory":
                        continue
                    factory = dotted_name(keyword.value)
                    if factory in RISKY_FACTORIES:
                        risky[stmt.target.id] = RISKY_FACTORIES[factory]
        if not (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            factory = (
                dotted_name(node.value.func)
                if isinstance(node.value, ast.Call)
                else None
            )
            if factory not in RISKY_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    risky[target.attr] = RISKY_FACTORIES[factory]
    return risky


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
