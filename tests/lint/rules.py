"""The engine's five static contracts, one function each.

A rule takes a parsed module and its dotted module path (``("repro",
"core", "session")``), returns at once when the path is outside its scope,
and otherwise yields ``(line, code, message)`` for each violation.  The
rules are syntactic: they see names, not types.  DESIGN.md's "Static
guarantees" says what each contract protects; ``test_selfcheck.py`` runs
them over ``src/repro`` against its allowlist.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator

Module = tuple[str, ...]
Finding = tuple[int, str, str]

REPRO: Module = ("repro",)

#: code -> (module-path prefixes the rule runs on, prefixes it skips).
SCOPES: dict[str, tuple[tuple[Module, ...], tuple[Module, ...]]] = {
    "RL001": ((REPRO,), (("repro", "detectors"),)),
    "RL002": ((REPRO,), ()),
    "RL003": ((("repro", "core"), ("repro", "scanstats"), ("repro", "storage")), ()),
    "RL004": ((REPRO,), ()),
    "RL005": (
        (
            ("repro", "core"),
            ("repro", "scanstats"),
            ("repro", "detectors"),
            ("repro", "storage"),
        ),
        (),
    ),
}


def in_scope(code: str, module: Module) -> bool:
    """True when rule ``code`` runs on the module at ``module``."""
    scopes, skipped = SCOPES[code]

    def under(prefixes: tuple[Module, ...]) -> bool:
        return any(module[: len(prefix)] == prefix for prefix in prefixes)

    return under(scopes) and not under(skipped)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    return {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }


def _ancestors(parents: dict[ast.AST, ast.AST], node: ast.AST) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module node."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


# -- RL001 charge-discipline ----------------------------------------------------------

#: The engine's model-invocation surface (detector/recognizer/tracker
#: protocols) plus the generic names future model wrappers tend to use.
INVOCATION_METHODS = frozenset(
    {
        "score_frame",
        "score_shot",
        "score_video",
        "tracks_in_clip",
        "tracks_in_video",
        "detect",
        "classify",
        "predict",
    }
)

#: Callables that establish the retry boundary.
RETRY_WRAPPERS = frozenset({"invoke_with_retry"})


def charge(tree: ast.Module, module: Module) -> Iterator[Finding]:
    """Model invocations outside ``detectors/`` go through the retry boundary.

    A call counts as inside it when some enclosing lambda or ``def`` is an
    argument of ``invoke_with_retry`` or of a file-local function that
    forwards to it (wrappers of wrappers included, to a fixpoint).
    """
    if not in_scope("RL001", module):
        return
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    wrappers = set(RETRY_WRAPPERS)
    changed = True
    while changed:
        changed = False
        for func in functions:
            if func.name in wrappers:
                continue
            if any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in wrappers
                for sub in ast.walk(func)
            ):
                wrappers.add(func.name)
                changed = True

    parents = _parents(tree)

    def wrapped(call: ast.Call) -> bool:
        node: ast.AST = call
        for parent in _ancestors(parents, call):
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(parent, ast.Call):
                    wrapper = parent.func
                    name = (
                        wrapper.attr
                        if isinstance(wrapper, ast.Attribute)
                        else wrapper.id
                        if isinstance(wrapper, ast.Name)
                        else None
                    )
                    if name in wrappers:
                        return True
            node = parent
        return False

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in INVOCATION_METHODS:
            continue
        if wrapped(node):
            continue
        target = dotted_name(func) or f"<expr>.{func.attr}"
        yield (
            node.lineno,
            "RL001",
            f"direct model invocation {target}(...) outside invoke_with_retry; "
            "route it through the retry boundary (repro.detectors.retry) so "
            "failures are retried and cost is charged exactly once",
        )


# -- RL002 checkpoint-completeness ----------------------------------------------------

#: The writer, the record it writes, then the restore methods.
_STATE_METHODS = ("state_dict", "state", "load_state_dict", "from_state_dict")
_EXCLUDE_ATTR = "_CHECKPOINT_EXCLUDE"


def _assigned_self_attrs(func: ast.AST) -> Iterator[tuple[str, int]]:
    """``(attr, lineno)`` for every ``self.X = ...`` style binding in ``func``."""
    for node in ast.walk(func):
        targets: Iterable[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        else:
            continue
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Starred):
                stack.append(target.value)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, target.lineno


def _excluded_names(cls: ast.ClassDef) -> set[str]:
    """String entries of a class-level ``_CHECKPOINT_EXCLUDE`` literal."""
    names: set[str] = set()
    for stmt in cls.body:
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == _EXCLUDE_ATTR for t in stmt.targets
        ):
            value = stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == _EXCLUDE_ATTR
        ):
            value = stmt.value
        if value is None:
            continue
        if isinstance(value, ast.Call) and value.args:
            # frozenset({...}) / tuple([...]) wrappers
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.add(elt.value)
    return names


def checkpoint(tree: ast.Module, module: Module) -> Iterator[Finding]:
    """A class with ``state_dict`` and a restore method covers its ``__init__``.

    Every ``self.*`` attribute ``__init__`` assigns is mentioned in one of
    the checkpoint methods (under any instance name) or listed in the
    class's ``_CHECKPOINT_EXCLUDE``.
    """
    if not in_scope("RL002", module):
        return
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "state_dict" not in methods or "__init__" not in methods:
            continue
        if not any(name in methods for name in _STATE_METHODS[2:]):
            continue
        covered = _excluded_names(cls)
        for name in _STATE_METHODS:
            if name in methods:
                covered.update(
                    sub.attr
                    for sub in ast.walk(methods[name])
                    if isinstance(sub, ast.Attribute)
                )
        for attr, lineno in _assigned_self_attrs(methods["__init__"]):
            if attr in covered:
                continue
            covered.add(attr)  # one finding an attribute
            yield (
                lineno,
                "RL002",
                f"attribute self.{attr} is assigned in {cls.name}.__init__ "
                "but neither referenced by its checkpoint methods "
                f"({'/'.join(n for n in _STATE_METHODS if n in methods)}) "
                f"nor listed in {cls.name}.{_EXCLUDE_ATTR}; checkpoint it "
                "or declare it reconstructed-by-the-caller",
            )


# -- RL003 determinism ----------------------------------------------------------------

#: Constructors that are fine *when given an explicit seed argument*.
_SEEDABLE = frozenset(
    {
        "random.Random",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.SeedSequence",
        "numpy.random.SeedSequence",
        "np.random.RandomState",
        "numpy.random.RandomState",
        "np.random.Generator",
        "numpy.random.Generator",
    }
)

#: Wall-clock reads that make replays diverge.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


def determinism(tree: ast.Module, module: Module) -> Iterator[Finding]:
    """No unseeded RNG or wall-clock reads in the replay-critical packages.

    Seeded generator construction and the duration clocks
    (``perf_counter``, ``monotonic``) stay legal.
    """
    if not in_scope("RL003", module):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name in _CLOCK_CALLS:
            yield (
                node.lineno,
                "RL003",
                f"wall-clock read {name}() in a replay-critical module; thread "
                "a clock in explicitly (or use time.perf_counter for durations)",
            )
        elif name in _SEEDABLE:
            if not node.args and not node.keywords:
                yield (
                    node.lineno,
                    "RL003",
                    f"{name}() constructed without a seed; pass an explicit "
                    "seed so runs replay",
                )
        elif name.startswith(("random.", "np.random.", "numpy.random.")):
            # Everything else on those modules mutates/reads the
            # process-global RNG stream.
            yield (
                node.lineno,
                "RL003",
                f"global-state RNG call {name}() in a replay-critical module; "
                "use a seeded np.random.Generator owned by the caller instead",
            )


# -- RL004 error-taxonomy -------------------------------------------------------------

#: Builtin exceptions whose direct raise is always fine.
STDLIB_WHITELIST = frozenset(
    {
        "NotImplementedError",
        "KeyError",
        "IndexError",
        "StopIteration",
        "StopAsyncIteration",
        "AssertionError",
        "TimeoutError",
        "KeyboardInterrupt",
        "SystemExit",
    }
)

#: Generic builtins that must be replaced by a taxonomy subclass.
_GENERIC_BUILTINS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "RuntimeError",
        "OSError",
        "IOError",
        "ArithmeticError",
        "ZeroDivisionError",
        "AttributeError",
        "LookupError",
        "EnvironmentError",
    }
)

#: Methods where the attribute protocol *requires* ``AttributeError``.
_ATTRIBUTE_PROTOCOL = ("__getattr__", "__getattribute__", "__setattr__", "__delattr__")


def taxonomy(tree: ast.Module, module: Module) -> Iterator[Finding]:
    """Raises use :mod:`repro.errors`; no bare or swallowed ``except``."""
    if not in_scope("RL004", module):
        return
    parents = _parents(tree)

    def scope_name(node: ast.AST) -> str:
        """Name of the innermost class or function enclosing ``node``."""
        for anc in _ancestors(parents, node):
            if isinstance(anc, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc.name
        return "<module>"

    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = dotted_name(exc)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "AttributeError" and scope_name(node) in _ATTRIBUTE_PROTOCOL:
                continue
            if leaf in _GENERIC_BUILTINS and leaf not in STDLIB_WHITELIST:
                yield (
                    node.lineno,
                    "RL004",
                    f"raise of generic builtin {leaf}; raise the matching "
                    "repro.errors subclass instead (taxonomy classes multiply "
                    f"inherit from the builtins, so `except {leaf}` callers "
                    "keep working)",
                )
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield (
                    node.lineno,
                    "RL004",
                    "bare `except:` also catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions (`except Exception:` at minimum)",
                )
            if all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is ...
                )
                for stmt in node.body
            ):
                yield (
                    node.lineno,
                    "RL004",
                    "exception swallowed (handler body is only `pass`); handle "
                    "it, log it through the stats/meter layer, or narrow the "
                    "caught type and justify it in the allowlist",
                )


# -- RL005 float-equality -------------------------------------------------------------

#: NumPy calls whose result is float-typed regardless of input dtype.
_FLOAT_PRODUCERS = frozenset(
    {
        "mean",
        "average",
        "std",
        "var",
        "median",
        "exp",
        "log",
        "log1p",
        "sqrt",
        "linspace",
        "divide",
        "true_divide",
        "quantile",
        "percentile",
    }
)


def _float_reason(node: ast.expr) -> str | None:
    """Why ``node`` is float-valued, or None if we cannot tell."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float literal {node.value!r}"
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = dotted_name(sub.func)
        if name is None:
            continue
        leaf = name.rsplit(".", 1)[-1]
        if name == "float":
            return "float(...) cast"
        if leaf == "astype" and any(
            isinstance(a, ast.Name) and a.id == "float" for a in sub.args
        ):
            return ".astype(float)"
        if name.startswith(("np.", "numpy.")) and leaf in _FLOAT_PRODUCERS:
            return f"{name}(...)"
    return None


def floats(tree: ast.Module, module: Module) -> Iterator[Finding]:
    """No ``==``/``!=`` on a syntactically float-valued operand in the
    equivalence-critical packages: a float literal, ``float(...)``,
    ``.astype(float)`` or a float-producing NumPy call."""
    if not in_scope("RL005", module):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        reason = next((r for op in operands if (r := _float_reason(op))), None)
        if reason is None:
            continue
        yield (
            node.lineno,
            "RL005",
            f"==/!= on a float-valued expression ({reason}); use np.array_equal "
            "for intentional bit-identity, np.allclose/math.isclose for "
            "tolerance, or allowlist an intentional sentinel check",
        )


#: code -> (name, rule), the catalog DESIGN.md's table mirrors.
RULES: dict[str, tuple[str, Callable[[ast.Module, Module], Iterator[Finding]]]] = {
    "RL001": ("charge-discipline", charge),
    "RL002": ("checkpoint-completeness", checkpoint),
    "RL003": ("determinism", determinism),
    "RL004": ("error-taxonomy", taxonomy),
    "RL005": ("float-equality", floats),
}


def check(source: str, module: Module, codes: Iterable[str] = RULES) -> list[Finding]:
    """Every finding of the rules ``codes`` on one source file, sorted."""
    tree = ast.parse(source)
    return sorted(f for code in codes for f in RULES[code][1](tree, module))


def lint_checkout(root: Path) -> tuple[list[tuple[str, int, str, str]], Counter[str]]:
    """Run every rule over each file of ``root/src/repro``.

    Scopes match the module path taken relative to ``root/src``, wherever
    the checkout lies.  Returns the findings as ``(path relative to root,
    line, code, stripped source line)`` and the number of files each rule
    was applied to.
    """
    src = root / "src"
    findings: list[tuple[str, int, str, str]] = []
    applied: Counter[str] = Counter()
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = parts[:-1] if parts[-1] == "__init__" else parts
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        rel = path.relative_to(root).as_posix()
        for code in RULES:
            applied[code] += in_scope(code, module)
        for line, code, _ in check(source, module):
            findings.append((rel, line, code, lines[line - 1].strip()))
    return findings, applied
