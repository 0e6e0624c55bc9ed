"""Cross-module behaviour of the project-backed rules, plus mutation
tests: for each flow-sensitive rule, editing the code under analysis
flips the verdict in the expected direction."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.lint.project import ProjectIndex, VersionLock, index_module
from repro.lint.runner import lint_paths, lint_source, update_version_lock

FIXTURES = Path(__file__).parent / "fixtures"
SESSION_PY = Path("src/repro/core/session.py")


def _line_of(source: str, needle: str, *, after: str | None = None) -> int:
    """1-based line of the first ``needle`` (optionally after ``after``)."""
    lines = source.splitlines()
    start = 0
    if after is not None:
        start = next(i for i, line in enumerate(lines) if after in line)
    for offset, line in enumerate(lines[start:], start=start + 1):
        if needle in line:
            return offset
    raise AssertionError(f"{needle!r} not found")


# -- RL008 is cross-module by construction -------------------------------------------


class TestVersionLatticeCrossModule:
    """The acceptance scenario: copy core/session.py into a scratch tree,
    edit its ``state_dict`` keys *without* touching CHECKPOINT_VERSION,
    and the project-index pass must report the missing bump against the
    committed version lock."""

    def _scratch_tree(self, tmp_path: Path, source: str) -> Path:
        target = tmp_path / "src" / "repro" / "core" / "session.py"
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        return tmp_path / "src"

    def test_unmodified_copy_is_clean(self, tmp_path: Path) -> None:
        root = self._scratch_tree(tmp_path, SESSION_PY.read_text("utf-8"))
        report = lint_paths([root], select=["RL008"])
        assert report.findings == []

    def test_key_change_without_bump_is_reported(self, tmp_path: Path) -> None:
        source = SESSION_PY.read_text("utf-8")
        mutated = source.replace(
            '"trace": list(self._trace),', '"trace_v7": list(self._trace),'
        )
        assert mutated != source
        root = self._scratch_tree(tmp_path, mutated)
        report = lint_paths([root], select=["RL008"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 1
        assert "added: trace_v7" in messages[0]
        assert "removed: trace" in messages[0]
        assert "bump the version constant" in messages[0]

    def test_bumped_constant_flags_the_stale_lock(self, tmp_path: Path) -> None:
        source = SESSION_PY.read_text("utf-8").replace(
            "CHECKPOINT_VERSION = 6", "CHECKPOINT_VERSION = 7"
        )
        root = self._scratch_tree(tmp_path, source)
        report = lint_paths([root], select=["RL008"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 1
        assert "differs from the locked value" in messages[0]
        assert "--update-version-lock" in messages[0]

    def test_update_version_lock_settles_the_edit(self, tmp_path: Path) -> None:
        """The intended workflow: change keys AND bump AND re-record."""
        source = (
            SESSION_PY.read_text("utf-8")
            .replace(
                '"trace": list(self._trace),',
                '"trace_v7": list(self._trace),',
            )
            .replace("CHECKPOINT_VERSION = 6", "CHECKPOINT_VERSION = 7")
        )
        root = self._scratch_tree(tmp_path, source)
        lock_path = tmp_path / "version_lock.json"
        update_version_lock([root], lock_path=lock_path)
        report = lint_paths([root], select=["RL008"], lock_path=lock_path)
        assert report.findings == []

    def test_removing_the_version_guard_flips_the_dispatch_check(
        self, tmp_path: Path
    ) -> None:
        """Mutation: strip load_state_dict's version validation and RL008
        reports the restore as reading but never rejecting."""
        source = SESSION_PY.read_text("utf-8")
        mutated = source.replace(
            '        version = state.get("version")\n'
            "        if version != CHECKPOINT_VERSION:\n"
            "            raise ConfigurationError(\n"
            '                f"unsupported checkpoint version {version!r}; '
            'this build "\n'
            '                f"reads version {CHECKPOINT_VERSION} only"\n'
            "            )\n",
            '        version = state.get("version")\n',
        )
        assert mutated != source
        ast.parse(mutated)  # the surgery must leave valid syntax
        root = self._scratch_tree(tmp_path, mutated)
        report = lint_paths([root], select=["RL008"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 1
        assert "never rejects" in messages[0] or "without dispatching" in messages[0]


# -- mutation tests: editing the code flips each verdict -----------------------------


class TestMutations:
    def test_rl006_awaiting_the_sleep_clears_the_finding(self) -> None:
        source = (FIXTURES / "rl006_async.py").read_text("utf-8")
        path = "src/repro/service/fixture_mod.py"
        before = {f.line for f in lint_source(path, source) if f.code == "RL006"}
        bad_line = _line_of(source, "time.sleep(0.5)")
        assert bad_line in before
        mutated = source.replace(
            "    time.sleep(0.5)  # line 17: finding",
            "    await asyncio.sleep(0.5)",
        )
        after = {f.line for f in lint_source(path, mutated) if f.code == "RL006"}
        assert after == before - {bad_line}

    def test_rl007_removing_the_guard_flips_goodgate(self) -> None:
        source = (FIXTURES / "rl007_lifecycle.py").read_text("utf-8")
        path = "src/repro/core/fixture_mod.py"
        before = [f for f in lint_source(path, source) if f.code == "RL007"]
        mutated = source.replace(
            "    def close(self):\n"
            "        if self._state == CLOSED:\n"
            '            raise ConfigurationError("already closed")\n'
            "        self._state = CLOSED",
            "    def close(self):\n        self._state = CLOSED",
            1,  # first occurrence only: GoodGate.close
        )
        assert mutated != source
        after = [f for f in lint_source(path, mutated) if f.code == "RL007"]
        assert len(after) == len(before) + 1
        goodgate_close = _line_of(mutated, "def close", after="class GoodGate")
        assert goodgate_close in {f.line for f in after}

    def test_rl009_dropping_the_pickle_protocol_flips_safecarrier(self) -> None:
        source = (FIXTURES / "rl009_fork.py").read_text("utf-8")
        path = "src/repro/core/fixture_mod.py"
        before = [f for f in lint_source(path, source) if f.code == "RL009"]
        mutated = source.replace(
            "    def __getstate__(self):\n"
            '        return {"_pos": self._pos}\n'
            "\n"
            "    def __setstate__(self, state):\n"
            '        self._pos = state["_pos"]\n'
            "        self._lock = threading.Lock()\n",
            "",
        )
        assert mutated != source
        after = [f for f in lint_source(path, mutated) if f.code == "RL009"]
        assert len(after) == len(before) + 1
        submit_line = _line_of(
            mutated, "pool.submit(_task, carrier)", after="def good_safe_carrier"
        )
        assert submit_line in {f.line for f in after}

    def test_rl010_removing_the_refund_flips_the_verdict(self) -> None:
        source = (FIXTURES / "rl010_meter.py").read_text("utf-8")
        path = "src/repro/core/fixture_mod.py"
        before = [f for f in lint_source(path, source) if f.code == "RL010"]
        mutated = source.replace(
            '        meter.refund("detector", len(clips))\n',
            "",
            1,  # first occurrence only: good_refund_before_raise
        )
        assert mutated != source
        after = [f for f in lint_source(path, mutated) if f.code == "RL010"]
        assert len(after) == len(before) + 1
        charge_line = _line_of(
            mutated, "meter.record(", after="def good_refund_before_raise"
        )
        assert charge_line in {f.line for f in after}


# -- the blocking-call closure -------------------------------------------------------


class TestBlockingClosure:
    def _index(self) -> ProjectIndex:
        naps = (
            "import time\n"
            "\n"
            "def nap():\n"
            "    time.sleep(1)\n"
            "\n"
            "async def async_nap():\n"
            "    nap()\n"
        )
        user = (
            "from helpers.naps import nap\n"
            "\n"
            "def outer():\n"
            "    nap()\n"
            "\n"
            "def unrelated():\n"
            "    return 1\n"
        )
        index = ProjectIndex()
        index.add(
            index_module("src/helpers/naps.py", "helpers.naps", ast.parse(naps))
        )
        index.add(
            index_module("src/helpers/user.py", "helpers.user", ast.parse(user))
        )
        return index

    def test_direct_and_transitive_blocking(self) -> None:
        blocking = self._index().blocking_functions()
        assert blocking["helpers.naps.nap"] == "time.sleep"
        assert blocking["helpers.user.outer"] == "via helpers.naps.nap()"
        assert "helpers.user.unrelated" not in blocking

    def test_async_functions_do_not_propagate(self) -> None:
        """Calling an async def returns a coroutine; it cannot make the
        *caller* blocking, so the fixpoint never grows through one."""
        caller = (
            "from helpers.naps import async_nap\n"
            "\n"
            "def schedules():\n"
            "    async_nap()\n"
        )
        index = self._index()
        index.add(
            index_module(
                "src/helpers/sched.py", "helpers.sched", ast.parse(caller)
            )
        )
        assert "helpers.sched.schedules" not in index.blocking_functions()


# -- version lock persistence --------------------------------------------------------


class TestVersionLock:
    def test_round_trip(self, tmp_path: Path) -> None:
        lock = VersionLock(
            {"repro.x.Y": ("X_VERSION", 3, ("a", "b", "version"))}
        )
        path = tmp_path / "lock.json"
        lock.save(path)
        assert VersionLock.load(path) == lock

    def test_unknown_format_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "lock.json"
        path.write_text(json.dumps({"format": 99, "entries": {}}))
        with pytest.raises(ValueError, match="format"):
            VersionLock.load(path)

    def test_committed_lock_matches_the_live_tree(self) -> None:
        """Regenerating the lock from src/ must be a no-op — i.e. the
        committed version_lock.json is in sync with the code."""
        from repro.lint.project import DEFAULT_LOCK_PATH
        from repro.lint.runner import build_index, collect_files

        parsed = {}
        for file_path in collect_files([Path("src")]):
            rel = file_path.as_posix()
            parsed[rel] = ast.parse(
                file_path.read_text("utf-8"), filename=rel
            )
        live = VersionLock.from_index(build_index(parsed, lock_path=None))
        assert live == VersionLock.load(DEFAULT_LOCK_PATH)
