"""Cross-module behaviour of the project-backed rule (RL008) and the
version lock it reads."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.lint.project import VersionLock
from repro.lint.runner import lint_paths, update_version_lock

SESSION_PY = Path("src/repro/core/session.py")


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
            '"trace": list(self._trace),', '"trace_v8": list(self._trace),'
        )
        assert mutated != source
        root = self._scratch_tree(tmp_path, mutated)
        report = lint_paths([root], select=["RL008"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 1
        assert "added: trace_v8" in messages[0]
        assert "removed: trace" in messages[0]
        assert "bump the version constant" in messages[0]

    def test_bumped_constant_flags_the_stale_lock(self, tmp_path: Path) -> None:
        source = SESSION_PY.read_text("utf-8").replace(
            "CHECKPOINT_VERSION = 7", "CHECKPOINT_VERSION = 8"
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
                '"trace_v8": list(self._trace),',
            )
            .replace("CHECKPOINT_VERSION = 7", "CHECKPOINT_VERSION = 8")
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
            "                f\"{getattr(state, 'path', 'session checkpoint')}.version: \"\n"
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
