"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.cli import main


class TestDemo:
    def test_runs_and_reports(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "ground truth" in out and "F1" in out


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "q12: archery" in out
        assert "Coffee and Cigarettes" in out


class TestQuery:
    def test_online_query(self, capsys):
        sql = (
            "SELECT MERGE(clipID) FROM (PROCESS movie PRODUCE clipID, "
            "obj USING ObjectDetector, act USING ActionRecognizer) "
            "WHERE act='smoking' AND obj.include('cup')"
        )
        assert main(["query", sql, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "mode=online" in out
        assert "sequences:" in out

    @pytest.mark.parametrize("where, applied", [
        ("act='smoking' AND obj.include('cup')", True),
        ("act='smoking' OR obj.include('cup')", False),
    ])
    def test_predicate_order_on_an_or_query_says_it_does_not_apply(
        self, capsys, where, applied
    ):
        sql = (
            "SELECT MERGE(clipID) FROM (PROCESS movie PRODUCE clipID, "
            "obj USING ObjectDetector, act USING ActionRecognizer) "
            f"WHERE {where}"
        )
        args = ["query", sql, "--scale", "0.05", "--stats-json"]
        assert main([*args, "--predicate-order", "cost"]) == 0
        plan_line, _sequences, stats = capsys.readouterr().out.splitlines()
        assert ("--predicate-order cost not applied" in plan_line) != applied
        assert json.loads(stats)["predicate_order_applied"] is applied
        # Nothing was asked for: nothing to report, for either shape.
        assert main(args) == 0
        plan_line, _sequences, stats = capsys.readouterr().out.splitlines()
        assert "not applied" not in plan_line
        assert "predicate_order_applied" not in json.loads(stats)

    def test_offline_query(self, capsys):
        sql = (
            "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS movie "
            "PRODUCE clipID, obj USING ObjectTracker, act USING "
            "ActionRecognizer) WHERE act='smoking' AND "
            "obj.include('wine glass', 'cup') "
            "ORDER BY RANK(act, obj) LIMIT 3"
        )
        assert main(["query", sql, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "mode=offline" in out
        assert "random" in out


class TestErrorBoundary:
    """A ``repro.errors`` failure ends in one stderr line and exit code 2,
    never a traceback."""

    def test_query_with_malformed_sql(self, capsys):
        assert main(["query", "SELEC foo", "--movie", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: expected SELECT, found 'SELEC' (at position 0)\n"
        )
        assert captured.out == ""

    def test_topk_without_a_repository(self, tmp_path, capsys):
        assert main(["topk", str(tmp_path), "--action", "smoking"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: no repository manifest under ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra", [[], ["--shards", "2"], ["--json"]])
    def test_topk_over_a_label_nothing_carries(self, tmp_path, capsys, extra):
        """A typo used to print no rows and exit 0."""
        from repro.storage.synth import SYNTH_ACTION, synthetic_repository

        synthetic_repository(n_videos=2, n_clips=20, seed=1).save(tmp_path)
        argv = ["topk", str(tmp_path), "--action", SYNTH_ACTION, "--objects", "typo"]
        assert main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: no ingested video carries label 'typo'\n"
        )
        assert captured.out == ""

    def test_repo_info_audits_the_column_data(self, tmp_path, capsys):
        """``load`` checks the arena's size only; ``repo info`` streams it
        through sha256, so a same-size bit flip is caught there."""
        from repro.storage.synth import synthetic_repository

        synthetic_repository(n_videos=2, n_clips=20, seed=1).save(tmp_path)
        assert main(["repo", "info", str(tmp_path)]) == 0
        capsys.readouterr()
        arena = tmp_path / "columns.bin"
        blob = bytearray(arena.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arena.write_bytes(bytes(blob))
        assert main(["repo", "info", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "repro: error: checksum mismatch for columns.bin under "
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["topk", "{dir}", "--action", "smoking"],
            ["topk", "{dir}", "--action", "smoking", "--shards", "2"],
            ["repo", "info", "{dir}"],
        ],
        ids=["topk", "topk-shards", "repo-info"],
    )
    def test_a_saved_shard_tree_is_refused(self, tmp_path, capsys, argv):
        """Shards no longer persist: a tree an earlier ``repro repo shard``
        wrote (``shard-manifest.json`` beside ``shard-000/``, no manifest
        of its own) is one error line, never a traceback."""
        from repro.storage.synth import synthetic_repository

        synthetic_repository(n_videos=2, n_clips=20, seed=1).save(tmp_path / "shard-000")
        (tmp_path / "shard-manifest.json").write_text(json.dumps({
            "format": "sharded-1", "n_shards": 1, "shard_dirs": ["shard-000"],
            "video_order": ["v0", "v1"], "assignment": {"v0": 0, "v1": 0},
        }))
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: no repository manifest under ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def finals(lines):
    """The ``final`` lines of a ``repro serve`` run, in stream order."""
    return sorted(line for line in lines if line.startswith("final"))


class TestServe:
    def test_cancel_and_migration_share_one_stepping_loop(self, capsys):
        """``--cancel-after`` used to be checked only after the
        ``--snapshot-at`` migration, so the cancel fired at clip 32."""
        args = ["serve", "--scale", "0.05", "--cancel-after", "10"]
        assert main([*args, "--snapshot-at", "20"]) == 0
        migrated = capsys.readouterr().out.splitlines()
        assert main(args) == 0
        plain = capsys.readouterr().out.splitlines()
        assert [line for line in migrated if line.startswith("cancel")] == [
            "cancel : coffee-and-cigarettes/q0 at clip 16"
        ]
        assert any("captured v2 bundle" in line for line in migrated)
        assert len(finals(plain)) == 2
        assert finals(migrated) == finals(plain)

    def test_a_migration_after_the_first_stream_ended(self, capsys):
        """The resumed service holds no ended stream; the loop used to ask
        it for the first stream's position and exit with "no stream"."""
        args = ["serve", "--scale", "0.05"]
        assert main([*args, "--snapshot-at", "150"]) == 0
        migrated = capsys.readouterr().out.splitlines()
        assert main(args) == 0
        plain = capsys.readouterr().out.splitlines()
        assert any("captured v2 bundle (1 streams)" in line for line in migrated)
        assert finals(migrated) == finals(plain)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def test_ctrl_c_is_one_line_and_exit_130(monkeypatch, capsys):
    def interrupted(_args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "list", interrupted)
    try:
        code = main(["list"])
    except KeyboardInterrupt:  # the traceback this test guards against
        code = None
    assert code == 130
    assert capsys.readouterr().err == "repro: interrupted\n"
