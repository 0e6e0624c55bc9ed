"""Parser for the SQL-like dialect — the paper's example queries must all
parse."""

from __future__ import annotations

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.ast import ActionEquals, BooleanExpr, ObjectsInclude
from repro.sql.parser import parse

ONLINE = """
SELECT MERGE(clipID) AS Sequence
FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector,
      act USING ActionRecognizer)
WHERE act='jumping' AND obj.include('car', 'human')
"""

OFFLINE = """
SELECT MERGE(clipID) AS Sequence, RANK(act, obj)
FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker,
      act USING ActionRecognizer)
WHERE act='jumping' AND obj.include('car', 'human')
ORDER BY RANK(act, obj) LIMIT 5
"""


class TestPaperQueries:
    def test_online_form(self):
        stmt = parse(ONLINE)
        assert not stmt.is_ranked
        assert stmt.source.video == "inputVideo"
        models = {stream.alias: stream.model for stream in stmt.source.streams}
        assert models == {
            "clipID": None, "obj": "ObjectDetector", "act": "ActionRecognizer",
        }
        assert isinstance(stmt.where, BooleanExpr)
        assert stmt.where.op == "AND"

    def test_offline_form(self):
        stmt = parse(OFFLINE)
        assert stmt.is_ranked
        assert stmt.limit == 5
        assert stmt.order_by.arguments == ("act", "obj")

    def test_inc_alias(self):
        stmt = parse(
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c, o USING D) "
            "WHERE o.inc('car')"
        )
        pred = stmt.where
        assert isinstance(pred, ObjectsInclude)
        assert pred.labels == ("car",)


class TestPredicates:
    def test_action_equals(self):
        stmt = parse(
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c, a USING A) "
            "WHERE a = 'robot dancing'"
        )
        assert stmt.where == ActionEquals(alias="a", action="robot dancing")

    def test_or_and_precedence(self):
        stmt = parse(
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c, a USING A) "
            "WHERE a='x' AND a='y' OR a='z'"
        )
        assert isinstance(stmt.where, BooleanExpr)
        assert stmt.where.op == "OR"  # OR binds loosest

    def test_parentheses(self):
        stmt = parse(
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c, a USING A) "
            "WHERE a='x' AND (a='y' OR a='z')"
        )
        assert stmt.where.op == "AND"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT FROM x",
            "SELECT MERGE(c FROM (PROCESS v PRODUCE c) WHERE a='x'",
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE a='x' LIMIT 0",
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE a.'x'",
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c, c) WHERE a='x'",
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE a='x' garbage",
            "SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE a.unknown('x')",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(SqlSyntaxError):
            parse(text)

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as err:
            parse("SELECT MERGE(c FROM x")
        assert err.value.position is not None
