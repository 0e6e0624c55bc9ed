"""Every function of ``src/repro`` has a caller outside ``tests/`` (ROADMAP
item 18).

:mod:`tests.reach` runs the traffic the system serves — the examples, the
README's Python blocks, a table of ``repro`` CLI calls and the paper
runner — in traced processes, away from the cProfile fences, whose
profiler would clear the hook.  A function it never starts fails here
unless :data:`ALLOWLIST` names it, and an entry whose function is reached
or gone fails too.  A function whose body is only ``...``, ``pass`` or a
docstring is a protocol or abstract declaration and needs no entry.  Every
entry gives one reason from a closed set:

* ``svqbench`` — reached by the benchmark, which CI's census step checks
  (``python -m tests.reach --full``);
* ``item N`` — an open ROADMAP item will call it;
* ``data model`` — a dunder Python calls implicitly.

"Documented" is not a reason: the README's blocks are traffic.
"""

from __future__ import annotations

import argparse
import re
import textwrap

import pytest

import repro.detectors.faults
from repro.cli import build_parser
from tests.code_size import code_token_positions
from tests.reach import (
    FAULT_PROFILES,
    OFFLINE,
    ON_FAILURE,
    ONLINE_AND,
    ONLINE_OR,
    PACKAGE,
    PIECES,
    REASON,
    REPO_ROOT,
    Definition,
    cli_table,
    definitions,
    findings,
    reached_keys,
    readme_blocks,
    trace,
    unreached_size,
)

#: ``path::Qual.name`` -> why nothing the tier-1 traffic runs calls it.
ALLOWLIST = {
    "core/distributed.py::DistributedTopKResult.iterations": "svqbench",
    "core/indicators.py::EvaluationLog.__eq__": "svqbench",
    "core/indicators.py::EvaluationLog.__getitem__": "data model",
    "core/indicators.py::EvaluationLog.__len__": "svqbench",
    "core/optimizer.py::ConjunctOptimizer.order_for_epoch": "svqbench",
    "core/policies.py::StaticQuotaPolicy.load_state_dict": "svqbench",
    "core/policies.py::StaticQuotaPolicy.state_dict": "svqbench",
    "core/query.py::CompoundQuery.conjunction": "svqbench",
    "core/scheduler.py::MultiQueryScheduler.__init__": "svqbench",
    "core/scheduler.py::MultiQueryScheduler.start": "svqbench",
    "core/scoring.py::PaperScoring.repeat": "svqbench",
    "detectors/cost.py::CostMeter.__eq__": "data model",
    "detectors/cost.py::CostMeter.cached_units": "svqbench",
    "detectors/cost.py::CostMeter.units": "svqbench",
    "detectors/faults.py::FaultInjector.injected_faults": "svqbench",
    # Faults on the feed: the cache scores a faulty zoo's columns.
    "detectors/faults.py::FaultyObjectDetector.score_video": "item 17",
    # The Markov quota, chosen per label from a run-length statistic.
    "scanstats/critical.py::CriticalValueTable.lookup": "item 9c",
    "scanstats/markov.py::MarkovChainSpec.from_run_length": "item 9c",
    "scanstats/markov.py::adjusted_critical_value": "item 9c",
    "storage/access.py::AccessStats.charge_reverse": "svqbench",
    "storage/repository.py::VideoRepository.all_clips": "svqbench",
    "storage/table.py::ClipScoreTable.reverse_row": "svqbench",
    "utils/intervals.py::Interval.__contains__": "svqbench",
    "utils/intervals.py::IntervalSet.__hash__": "data model",
    "utils/intervals.py::IntervalSet.__repr__": "data model",
    "utils/intervals.py::IntervalSet.clipped": "svqbench",
    "utils/intervals.py::IntervalSet.points": "svqbench",
    "utils/intervals.py::IntervalSet.union": "svqbench",
    "video/stream.py::ClipStream.__iter__": "svqbench",
    "video/stream.py::ClipStream.__len__": "data model",
}

#: The most entries :data:`ALLOWLIST` may hold: 30 when the census came in.
#: A ceiling is lowered when entries go and never raised.
CEILING = 30


def test_every_function_is_reached_or_listed():
    defs = definitions()
    assert len(defs) > 600  # the walk really saw the package
    assert findings(defs, reached_keys(defs, trace(PIECES)), ALLOWLIST) == []


def test_the_allowlist_does_not_grow():
    assert len(ALLOWLIST) <= CEILING


def test_an_item_reason_names_an_open_roadmap_item():
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = roadmap.split("## Open items", 1)[1].split("\n## ", 1)[0]
    numbers = set(re.findall(r"^(\d+)\. \*\*", open_items, re.M))
    cited = {
        re.match(r"item (\d+)", reason).group(1)
        for reason in ALLOWLIST.values()
        if reason.startswith("item ")
    }
    assert cited <= numbers


# -- the comparison ---------------------------------------------------------------


def plant(*, stub: bool = False) -> Definition:
    return Definition("m.py", 1, range(1, 3), stub)


DEFS = {
    "m.py::called": plant(),
    "m.py::planted": plant(),
    "m.py::Protocol.method": plant(stub=True),
    "m.py::benched": plant(),
}


def test_a_planted_unreached_function_is_a_finding():
    got = findings(DEFS, {"m.py::called"}, {"m.py::benched": "svqbench"})
    assert got == ["m.py::planted: unreached (2 lines)"]


def test_a_stub_needs_no_entry_and_may_not_have_one():
    reached = {"m.py::called", "m.py::planted"}
    assert findings(DEFS, reached, {"m.py::benched": "svqbench"}) == []
    assert findings(
        DEFS, reached, {"m.py::benched": "svqbench", "m.py::Protocol.method": "data model"}
    ) == ["m.py::Protocol.method: a stub needs no entry"]


def test_a_stale_entry_is_a_finding():
    reached = {"m.py::called", "m.py::planted", "m.py::benched"}
    allowlist = {"m.py::benched": "svqbench", "m.py::gone": "item 9c"}
    assert findings(DEFS, reached, allowlist) == [
        "m.py::benched: reached, so the entry goes",
        "m.py::gone: no such function, so the entry goes",
    ]


def test_a_reason_comes_from_the_closed_set():
    reached = {"m.py::called", "m.py::planted"}
    assert findings(DEFS, reached, {"m.py::benched": "documented"}) == [
        "m.py::benched: 'documented' is not a reason"
    ]


def test_the_full_traffic_must_reach_a_svqbench_entry():
    reached = {"m.py::called", "m.py::planted"}
    allowlist = {"m.py::benched": "svqbench"}
    assert findings(DEFS, reached, allowlist, full=True) == [
        "m.py::benched: marked svqbench but svqbench does not reach it"
    ]
    assert findings(DEFS, reached | {"m.py::benched"}, allowlist, full=True) == []


@pytest.mark.parametrize("reason", ["svqbench", "data model", "item 9", "item 9c", "item 17"])
def test_a_reason_from_the_closed_set_is_accepted(reason):
    assert REASON.fullmatch(reason)


@pytest.mark.parametrize(
    "reason", ["documented", "item", "item 9c later", "Item 9", "svqbench ", "tests", ""]
)
def test_any_other_reason_is_refused(reason):
    assert not REASON.fullmatch(reason)


# -- the walk ---------------------------------------------------------------------


def walk(tmp_path, source: str) -> dict[str, Definition]:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(textwrap.dedent(source), encoding="utf-8")
    return definitions(tmp_path)


def test_the_walk_keys_functions_methods_and_nested_defs(tmp_path):
    defs = walk(tmp_path, """
        def top():
            def inner():
                return 1
            return inner

        class Outer:
            def method(self):
                return 2

            class Inner:
                async def deep(self):
                    return 3
    """)
    assert sorted(defs) == [
        "pkg/m.py::Outer.Inner.deep",
        "pkg/m.py::Outer.method",
        "pkg/m.py::top",
        "pkg/m.py::top.inner",
    ]
    assert defs["pkg/m.py::top.inner"].lines == range(3, 5)


def test_a_property_setter_gets_a_key_of_its_own(tmp_path):
    defs = walk(tmp_path, """
        class C:
            @property
            def x(self):
                return self._x

            @x.setter
            def x(self, value):
                self._x = value
    """)
    assert [(key, d.first) for key, d in defs.items()] == [
        ("pkg/m.py::C.x", 3),
        ("pkg/m.py::C.x'", 7),
    ]


def test_a_definition_starts_at_its_first_decorator(tmp_path):
    defs = walk(tmp_path, """
        @decorator
        @other(1)
        def f():
            return 1
    """)
    assert defs["pkg/m.py::f"] == Definition("pkg/m.py", 2, range(2, 6), False)


@pytest.mark.parametrize("body, stub", [
    ("...", True),
    ("pass", True),
    ('"""Doc."""', True),
    ('"""Doc."""\n    ...', True),
    ("return 1", False),
    ('"""Doc."""\n    return 1', False),
    ("raise NotImplementedError", False),
])
def test_only_an_empty_body_is_a_stub(tmp_path, body, stub):
    defs = walk(tmp_path, f"def f():\n    {body}\n")
    assert defs["pkg/m.py::f"].stub is stub


def test_a_hit_counts_only_on_the_line_a_definition_starts():
    defs = {"m.py::f": Definition("m.py", 3, range(3, 9), False)}
    assert reached_keys(defs, {("m.py", 3)}) == {"m.py::f"}
    assert reached_keys(defs, {("m.py", 4), ("other.py", 3)}) == set()


def test_an_unreached_nested_line_counts_once():
    defs = definitions()
    key = "utils/intervals.py::_normalise"
    outer = defs[key]
    nested = Definition(outer.path, outer.first + 1, range(outer.first + 1, outer.first + 3), False)
    source = (PACKAGE / outer.path).read_text(encoding="utf-8")
    tokens = sum(row in outer.lines for row, _ in code_token_positions(source))
    assert unreached_size({key: outer, "nested": nested}, set()) == (2, len(outer.lines), tokens)
    assert unreached_size({key: outer}, {key}) == (0, 0, 0)


# -- the traffic ------------------------------------------------------------------


def test_the_readme_blocks_are_its_python_fences_in_order():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = readme_blocks()
    assert len(blocks) == text.count("```python\n") >= 4
    assert [text.index(block) for block in blocks] == sorted(text.index(b) for b in blocks)
    for block in blocks:
        compile(block, "README.md", "exec")


def subcommands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()) -> set[tuple]:
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= subcommands(sub, (*prefix, name)) or {(*prefix, name)}
    return found


def choices(option: str) -> tuple[str, ...]:
    query = build_parser()._subparsers._group_actions[0].choices["query"]  # type: ignore[union-attr]
    return tuple(next(a for a in query._actions if option in a.option_strings).choices)


CLI = cli_table("repo", "tampered")


def test_the_cli_table_runs_every_subcommand():
    ran = {tuple(argv[:2]) if argv[0] == "repo" else (argv[0],) for argv, _ in CLI}
    assert ran == subcommands(build_parser())


def test_the_cli_table_runs_every_fault_profile_and_failure_policy_on_both_queries():
    assert set(FAULT_PROFILES) == set(repro.detectors.faults.FAULT_PROFILES)
    assert ON_FAILURE == tuple(choices("--on-failure"))
    for sql in (ONLINE_AND, OFFLINE):
        cells = {
            (argv[argv.index("--fault-profile") + 1], argv[argv.index("--on-failure") + 1])
            for argv, _ in CLI
            if argv[:2] == ["query", sql] and "--fault-profile" in argv
        }
        assert cells == {(p, f) for p in FAULT_PROFILES for f in ON_FAILURE}


def test_the_cli_table_runs_and_and_or_under_both_predicate_orders():
    ran = {
        (argv[1], argv[argv.index("--predicate-order") + 1])
        for argv, _ in CLI
        if "--predicate-order" in argv
    }
    assert ran == {(sql, order) for sql in (ONLINE_AND, ONLINE_OR) for order in choices("--predicate-order")}


def test_the_cli_table_expects_the_error_boundary_to_exit_2():
    failing = [argv for argv, code in CLI if code != 0]
    assert all(code in (0, 2) for _, code in CLI)
    assert ["query", "SELEC foo", "--movie", "x"] in failing
    assert ["topk", "repo-missing", "--action", "jumping"] in failing
    assert any(argv[:2] == ["topk", "tampered"] for argv in failing)
