"""The namsan lint engine, rule by rule, against the fixture corpus.

Each rule has a ``nXX_bad.py`` fixture that must trigger it and an
``nXX_good.py`` fixture that must not; fixtures are linted *as if* they
lived under ``src/repro/...`` (the ``pretend_path`` mechanism), because
rule applicability is scoped by architecture layer. The suite also pins
the suppression syntax, the scoping rules, and — the satellite
acceptance criterion — that the repository's own tree is lint-clean.
"""

from __future__ import annotations

import ast
import hashlib
import os
import warnings

import pytest

from repro.analysis.namsan import check_deadlocks
from repro.analysis.namsan.linter import (
    RULE_DESCRIPTIONS,
    RULE_IDS,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.config import RetryConfig
from repro.errors import AnalysisError, ConfigurationWarning

FIXTURES = os.path.join(os.path.dirname(__file__), "namsan_fixtures")
REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: rule -> (pretend directory, expected violations in the bad fixture)
CASES = {
    "N01": ("src/repro/sim", 4),
    "N02": ("src/repro/btree", 3),
    "N03": ("src/repro/index", 3),
    "N04": ("src/repro/nam", 4),
    "N05": ("src/repro/nam", 3),
    "N06": ("src/repro/obs", 3),
    "N07": ("src/repro/index", 3),
}


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_bad_fixture_triggers_rule(rule):
    pretend_dir, expected = CASES[rule]
    stem = rule.lower()
    violations = lint_file(
        _fixture(f"{stem}_bad.py"),
        rules=[rule],
        pretend_path=f"{pretend_dir}/{stem}_bad.py",
    )
    assert len(violations) == expected, [str(v) for v in violations]
    assert all(v.rule == rule for v in violations)
    assert all(v.line > 0 and v.message for v in violations)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_good_fixture_is_clean(rule):
    pretend_dir, _expected = CASES[rule]
    stem = rule.lower()
    violations = lint_file(
        _fixture(f"{stem}_good.py"),
        rules=[rule],
        pretend_path=f"{pretend_dir}/{stem}_good.py",
    )
    assert violations == [], [str(v) for v in violations]


def test_suppression_comment_silences_one_rule():
    source = "def f(server):\n    return server.region.read_u64(0)\n"
    path = "src/repro/index/x.py"
    assert len(lint_source(source, path)) == 1
    suppressed = source.replace(
        "read_u64(0)", "read_u64(0)  # namsan: allow[N03]"
    )
    assert lint_source(suppressed, path) == []
    wildcard = source.replace("read_u64(0)", "read_u64(0)  # namsan: allow[*]")
    assert lint_source(wildcard, path) == []
    # Suppressing a different rule does not help.
    wrong = source.replace("read_u64(0)", "read_u64(0)  # namsan: allow[N05]")
    assert len(lint_source(wrong, path)) == 1


def test_n03_scoped_to_index_and_btree():
    source = "def f(server):\n    server.region.write_u64(0, 1)\n"
    assert len(lint_source(source, "src/repro/index/x.py")) == 1
    assert len(lint_source(source, "src/repro/btree/x.py")) == 1
    # The verbs layer and the cluster control plane are allowed.
    assert lint_source(source, "src/repro/rdma/x.py") == []
    assert lint_source(source, "src/repro/nam/x.py") == []
    # The accessor layer is the exemption that makes the rule meaningful.
    assert lint_source(source, "src/repro/index/accessors.py") == []


def test_n01_scoped_to_simulated_system():
    source = "import time\n\ndef f():\n    return time.time()\n"
    assert len(lint_source(source, "src/repro/sim/x.py")) == 1
    assert len(lint_source(source, "src/repro/rdma/x.py")) == 1
    # The experiments record what the gate judges to the digit: no clock.
    assert len(lint_source(source, "src/repro/experiments/x.py")) == 1
    # Reporting may read wall clocks.
    assert lint_source(source, "src/repro/reporting.py") == []


def test_n06_scoped_to_obs_package():
    source = "import time\n\ndef f():\n    return time.time()\n"
    assert [v.rule for v in lint_source(source, "src/repro/obs/x.py")] == ["N06"]
    # Outside repro/obs the same read is N01's business (or nobody's).
    assert lint_source(source, "src/repro/sim/x.py", rules=["N06"]) == []
    assert lint_source(source, "src/repro/experiments/x.py", rules=["N06"]) == []
    # Unlike N01, stdlib random is not N06's concern (it has no timestamp).
    rand = "import random\n\ndef f():\n    return random.random()\n"
    assert lint_source(rand, "src/repro/obs/x.py", rules=["N06"]) == []


def test_n04_allows_system_exit_only_under_main_guard():
    bare = "def f():\n    raise SystemExit(2)\n"
    assert [v.rule for v in lint_source(bare, "src/repro/nam/x.py")] == ["N04"]
    guarded = bare + "\nif __name__ == '__main__':\n    f()\n"
    assert lint_source(guarded, "src/repro/nam/x.py") == []


def test_rule_catalog_is_complete():
    """Every rule id has a description — the CLI help derives from this."""
    assert set(RULE_DESCRIPTIONS) == set(RULE_IDS)
    assert all(RULE_DESCRIPTIONS[rule] for rule in RULE_IDS)


def test_suppression_multi_rule_list():
    source = "def f(server):\n    return server.region.read_u64(0)\n"
    path = "src/repro/index/x.py"
    listed = source.replace(
        "read_u64(0)", "read_u64(0)  # namsan: allow[N01, N03]"
    )
    assert lint_source(listed, path) == []
    # A list that names other rules only does not suppress N03.
    other = source.replace(
        "read_u64(0)", "read_u64(0)  # namsan: allow[N01,N05]"
    )
    assert len(lint_source(other, path)) == 1


def test_suppression_on_continuation_line():
    """For a statement spanning physical lines, the allow comment may sit
    on any of them — including a line other than the one reported."""
    source = (
        "def f(server):\n"
        "    return server.region.read_u64(\n"
        "        0\n"
        "    )  # namsan: allow[N03]\n"
    )
    path = "src/repro/index/x.py"
    assert lint_source(source, path) == []
    # The same comment *outside* the statement's span does not reach back.
    apart = (
        "def f(server):\n"
        "    return server.region.read_u64(0)\n"
        "    # namsan: allow[N03]\n"
    )
    assert len(lint_source(apart, path)) == 1


def test_n07_scoped_to_lock_protocol_packages():
    """The same inversion outside repro/{index,nam,btree} is out of scope."""
    violations = lint_file(
        _fixture("n07_bad.py"),
        rules=["N07"],
        pretend_path="src/repro/sim/n07_bad.py",
    )
    assert violations == [], [str(v) for v in violations]


def test_n07_cross_file_cycle(tmp_path):
    """A lock-order cycle whose two halves live in different modules is
    only visible to the whole-set pass that lint_paths arranges."""
    pkg = tmp_path / "src" / "repro" / "index"
    pkg.mkdir(parents=True)
    (pkg / "left.py").write_text(
        "def take_left_then_right(acc, a_ptr, b_ptr, a):\n"
        "    locked = yield from acc.try_lock(a_ptr, a.version)\n"
        "    if locked:\n"
        "        yield from grab_right(acc, b_ptr)\n"
        "        yield from acc.unlock_write(a_ptr, a)\n"
        "\n"
        "def grab_left(acc, a_ptr):\n"
        "    node = yield from acc.read_node(a_ptr)\n"
        "    locked = yield from acc.try_lock(a_ptr, node.version)\n"
        "    if locked:\n"
        "        yield from acc.unlock_write(a_ptr, node)\n",
        encoding="utf-8",
    )
    (pkg / "right.py").write_text(
        "def take_right_then_left(acc, a_ptr, b_ptr, b):\n"
        "    locked = yield from acc.try_lock(b_ptr, b.version)\n"
        "    if locked:\n"
        "        yield from grab_left(acc, a_ptr)\n"
        "        yield from acc.unlock_write(b_ptr, b)\n"
        "\n"
        "def grab_right(acc, b_ptr):\n"
        "    node = yield from acc.read_node(b_ptr)\n"
        "    locked = yield from acc.try_lock(b_ptr, node.version)\n"
        "    if locked:\n"
        "        yield from acc.unlock_write(b_ptr, node)\n",
        encoding="utf-8",
    )
    violations = lint_paths([str(pkg)], rules=["N07"])
    assert len(violations) == 2, [str(v) for v in violations]
    assert {v.path for v in violations} == {
        str(pkg / "left.py"),
        str(pkg / "right.py"),
    }
    assert all("lock-order cycle" in v.message for v in violations)
    # Each file alone shows no cycle.
    for name in ("left.py", "right.py"):
        assert lint_paths([str(pkg / name)], rules=["N07"]) == []


def test_n07_lease_needs_literal_arguments():
    path = "src/repro/nam/x.py"
    tight = "def f(RetryConfig):\n    return RetryConfig(lock_lease_s=0.0005)\n"
    found = lint_source(tight, path, rules=["N07"])
    assert len(found) == 1 and "lock_lease_s" in found[0].message
    # Non-literal constructions are not statically provable: no finding.
    dynamic = "def f(RetryConfig, lease):\n    return RetryConfig(lock_lease_s=lease)\n"
    assert lint_source(dynamic, path, rules=["N07"]) == []


@pytest.mark.parametrize(
    "args, kwargs, tight",
    [
        ((), {"lock_lease_s": 0.0005}, True),
        ((), {"lock_lease_s": 0.0019}, True),
        ((), {"lock_lease_s": 0.0021}, False),
        ((), {"max_attempts": 2, "lock_lease_s": 0.0009}, False),
        ((), {"max_attempts": 8}, True),
        ((4, 50e-6, 20e-6, 2.0, 0.25, 0.0019, 128), {}, True),
    ],
)
def test_n07_flags_exactly_the_constructions_the_runtime_warns_on(args, kwargs, tight):
    """N07 takes RetryConfig's field order, defaults and budget formula
    from repro.config: a literal construction is a finding exactly when
    building it raises the runtime's lease warning."""
    arguments = [repr(arg) for arg in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
    source = f"def f(RetryConfig):\n    return RetryConfig({', '.join(arguments)})\n"
    flagged = bool(lint_source(source, "src/repro/nam/x.py", rules=["N07"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        RetryConfig(*args, **kwargs)
    warned = any(
        issubclass(w.category, ConfigurationWarning) and "lock_lease_s" in str(w.message)
        for w in caught
    )
    assert flagged == warned == tight


def test_unknown_rule_rejected():
    with pytest.raises(AnalysisError):
        lint_source("x = 1\n", "src/repro/nam/x.py", rules=["N99"])


def test_unparseable_source_rejected():
    with pytest.raises(AnalysisError):
        lint_source("def f(:\n", "src/repro/nam/x.py")


#: What the lock rules report over the N02/N07 fixtures and their mutants:
#: the count and the sha256 of the ``m<line>:``-prefixed findings.
PINNED_LOCK_FINDINGS = 77
PINNED_LOCK_SHA256 = "3df32e8290658c6ccfe6dd66beb10663ba7f5febfdd44ab02215c6831b9bb84c"
_MUTATED_TOKENS = ("unlock_", "try_lock", "return", "break", "continue", "raise")


def _mutants(source):
    """The source itself (line 0), then every single-statement mutant: one
    line naming a lock call or a jump, not ending in ``:``, becomes ``pass``."""
    yield 0, source
    lines = source.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":") or not any(t in line for t in _MUTATED_TOKENS):
            continue
        indent = line[: len(line) - len(line.lstrip())]
        yield index + 1, "".join(lines[:index] + [indent + "pass\n"] + lines[index + 1 :])


def test_lock_findings_are_pinned():
    """N02 and N07 report exactly what they reported when this pin was
    taken, over the lock fixtures and every single-statement mutant."""
    found = []
    for name in ("n02_bad.py", "n02_good.py", "n07_bad.py", "n07_good.py"):
        with open(_fixture(name), encoding="utf-8") as handle:
            source = handle.read()
        for line, mutant in _mutants(source):
            try:
                violations = lint_source(
                    mutant, f"src/repro/index/{name}", rules=["N02", "N07"]
                )
            except AnalysisError:
                continue
            found += [f"m{line}:{v}" for v in violations]
    assert len(found) == PINNED_LOCK_FINDINGS
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
    assert digest == PINNED_LOCK_SHA256, "\n".join(found)


def _lock_order(edges):
    """check_deadlocks over one module holding lock ``s`` while taking
    ``d`` for every edge ``(s, d)``, one function per edge."""
    source = "".join(
        f"def take_{index}(acc):\n"
        f"    held = yield from acc.try_lock({src}, 0)\n"
        f"    if held:\n"
        f"        yield from acc.try_lock({dst}, 0)\n"
        for index, (src, dst) in enumerate(edges)
    )
    return [
        (line, message.split("; this edge: ")[0].split("cycle ")[1])
        for _path, line, _col, message in check_deadlocks([("m.py", ast.parse(source))])
    ]


@pytest.mark.parametrize(
    "edges, expected",
    [
        # A three-class cycle plus an edge leaving it: the leaving edge is
        # not reported, the cycle lists all three classes, sorted.
        (
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
            [
                (4, "'a' -> 'b' -> 'c' -> 'a'"),
                (8, "'a' -> 'b' -> 'c' -> 'a'"),
                (12, "'a' -> 'b' -> 'c' -> 'a'"),
            ],
        ),
        # A self-loop on a class that is also in a larger cycle.
        (
            [("x", "y"), ("y", "x"), ("x", "x")],
            [
                (4, "'x' -> 'y' -> 'x'"),
                (8, "'x' -> 'y' -> 'x'"),
                (12, "'x' -> 'x'"),
            ],
        ),
        # Two disjoint two-cycles, each with its own members.
        (
            [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")],
            [
                (4, "'a' -> 'b' -> 'a'"),
                (8, "'a' -> 'b' -> 'a'"),
                (12, "'c' -> 'd' -> 'c'"),
                (16, "'c' -> 'd' -> 'c'"),
            ],
        ),
    ],
)
def test_lock_order_cycle_shapes(edges, expected):
    assert _lock_order(edges) == expected


def test_repository_tree_is_lint_clean():
    """The acceptance criterion: namsan lint exits clean on src/repro."""
    violations = lint_paths([REPO_SRC])
    assert violations == [], "\n".join(str(v) for v in violations)
