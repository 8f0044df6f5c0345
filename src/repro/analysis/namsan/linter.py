"""Driver for the namsan lint pass: rule scoping, suppressions, reporting.

Scoping mirrors the architecture, not a config file:

* **N01** (determinism) applies to the simulated system itself —
  ``repro/{sim,nam,rdma,index,btree,workloads}`` — and to the gated
  experiments (``repro/experiments``), whose every recorded field is
  judged to the digit. Reporting may read wall clocks; the machinery that
  produces results (including the open-loop arrival sampling in
  ``repro/workloads``) may not.
* **N02** (lock pairing) applies wherever ``try_lock`` is called.
* **N03** (region access) applies to ``repro/{index,btree}`` except the
  accessor layer itself (``index/accessors.py``), which exists to be the
  one place that touches buffers.
* **N04/N05** apply to all of ``repro``.
* **N06** (sim-time-only observability) applies to ``repro/obs`` — the
  one package N01 does not cover whose timestamps flow into results.
* **N07** (lock order / lease consistency) applies to the lock protocol
  and its users — ``repro/{index,nam,btree}``. Unlike the per-file rules
  it analyzes the *whole module set* at once (the call graph crosses
  files), which :func:`lint_paths` arranges; :func:`lint_source` runs it
  over the single given module.

A finding on a line carrying ``# namsan: allow[N03]`` (comma-separated
ids, or ``allow[*]``) is suppressed — grep-able, per-line, per-rule. For
a statement spanning several physical lines, the comment may sit on any
line of the statement.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.namsan.locks import check_deadlocks, check_lock_pairing
from repro.analysis.namsan.rules import RULES, Finding
from repro.errors import AnalysisError

__all__ = [
    "Violation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "RULE_IDS",
    "RULE_DESCRIPTIONS",
]

#: rule id -> (per-module checker ``(tree, lines) -> [(line, col, message)]``,
#: one-line description). N07's checker is ``None``: its unit of analysis
#: is the module *set*, which :func:`_lint` hands to ``check_deadlocks``.
_RULES: Dict[
    str, Tuple[Optional[Callable[[ast.Module, List[str]], List[Finding]]], str]
] = {
    **RULES,
    "N02": (check_lock_pairing, "remote locks release on every control-flow path"),
    "N07": (None, "no cross-function lock-order cycles; lease covers retry budget"),
}
RULE_IDS = tuple(sorted(_RULES))
#: rule id -> description; the CLI ``--rules`` help is derived from it.
RULE_DESCRIPTIONS: Dict[str, str] = {rule: _RULES[rule][1] for rule in RULE_IDS}

_N01_PACKAGES = ("sim", "nam", "rdma", "index", "btree", "workloads", "experiments")
_N03_PACKAGES = ("index", "btree")
_N06_PACKAGES = ("obs",)
_N07_PACKAGES = ("index", "nam", "btree")

_ALLOW_RE = re.compile(r"#\s*namsan:\s*allow\[([^\]]*)\]")

#: Compound statements delimit scopes; suppression spans cover only
#: *simple* (one logical line) statements, however many physical lines
#: they occupy.
_COMPOUND_STMTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.Try,
    ast.With,
    ast.AsyncWith,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def __str__(self) -> str:
        return self.describe()


def _repro_parts(path: str) -> Tuple[str, ...]:
    """Path components below the last ``repro`` directory (or all of them
    if the path is not inside a ``repro`` tree — fixtures use explicit
    pretend paths like ``src/repro/index/x.py`` to opt into scoping)."""
    parts = tuple(part for part in path.replace(os.sep, "/").split("/") if part)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return parts


def _rules_for(path: str, rules: Optional[Sequence[str]]) -> List[str]:
    parts = _repro_parts(path)
    package = parts[0] if len(parts) > 1 else ""
    filename = parts[-1] if parts else ""
    selected: List[str] = []
    for rule in RULE_IDS:
        if rules is not None and rule not in rules:
            continue
        if rule == "N01" and package not in _N01_PACKAGES:
            continue
        if rule == "N03" and (
            package not in _N03_PACKAGES or filename == "accessors.py"
        ):
            continue
        if rule == "N06" and package not in _N06_PACKAGES:
            continue
        if rule == "N07" and package not in _N07_PACKAGES:
            continue
        selected.append(rule)
    return selected


def _statement_spans(tree: ast.Module) -> Dict[int, Tuple[int, int]]:
    """line -> (first, last) physical line of the simple statement covering
    it. Only multi-line simple statements get entries — for everything else
    the suppression check stays strictly per-line."""
    spans: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _COMPOUND_STMTS):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end <= node.lineno:
            continue
        for line in range(node.lineno, end + 1):
            spans.setdefault(line, (node.lineno, end))
    return spans


def _suppressed(
    lines: List[str], spans: Dict[int, Tuple[int, int]], violation: Violation
) -> bool:
    first, last = spans.get(violation.line, (violation.line, violation.line))
    for line in range(first, last + 1):
        if not 1 <= line <= len(lines):
            continue
        match = _ALLOW_RE.search(lines[line - 1])
        if match is None:
            continue
        allowed = {token.strip() for token in match.group(1).split(",")}
        if "*" in allowed or violation.rule in allowed:
            return True
    return False


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: cannot parse: {exc}") from None


def _lint(
    sources: Iterable[Tuple[str, str]],
    rules: Optional[Sequence[str]],
) -> List[Violation]:
    """Lint ``(path, source)`` pairs: the per-module rules file by file,
    then N07 once over the modules in its scope, suppressions applied to
    both."""
    unknown = [rule for rule in rules or () if rule not in _RULES]
    if unknown:
        raise AnalysisError(f"unknown lint rule(s): {', '.join(unknown)}")
    modules: Dict[str, Tuple[List[str], Dict[int, Tuple[int, int]]]] = {}
    found: List[Violation] = []
    in_scope: List[Tuple[str, ast.Module]] = []
    for path, source in sources:
        tree = _parse(source, path)
        lines = source.splitlines()
        modules[path] = (lines, _statement_spans(tree))
        for rule in _rules_for(path, rules):
            checker = _RULES[rule][0]
            if checker is None:
                in_scope.append((path, tree))
            else:
                found += [Violation(rule, path, *f) for f in checker(tree, lines)]
    found += [Violation("N07", *f) for f in check_deadlocks(in_scope)]
    return [v for v in found if not _suppressed(*modules[v.path], v)]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one module's *source*; *path* drives rule scoping and appears
    in the report. *rules* restricts to a subset of rule ids (validated).
    N07 runs over this single module (cross-file pairs need
    :func:`lint_paths`)."""
    violations = _lint([(path, source)], rules)
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def lint_file(
    path: str,
    rules: Optional[Sequence[str]] = None,
    pretend_path: Optional[str] = None,
) -> List[Violation]:
    """Lint the file at *path*. *pretend_path*, when given, is used for
    scoping and reporting instead — how the fixture tests lint a snippet
    in ``tests/namsan_fixtures/`` *as if* it lived under ``src/repro``."""
    return lint_source(_read(path), pretend_path or path, rules=rules)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise AnalysisError(f"{path}: unreadable: {exc}") from None


def _python_files(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint every ``.py`` file under *paths* (files or directories).

    Per-file rules run file by file; N07 runs once over all in-scope
    modules together, so lock-order cycles spanning files are visible."""
    filenames: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            filenames.extend(_python_files(path))
        else:
            filenames.append(path)
    violations = _lint(((name, _read(name)) for name in filenames), rules)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
