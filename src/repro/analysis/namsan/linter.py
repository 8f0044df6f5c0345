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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.namsan.deadlock import check_deadlocks
from repro.analysis.namsan.lockcheck import check_lock_pairing
from repro.analysis.namsan.rules import RULES
from repro.errors import AnalysisError

__all__ = [
    "Violation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "RULE_IDS",
    "RULE_DESCRIPTIONS",
]

RULE_IDS = ("N01", "N02", "N03", "N04", "N05", "N06", "N07")

#: rule id -> one-line description; the CLI ``--rules`` help is derived
#: from this mapping so it cannot drift from :data:`RULE_IDS` (N02 and
#: N07 live outside ``rules.RULES`` — they are not per-file line checks).
RULE_DESCRIPTIONS: Dict[str, str] = {
    **{rule: description for rule, (_checker, description) in RULES.items()},
    "N02": "remote locks release on every control-flow path",
    "N07": "no cross-function lock-order cycles; lease covers retry budget",
}
assert set(RULE_DESCRIPTIONS) == set(RULE_IDS)

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
    lines: List[str],
    violation: Violation,
    spans: Optional[Dict[int, Tuple[int, int]]] = None,
) -> bool:
    first = last = violation.line
    if spans is not None and violation.line in spans:
        first, last = spans[violation.line]
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


def _validate_rules(rules: Optional[Sequence[str]]) -> None:
    if rules is not None:
        unknown = [rule for rule in rules if rule not in RULE_IDS]
        if unknown:
            raise AnalysisError(f"unknown lint rule(s): {', '.join(unknown)}")


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: cannot parse: {exc}") from None


def _per_file_violations(
    tree: ast.Module,
    lines: List[str],
    path: str,
    selected: Sequence[str],
) -> List[Violation]:
    """All single-file rule findings for one parsed module (everything
    except N07, whose unit of analysis is the module *set*), suppressions
    applied."""
    spans = _statement_spans(tree)
    violations: List[Violation] = []
    for rule in selected:
        if rule == "N07":
            continue
        if rule == "N02":
            found = [(line, 0, message) for line, message in check_lock_pairing(tree)]
        else:
            checker, _description = RULES[rule]
            found = checker(tree, lines)
        for line, col, message in found:
            violation = Violation(rule, path, line, col, message)
            if not _suppressed(lines, violation, spans):
                violations.append(violation)
    return violations


def _deadlock_violations(
    modules: Sequence[Tuple[str, ast.Module, List[str]]],
) -> List[Violation]:
    """Run N07 once over the whole ``(path, tree, lines)`` set."""
    if not modules:
        return []
    findings = check_deadlocks([(path, tree) for path, tree, _lines in modules])
    by_path = {path: (tree, lines) for path, tree, lines in modules}
    spans_cache: Dict[str, Dict[int, Tuple[int, int]]] = {}
    violations: List[Violation] = []
    for path, line, col, message in findings:
        violation = Violation("N07", path, line, col, message)
        tree, lines = by_path[path]
        if path not in spans_cache:
            spans_cache[path] = _statement_spans(tree)
        if not _suppressed(lines, violation, spans_cache[path]):
            violations.append(violation)
    return violations


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one module's *source*; *path* drives rule scoping and appears
    in the report. *rules* restricts to a subset of rule ids (validated).
    N07 runs over this single module (cross-file pairs need
    :func:`lint_paths`)."""
    _validate_rules(rules)
    tree = _parse(source, path)
    lines = source.splitlines()
    selected = _rules_for(path, rules)
    violations = _per_file_violations(tree, lines, path, selected)
    if "N07" in selected:
        violations.extend(_deadlock_violations([(path, tree, lines)]))
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
    _validate_rules(rules)
    filenames: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            filenames.extend(_python_files(path))
        else:
            filenames.append(path)
    violations: List[Violation] = []
    deadlock_modules: List[Tuple[str, ast.Module, List[str]]] = []
    for filename in filenames:
        source = _read(filename)
        tree = _parse(source, filename)
        lines = source.splitlines()
        selected = _rules_for(filename, rules)
        violations.extend(_per_file_violations(tree, lines, filename, selected))
        if "N07" in selected:
            deadlock_modules.append((filename, tree, lines))
    violations.extend(_deadlock_violations(deadlock_modules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
