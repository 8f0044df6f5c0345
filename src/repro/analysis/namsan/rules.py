"""namsan lint rules N01 and N03-N06 (N02 and N07 live in ``locks``).

Each rule is a function ``(tree, lines) -> [(line, col, message)]`` over a
parsed module; the driver in :mod:`repro.analysis.namsan.linter` decides
which rules apply to which paths and applies ``# namsan: allow[...]``
suppressions. Everything here is pure stdlib ``ast`` — no third-party
parser, so the linter runs wherever the simulator runs.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

__all__ = [
    "RULES",
    "rule_n01_determinism",
    "rule_n03_region_access",
    "rule_n04_error_taxonomy",
    "rule_n05_broad_except",
    "rule_n06_obs_sim_time",
]

Finding = Tuple[int, int, str]

# --------------------------------------------------------------------------- #
# N01 — determinism: no wall clocks, no unseeded global randomness             #
# --------------------------------------------------------------------------- #

#: ``time`` module functions that read a real clock. ``time.sleep`` would
#: be equally wrong inside the simulator but already cannot work there
#: (processes advance via ``yield seconds``), so the rule focuses on the
#: silent poison: real timestamps leaking into simulated results.
_TIME_WALLCLOCK = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "localtime",
    "gmtime",
}
_DATETIME_NOW = {"now", "utcnow", "today"}


class _ImportMap(ast.NodeVisitor):
    """Aliases under which the stdlib ``time``/``random``/``datetime``
    modules (and their members) are visible in a module."""

    def __init__(self) -> None:
        self.module_alias: Dict[str, str] = {}   # local name -> module
        self.member_from: Dict[str, Tuple[str, str]] = {}  # local -> (module, member)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("time", "random", "datetime"):
                self.module_alias[alias.asname or root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] in (
            "time",
            "random",
            "datetime",
        ):
            root = node.module.split(".")[0]
            for alias in node.names:
                self.member_from[alias.asname or alias.name] = (root, alias.name)


def _clock_and_random_calls(tree: ast.Module):
    """Yield ``(node, kind, what)`` for every stdlib wall-clock read
    (``kind == "wallclock"``) and stdlib ``random`` call
    (``kind == "random"``) in *tree*. Shared by N01 and N06, which scope
    and phrase the findings differently."""
    imports = _ImportMap()
    imports.visit(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            origin = imports.member_from.get(func.id)
            if origin is None:
                continue
            module, member = origin
            if module == "random":
                yield node, "random", f"random.{member}()"
            elif module == "time" and member in _TIME_WALLCLOCK:
                yield node, "wallclock", f"time.{member}()"
            elif module == "datetime":
                # from datetime import datetime; datetime(...) is a plain
                # constructor with explicit fields — deterministic, fine.
                continue
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                module = imports.module_alias.get(base.id)
                if module == "random":
                    yield node, "random", f"random.{func.attr}()"
                elif module == "time" and func.attr in _TIME_WALLCLOCK:
                    yield node, "wallclock", f"time.{func.attr}()"
                elif module == "datetime" and func.attr in _DATETIME_NOW:
                    yield node, "wallclock", f"datetime.{func.attr}()"
                elif (
                    imports.member_from.get(base.id) == ("datetime", "datetime")
                    and func.attr in _DATETIME_NOW
                ):
                    yield node, "wallclock", f"datetime.{func.attr}()"
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and imports.module_alias.get(base.value.id) == "datetime"
                and func.attr in _DATETIME_NOW
            ):
                # datetime.datetime.now() / datetime.date.today()
                yield node, "wallclock", f"datetime.{base.attr}.{func.attr}()"


def rule_n01_determinism(tree: ast.Module, lines: List[str]) -> List[Finding]:
    """All time must come from the sim clock, all randomness from a seeded
    RNG. Flags calls into stdlib ``time`` wall clocks, *any* use of the
    stdlib ``random`` module (its global generator is process-seeded), and
    ``datetime`` "what time is it" constructors. ``numpy``'s
    ``default_rng(seed)`` instances are untouched — they are the sanctioned
    randomness source."""
    return [
        (
            node.lineno,
            node.col_offset,
            f"{what} breaks reproducibility: use the sim clock "
            "(env.now) or a seeded numpy Generator",
        )
        for node, _kind, what in _clock_and_random_calls(tree)
    ]


# --------------------------------------------------------------------------- #
# N03 — region buffers are the verbs layer's business                          #
# --------------------------------------------------------------------------- #

#: Methods of :class:`repro.rdma.memory.Region` that read or mutate the
#: registered buffer.
_REGION_METHODS = {
    "read",
    "write",
    "read_u64",
    "write_u64",
    "compare_and_swap",
    "fetch_and_add",
    "wipe",
    "attach_mirror",
    "detach_mirror",
}


def rule_n03_region_access(tree: ast.Module, lines: List[str]) -> List[Finding]:
    """Index/btree code must not touch ``Region`` buffers directly.

    Every access from protocol code must flow through an accessor
    (:mod:`repro.index.accessors`) or a cluster control-plane helper so
    that simulated verb costs, fault injection, replication mirroring and
    the trace sanitizer all see it. A bare ``x.region.write_u64(...)`` in
    a B-tree build path is invisible to all four."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _REGION_METHODS:
            continue
        base = func.value
        is_region = (isinstance(base, ast.Name) and base.id == "region") or (
            isinstance(base, ast.Attribute) and base.attr == "region"
        )
        if is_region:
            findings.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"direct region buffer access '.region.{func.attr}(...)' "
                    "from index/btree code: go through an accessor "
                    "(repro.index.accessors) or a cluster helper",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# N04 — the error taxonomy is closed                                           #
# --------------------------------------------------------------------------- #

def _errors_taxonomy() -> frozenset:
    from repro import errors

    return frozenset(errors.__all__)


#: Builtins legitimate outside the taxonomy: ``ValueError``/``TypeError``
#: for argument validation at API boundaries, ``NotImplementedError`` for
#: abstract hooks. ``SystemExit`` is additionally allowed in CLI modules
#: (files with a ``__main__`` guard) — see the driver.
_BUILTIN_OK = {"ValueError", "TypeError", "NotImplementedError"}


def _has_main_guard(tree: ast.Module) -> bool:
    for node in tree.body:
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__"
        ):
            return True
    return False


def rule_n04_error_taxonomy(tree: ast.Module, lines: List[str]) -> List[Finding]:
    """``raise`` statements may only raise :mod:`repro.errors` types.

    Callers are promised that ``except ReproError`` catches every failure
    this library signals; an ad-hoc ``RuntimeError`` deep in a protocol
    breaks that contract. Only *class-looking* raises are judged
    (CapWord names, called or bare); re-raising a caught object
    (``raise exc``) and bare ``raise`` are control flow, not new types."""
    allowed = _errors_taxonomy() | _BUILTIN_OK
    if _has_main_guard(tree):
        allowed = allowed | {"SystemExit"}
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Attribute):
            name: Optional[str] = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            name = None
        if name is None or not name[:1].isupper():
            continue
        if name not in allowed:
            findings.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"raise of {name} outside the repro.errors taxonomy: "
                    "derive it from ReproError (or use ValueError/TypeError "
                    "for argument validation)",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# N05 — no handler may swallow fault-injector errors                           #
# --------------------------------------------------------------------------- #

def _propagates(handler: ast.ExceptHandler) -> bool:
    """True if the handler re-raises, or hands the caught exception object
    onward as a direct call argument (e.g. ``self.fail(exc)``). Formatting
    it into a log string does not count — that is still swallowing."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    bound = handler.name
    if bound is None:
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == bound:
                    return True
    return False


def rule_n05_broad_except(tree: ast.Module, lines: List[str]) -> List[Finding]:
    """Broad handlers (``except:``, ``except Exception``, ``BaseException``)
    silently eat :class:`~repro.errors.RetriesExhaustedError` and friends,
    turning injected faults into wrong answers instead of visible
    failures. A broad handler is accepted only when it provably
    propagates: a ``raise`` in its body, or the caught object passed on
    as a call argument."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        exc_type = node.type
        broad = exc_type is None or (
            isinstance(exc_type, ast.Name)
            and exc_type.id in ("Exception", "BaseException")
        )
        if not broad or _propagates(node):
            continue
        caught = exc_type.id if isinstance(exc_type, ast.Name) else "everything"
        findings.append(
            (
                node.lineno,
                node.col_offset,
                f"broad 'except {caught}' swallows fault-injector errors "
                "(RetriesExhaustedError, FailoverError): catch a specific "
                "ReproError subclass or re-raise",
            )
        )
    return findings


# --------------------------------------------------------------------------- #
# N06 — observability stamps with simulator time only                          #
# --------------------------------------------------------------------------- #

def rule_n06_obs_sim_time(tree: ast.Module, lines: List[str]) -> List[Finding]:
    """Metric and span emission must be stamped with simulator time.

    The observability layer promises that an enabled run's simulated
    results are identical to a disabled run's, and that every timestamp
    in a snapshot (metric ``updated_at``, span start/finish, histogram
    samples) is a *virtual* time comparable across hosts and replays. A
    single ``time.time()``/``perf_counter()`` in ``repro.obs`` breaks
    both promises silently; this rule flags every stdlib wall-clock read
    there (the scan is N01's, the scope and the contract are obs-specific).
    """
    return [
        (
            node.lineno,
            node.col_offset,
            f"{what} in observability code: metrics and spans must be "
            "stamped with simulator time (sim.now), never wall-clock",
        )
        for node, kind, what in _clock_and_random_calls(tree)
        if kind == "wallclock"
    ]


#: rule id -> (checker, one-line description)
RULES = {
    "N01": (rule_n01_determinism, "no wall-clock time or unseeded randomness"),
    "N03": (rule_n03_region_access, "region buffers only via accessors"),
    "N04": (rule_n04_error_taxonomy, "raises stay inside repro.errors"),
    "N05": (rule_n05_broad_except, "no broad except swallowing faults"),
    "N06": (rule_n06_obs_sim_time, "obs code stamps with sim time only"),
}
