"""N07 — interprocedural lock-order/deadlock analysis + lease consistency.

Two cross-checks over the lock protocol, both pure-``ast``:

1. **Lock-order cycles.** The paper's protocol holds *one* node lock at a
   time (N02 enforces pairing per function), but nothing per-function can
   see a *cross-function* order inversion: ``f`` locks A then calls into
   code that locks B, while ``g`` locks B then reaches A. Two clients
   running ``f`` and ``g`` against each other then deadlock — and with
   one-sided RDMA spinlocks there is no lock manager to notice, only the
   lease timeout. This pass reuses the N02 abstract interpreter
   (:mod:`repro.analysis.namsan.lockcheck`) to observe, per function,
   which *lock class* is held at every program point; builds a name-based
   call graph over the analyzed module set; computes, per function, the
   set of lock classes it may acquire while its caller's lock is still
   held (a fixpoint, flow-sensitive through release points so e.g.
   ``_split_and_insert`` — which unlocks the child *before* ascending to
   the parent — contributes nothing); and reports every edge of every
   cycle in the resulting lock-acquisition graph.

   A *lock class* is the source text of the pointer expression handed to
   ``try_lock`` (``raw_ptr``, ``left_ptr``, ``self.meta_ptr`` ...) — the
   protocol locks nodes through a small set of well-named pointer roles,
   so the textual role is the right granularity for ordering. A self-loop
   (acquiring a class while holding the same class) is reported too: it
   means two node locks of the same role are held at once, which the
   protocol forbids precisely because two clients can meet in opposite
   order.

2. **Lease/retry-budget consistency.** ``RetryConfig.__post_init__``
   warns at *runtime* when ``lock_lease_s < 2 * retry_budget_s`` (a
   slow-but-alive lock holder could be lease-stolen mid-write). This pass
   applies the same relation *statically* to every ``RetryConfig(...)``
   construction whose relevant arguments are numeric literals, so a bad
   config is a lint finding even on code paths no test executes (or where
   the warning is filtered).

Deliberate scope limits (documented in docs/namsan.md): the call graph is
name-based and follows only ``self.f(...)`` / ``cls.f(...)`` / bare
``f(...)`` calls (calls on other receivers — ``node.insert_entry(...)``,
``entries.insert(...)`` — are opaque: resolving those by name drags
stdlib-shaped method names like ``insert`` into the graph and drowns the
signal), and the interpreter tracks one symbolic lock. Both choices favor
clean real code over exhaustive modeling; the schedule explorer covers
the dynamic side.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.namsan.lockcheck import (
    ACQUIRE_NAMES,
    IMPLEMENTATION_NAMES,
    RELEASE_NAMES,
    _call_name,
    _functions,
    _FunctionChecker,
    _State,
    releasing_functions,
)
from repro.config import RetryConfig, retry_budget_s

__all__ = ["check_deadlocks", "check_lock_order", "check_lease_config"]

#: Sentinel "acquire line" meaning the lock was held on function entry.
_ENTRY = -1

#: :class:`repro.config.RetryConfig`'s fields and defaults, in declaration
#: order (the order positional arguments bind in), and the ones the lease
#: check reads: the budget formula's inputs and the lease.
_RETRY_FIELDS = {f.name: f.default for f in dataclasses.fields(RetryConfig)}
_BUDGET_INPUTS = tuple(inspect.signature(retry_budget_s).parameters)
_LEASE_INPUTS = frozenset(_BUDGET_INPUTS + ("lock_lease_s",))


# --------------------------------------------------------------------------- #
# lock classes                                                                 #
# --------------------------------------------------------------------------- #

def _expr_text(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_text(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _lock_class(call: ast.Call) -> str:
    """The lock class of an acquire site: the text of the pointer argument."""
    if call.args:
        text = _expr_text(call.args[0])
        if text is not None:
            return text
    return f"<anonymous:{call.lineno}>"


def _resolvable_callee(call: ast.AST) -> Optional[str]:
    """The callee name, but only for calls the name-based graph can follow
    without drowning in collisions: bare ``f(...)`` and ``self.f(...)`` /
    ``cls.f(...)``. Calls on any other receiver are opaque."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        return func.attr
    return None


# --------------------------------------------------------------------------- #
# per-function fact extraction (the N02 walker, recording as it goes)          #
# --------------------------------------------------------------------------- #

class _SiteRecorder(_FunctionChecker):
    """The N02 abstract interpreter, extended to *record* rather than
    judge: every acquire site with its lock class, every acquire reached
    while another acquire is held, and every call made while a lock is
    held (delegates included — they run inside the critical section before
    releasing it). Entered with ``entry_held=True`` the walk starts with
    the sentinel :data:`_ENTRY` lock held, modeling a callee that inherits
    its caller's critical section."""

    def __init__(self, func: ast.FunctionDef, delegates: Set[str], entry_held: bool) -> None:
        super().__init__(func, delegates)
        self.entry_held = entry_held
        self.acquires: Set[Tuple[int, str]] = set()          # (line, class)
        self.nested: Set[Tuple[int, int, str]] = set()       # (holder line, line, class)
        self.held_calls: Set[Tuple[int, str, int]] = set()   # (holder line, callee, line)

    def collect(self) -> "_SiteRecorder":
        entry = _State(held=_ENTRY) if self.entry_held else _State()
        self._walk_block(self.func.body, entry)
        return self

    def _apply_effects(
        self, node: ast.AST, state: _State, ignore_acquire: bool = False
    ) -> Optional[int]:
        acquired: Optional[int] = None
        for call in ast.walk(node):
            name = _call_name(call)
            if name is None:
                continue
            if name in RELEASE_NAMES or name in self.delegates:
                if state.held is not None and name in self.delegates:
                    # The delegate executes with the lock held (it is the
                    # one who releases it) — its own acquisitions made
                    # before that release happen inside this section.
                    self.held_calls.add((state.held, name, call.lineno))
                state.held = None
                state.pending = None
            elif name in ACQUIRE_NAMES:
                if not ignore_acquire:
                    acquired = call.lineno
                    self.acquires.add((call.lineno, _lock_class(call)))
                    if state.held is not None:
                        self.nested.add(
                            (state.held, call.lineno, _lock_class(call))
                        )
            elif state.held is not None:
                callee = _resolvable_callee(call)
                if callee is not None:
                    self.held_calls.add((state.held, callee, call.lineno))
        return acquired


@dataclass
class _FuncInfo:
    name: str
    path: str
    is_delegate: bool
    #: Facts from the entered-unheld walk (the function's own sections).
    acquires: Set[Tuple[int, str]] = field(default_factory=set)
    nested: Set[Tuple[int, int, str]] = field(default_factory=set)
    held_calls: Set[Tuple[int, str, int]] = field(default_factory=set)
    #: Acquisitions/calls that happen while the *caller's* lock is held.
    #: For delegates these come from a flow-sensitive entered-held walk
    #: (only up to the release); for non-delegates the caller's lock is
    #: held across the whole body, so every acquire/call counts.
    entry_acquires: Set[Tuple[int, str]] = field(default_factory=set)
    entry_calls: Set[Tuple[str, int]] = field(default_factory=set)


def _all_call_names(func: ast.FunctionDef) -> Set[Tuple[str, int]]:
    return {
        (name, call.lineno)
        for call in ast.walk(func)
        for name in (_resolvable_callee(call),)
        if name is not None
    }


def _collect_infos(modules: Sequence[Tuple[str, ast.Module]]) -> List[_FuncInfo]:
    infos: List[_FuncInfo] = []
    for path, tree in modules:
        delegates = releasing_functions(tree)
        for func in _functions(tree):
            if func.name in IMPLEMENTATION_NAMES:
                continue  # accessor implementations, not protocol users
            info = _FuncInfo(func.name, path, is_delegate=func.name in delegates)
            plain = _SiteRecorder(func, delegates, entry_held=False).collect()
            info.acquires = plain.acquires
            info.nested = plain.nested
            info.held_calls = plain.held_calls
            if info.is_delegate:
                held = _SiteRecorder(func, delegates, entry_held=True).collect()
                info.entry_acquires = {
                    (line, cls)
                    for holder, line, cls in held.nested
                    if holder == _ENTRY
                }
                info.entry_calls = {
                    (callee, line)
                    for holder, callee, line in held.held_calls
                    if holder == _ENTRY
                }
            else:
                info.entry_acquires = set(plain.acquires)
                info.entry_calls = _all_call_names(func)
            infos.append(info)
    return infos


# --------------------------------------------------------------------------- #
# the lock-acquisition graph                                                   #
# --------------------------------------------------------------------------- #

def _held_acquires(infos: List[_FuncInfo]) -> List[Dict[str, str]]:
    """Per function: lock class -> witness string for every class the
    function may acquire while its caller's lock is still held. Fixpoint
    over the name-based call graph."""
    by_name: Dict[str, List[int]] = {}
    for index, info in enumerate(infos):
        by_name.setdefault(info.name, []).append(index)
    summaries: List[Dict[str, str]] = [
        {
            cls: f"try_lock({cls}) at {info.path}:{line} in {info.name}"
            for line, cls in sorted(info.entry_acquires)
        }
        for info in infos
    ]
    changed = True
    while changed:
        changed = False
        for index, info in enumerate(infos):
            summary = summaries[index]
            for callee, _line in sorted(info.entry_calls):
                for target in by_name.get(callee, ()):
                    if target == index:
                        continue
                    for cls, witness in summaries[target].items():
                        if cls not in summary:
                            summary[cls] = f"via {callee}: {witness}"
                            changed = True
    return summaries


def check_lock_order(
    modules: Sequence[Tuple[str, ast.Module]],
) -> List[Tuple[str, int, int, str]]:
    """Cross-function lock-order cycle detection over a parsed module set.

    Returns ``(path, line, col, message)`` findings — one per edge of each
    cycle, anchored where the second lock enters the critical section.
    """
    infos = _collect_infos(modules)
    by_name: Dict[str, List[int]] = {}
    for index, info in enumerate(infos):
        by_name.setdefault(info.name, []).append(index)
    summaries = _held_acquires(infos)

    # Edges: (src class, dst class) -> (path, line, witness) — keep the
    # first witness per edge, deterministically.
    edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}

    def add_edge(src: str, dst: str, path: str, line: int, witness: str) -> None:
        edges.setdefault((src, dst), (path, line, witness))

    for index, info in enumerate(infos):
        class_of_line = {line: cls for line, cls in info.acquires}
        for holder, line, cls in sorted(info.nested):
            src = class_of_line.get(holder)
            if src is not None:
                add_edge(
                    src, cls, info.path, line,
                    f"{info.name} acquires '{cls}' (line {line}) while "
                    f"holding '{src}' (line {holder})",
                )
        for holder, callee, line in sorted(info.held_calls):
            src = class_of_line.get(holder)
            if src is None:
                continue
            for target in by_name.get(callee, ()):
                if target == index:
                    continue
                for dst, witness in sorted(summaries[target].items()):
                    add_edge(
                        src, dst, info.path, line,
                        f"{info.name} holds '{src}' (line {holder}) across "
                        f"call to {callee} (line {line}), which acquires "
                        f"'{dst}' [{witness}]",
                    )

    return _cycle_findings(edges)


def _cycle_findings(
    edges: Dict[Tuple[str, str], Tuple[str, int, str]],
) -> List[Tuple[str, int, int, str]]:
    """Every edge that lies on a cycle of the class graph, as findings."""
    graph: Dict[str, Set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())

    # Iterative Tarjan SCC (the graphs here are tiny; iterative only to
    # stay stack-safe on pathological inputs).
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    scc_of: Dict[str, int] = {}
    counter = [0]
    scc_count = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_count[0]
                    if member == node:
                        break
                scc_count[0] += 1

    for node in sorted(graph):
        if node not in index_of:
            strongconnect(node)

    members: Dict[int, List[str]] = {}
    for node, scc in scc_of.items():
        members.setdefault(scc, []).append(node)

    findings: List[Tuple[str, int, int, str]] = []
    for (src, dst), (path, line, witness) in sorted(edges.items()):
        same_scc = scc_of.get(src) == scc_of.get(dst)
        cyclic = (same_scc and len(members[scc_of[src]]) > 1) or src == dst
        if not cyclic:
            continue
        if src == dst:
            cycle = f"'{src}' -> '{src}'"
        else:
            cycle = " -> ".join(
                f"'{c}'" for c in sorted(members[scc_of[src]]) + [sorted(members[scc_of[src]])[0]]
            )
        findings.append(
            (
                path,
                line,
                0,
                f"potential distributed deadlock: lock-order cycle {cycle}; "
                f"this edge: {witness}",
            )
        )
    return sorted(set(findings))


# --------------------------------------------------------------------------- #
# static lease/retry-budget consistency                                        #
# --------------------------------------------------------------------------- #

def _literal_number(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_number(node.operand)
        return None if inner is None else -inner
    return None


def check_lease_config(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """Flag ``RetryConfig(...)`` constructions whose literal arguments
    violate ``lock_lease_s >= 2 * retry_budget_s``. Constructions with any
    relevant non-literal argument are skipped (not provable either way)."""
    findings: List[Tuple[int, int, str]] = []
    for call in ast.walk(tree):
        if _call_name(call) != "RetryConfig":
            continue
        values: Dict[str, float] = dict(_RETRY_FIELDS)
        provable = True
        explicit_lease = False
        for position, arg in enumerate(call.args):
            number = _literal_number(arg)
            if position >= len(_RETRY_FIELDS) or number is None:
                provable = False
                break
            name = list(_RETRY_FIELDS)[position]
            values[name] = number
            explicit_lease = explicit_lease or name == "lock_lease_s"
        for keyword in call.keywords:
            if keyword.arg not in _LEASE_INPUTS:
                if keyword.arg is None:  # **kwargs splat: opaque
                    provable = False
                continue
            number = _literal_number(keyword.value)
            if number is None:
                provable = False
                continue
            values[keyword.arg] = number
            explicit_lease = explicit_lease or keyword.arg == "lock_lease_s"
        if not provable:
            continue
        budget = retry_budget_s(*(values[name] for name in _BUDGET_INPUTS))
        if values["lock_lease_s"] < 2.0 * budget:
            what = (
                "lock_lease_s" if explicit_lease else "default lock_lease_s"
            )
            findings.append(
                (
                    call.lineno,
                    call.col_offset,
                    f"{what}={values['lock_lease_s']:g}s is below twice the "
                    f"worst-case retry budget ({budget:g}s): a slow-but-"
                    f"alive lock holder can be lease-stolen mid-write. Use "
                    f"lock_lease_s >= {2.0 * budget:g} (or suppress for a "
                    f"deliberately tight crash-recovery lease)",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# the N07 entry point                                                          #
# --------------------------------------------------------------------------- #

def check_deadlocks(
    modules: Sequence[Tuple[str, ast.Module]],
) -> List[Tuple[str, int, int, str]]:
    """Run the full N07 analysis over a parsed ``(path, module)`` set."""
    findings = list(check_lock_order(modules))
    for path, tree in modules:
        findings.extend(
            (path, line, col, message)
            for line, col, message in check_lease_config(tree)
        )
    return sorted(set(findings))
