"""N02 and N07 — the lock protocol, checked over one walk per function.

The lock protocol in this codebase has a fixed shape (the paper's
Listings 2-4)::

    locked = yield from self.acc.try_lock(raw_ptr, node.version)
    if not locked:
        ...          # lock NOT held on this branch
        return False
    ...              # lock held from here on
    yield from self.acc.unlock_write(raw_ptr, node)   # or unlock_nochange

:class:`_Walk` is an abstract interpreter over one function body. It
tracks a single symbolic lock (writers lock exactly one node at a time)
through assignments, conditionals on the acquire result, loops, and
try/finally. Releases are recognized by attribute name (``unlock_write``
/ ``unlock_nochange``) *or* by calling a local function that itself
releases on every path (e.g. ``self._split_and_insert(...)``, which always
writes-and-unlocks the node it was handed); that delegate set is computed
first, per module, by :func:`releasing_functions`. As it goes the walk
records which *lock class* is held at every acquire and call. Two rules
read the same walk:

* **N02** (:func:`check_lock_pairing`) reports any function exit —
  ``return``, ``raise``, ``break``/``continue`` (a loop-back re-acquires),
  or falling off the end — reachable with the lock still held.

* **N07** (:func:`check_deadlocks`) finds cross-function lock-order
  inversions, which nothing per-function can see: ``f`` locks A then calls
  into code that locks B, while ``g`` locks B then reaches A. Two clients
  running ``f`` and ``g`` against each other then deadlock — and with
  one-sided RDMA spinlocks there is no lock manager to notice, only the
  lease timeout. Over a name-based call graph of the analyzed module set
  it computes, per function, the lock classes it may acquire while its
  caller's lock is still held (a fixpoint, flow-sensitive through release
  points so e.g. ``_split_and_insert`` — which unlocks the child *before*
  ascending to the parent — contributes nothing), and reports every edge
  of every cycle in the resulting lock-acquisition graph. A *lock class*
  is the source text of the pointer handed to ``try_lock`` (``raw_ptr``,
  ``left_ptr``, ``self.meta_ptr`` ...): the protocol locks nodes through a
  small set of well-named pointer roles. A self-loop (acquiring a class
  while holding the same class) is reported too: two node locks of one
  role held at once can meet in opposite order.

  N07 also applies ``RetryConfig.__post_init__``'s runtime warning
  (``lock_lease_s < 2 * retry_budget_s``: a slow-but-alive holder could be
  lease-stolen mid-write) *statically*, to every ``RetryConfig(...)``
  construction whose relevant arguments are numeric literals.

Deliberate scope limits (documented in docs/namsan.md): the walk follows
explicit control flow only. Exceptions *propagating out of calls* inside
a critical section are not modeled — at runtime those are covered by the
lock-lease recovery protocol, which the chaos suite exercises. Accessor
implementations (functions named ``try_lock`` / ``unlock_*``) and pure
delegations (``return ...try_lock(...)``) are exempt: they forward the
caller's responsibility, not acquire for themselves. The call graph
follows only ``self.f(...)`` / ``cls.f(...)`` / bare ``f(...)`` calls;
calls on other receivers (``node.insert_entry(...)``,
``entries.insert(...)``) are opaque, since resolving those by name drags
stdlib-shaped method names into the graph and drowns the signal.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.config import RetryConfig, retry_budget_s

__all__ = ["check_deadlocks", "check_lock_pairing"]

ACQUIRE_NAMES = {"try_lock"}
RELEASE_NAMES = {"unlock_write", "unlock_nochange"}
#: Functions whose *name* marks them as accessor-layer implementations.
IMPLEMENTATION_NAMES = ACQUIRE_NAMES | RELEASE_NAMES

#: Sentinel "acquire line" meaning the lock was held on function entry.
_ENTRY = -1

#: :class:`repro.config.RetryConfig`'s fields and defaults, in declaration
#: order (the order positional arguments bind in), and the ones the lease
#: check reads: the budget formula's inputs and the lease.
_RETRY_FIELDS = {f.name: f.default for f in dataclasses.fields(RetryConfig)}
_BUDGET_INPUTS = tuple(inspect.signature(retry_budget_s).parameters)
_LEASE_INPUTS = frozenset(_BUDGET_INPUTS + ("lock_lease_s",))

_Finding = Tuple[str, int, int, str]  # (path, line, col, message)
_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class _State:
    """One abstract path: is the lock held, and which variable holds a
    not-yet-branched try_lock result?"""

    held: Optional[int] = None          # acquire line number, or None
    pending: Optional[Tuple[str, int]] = None  # (variable, acquire line)

    def fork(self) -> "_State":
        return replace(self)


@dataclass
class _Exit:
    kind: str          # "return" | "raise" | "break" | "continue" | "fall"
    state: _State
    line: int


def _calls(node: ast.AST) -> List[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)]


def _call_name(call: ast.Call) -> Optional[str]:
    """The trailing attribute/function name of a call, if any."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _resolvable_callee(call: ast.Call) -> Optional[str]:
    """The callee name, but only for calls the name-based graph can follow
    without drowning in collisions: bare ``f(...)`` and ``self.f(...)`` /
    ``cls.f(...)``. Calls on any other receiver are opaque."""
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


def _contains_release(node: ast.AST, delegates: Set[str]) -> bool:
    return any(
        name in RELEASE_NAMES or name in delegates
        for name in map(_call_name, _calls(node))
    )


class _Walk:
    """One abstract interpretation of *func*, entered with the lock held
    at *entry* (``None``: not held; :data:`_ENTRY`: a callee inheriting
    its caller's critical section).

    Leaves ``exits`` (for N02 to judge), ``violations`` found mid-walk
    (loop-back edges, a second acquire), and N07's facts: every acquire
    site with its class, every acquire reached while another acquire is
    held, and every call made while a lock is held (delegates included —
    they run inside the critical section before releasing it)."""

    def __init__(
        self, func: _Function, delegates: Set[str], entry: Optional[int]
    ) -> None:
        self.func = func
        self.delegates = delegates
        self.violations: List[Tuple[int, str]] = []
        self.acquires: Set[Tuple[int, str]] = set()          # (line, class)
        self.nested: Set[Tuple[int, int, str]] = set()       # (holder line, line, class)
        self.held_calls: Set[Tuple[int, str, int]] = set()   # (holder line, callee, line)
        self.exits = self._walk_block(func.body, _State(held=entry))

    def check_resolved(self, state: _State, line: int, where: str) -> None:
        if state.held is not None:
            self.violations.append(
                (line, f"lock acquired at line {state.held} may still be held {where}")
            )
        elif state.pending is not None:
            variable, acquired = state.pending
            self.violations.append(
                (
                    line,
                    f"try_lock result '{variable}' (line {acquired}) never "
                    f"checked/released before {where}",
                )
            )

    # -- statement walk ------------------------------------------------------

    def _walk_block(self, stmts: List[ast.stmt], state: _State) -> List[_Exit]:
        """Process *stmts* for every live path; returns all exits (paths
        ending in return/raise/break/continue plus the fall-throughs)."""
        live = [state]
        exits: List[_Exit] = []
        for stmt in stmts:
            next_live: List[_State] = []
            for path in live:
                for exit_ in self._walk_stmt(stmt, path):
                    if exit_.kind == "fall":
                        next_live.append(exit_.state)
                    else:
                        exits.append(exit_)
            live = next_live
            if not live:
                break
        last_line = stmts[-1].lineno if stmts else self.func.lineno
        exits.extend(_Exit("fall", path, last_line) for path in live)
        return exits

    def _walk_stmt(self, stmt: ast.stmt, state: _State) -> List[_Exit]:
        line = stmt.lineno
        if isinstance(stmt, ast.Return):
            # `return (yield from acc.try_lock(...))` is a delegating
            # wrapper: the acquire belongs to the caller.
            if stmt.value is not None:
                self._apply_effects(stmt.value, state, ignore_acquire=True)
            return [_Exit("return", state, line)]
        if isinstance(stmt, ast.Raise):
            return [_Exit("raise", state, line)]
        if isinstance(stmt, ast.Break):
            return [_Exit("break", state, line)]
        if isinstance(stmt, ast.Continue):
            return [_Exit("continue", state, line)]
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, state)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._walk_loop(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._apply_effects(item.context_expr, state)
            return self._walk_block(stmt.body, state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [_Exit("fall", state, line)]  # nested defs are separate scopes
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                acquired_line = self._apply_effects(stmt.value, state)
                if acquired_line is not None:
                    target = _single_name_target(stmt)
                    if target is None:
                        # Result not captured in a simple variable:
                        # assume the lock is held unconditionally.
                        state.held = acquired_line
                    else:
                        if state.held is not None or state.pending is not None:
                            self.violations.append(
                                (
                                    acquired_line,
                                    "second try_lock while a lock is already "
                                    "held/pending (writers lock one node at a time)",
                                )
                            )
                        state.pending = (target, acquired_line)
            return [_Exit("fall", state, line)]
        # Anything else (expression statements, pass, assert, import,
        # delete...) — scan for effects conservatively. An acquire whose
        # result is discarded is held, its success unchecked.
        acquired_line = self._apply_effects(stmt, state)
        if acquired_line is not None and isinstance(stmt, ast.Expr):
            state.held = acquired_line
        return [_Exit("fall", state, line)]

    # -- composite statements ------------------------------------------------

    def _walk_if(self, stmt: ast.If, state: _State) -> List[_Exit]:
        branch = self._lock_condition(stmt.test, state)
        if branch is None:
            self._apply_effects(stmt.test, state)
            then_state = state.fork()
            else_state = state.fork()
        else:
            held_if_true, acquired = branch
            then_state = _State(held=acquired if held_if_true else None)
            else_state = _State(held=None if held_if_true else acquired)
        exits = self._walk_block(stmt.body, then_state)
        if stmt.orelse:
            exits += self._walk_block(stmt.orelse, else_state)
        else:
            exits.append(_Exit("fall", else_state, stmt.lineno))
        return exits

    @staticmethod
    def _lock_condition(
        test: ast.expr, state: _State
    ) -> Optional[Tuple[bool, int]]:
        """If *test* is ``X`` / ``not X`` for the pending try_lock result
        variable, return (lock-held-when-test-true, acquire line)."""
        if state.pending is None:
            return None
        variable, acquired = state.pending
        if isinstance(test, ast.Name) and test.id == variable:
            return True, acquired
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id == variable
        ):
            return False, acquired
        return None

    def _walk_loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], state: _State
    ) -> List[_Exit]:
        self._apply_effects(
            stmt.test if isinstance(stmt, ast.While) else stmt.iter, state
        )
        exits: List[_Exit] = []
        after_states = [state.fork()]  # zero-iteration path
        for exit_ in self._walk_block(stmt.body, state.fork()):
            if exit_.kind in ("continue", "fall"):
                # Loop-back edge: the next iteration re-enters the body
                # fresh, so the lock must be resolved here.
                self.check_resolved(exit_.state, exit_.line, "at loop iteration end")
            elif exit_.kind == "break":
                after_states.append(exit_.state)
            else:
                exits.append(exit_)
        if stmt.orelse:
            for after in after_states:
                exits += self._walk_block(stmt.orelse, after)
        else:
            exits.extend(_Exit("fall", after, stmt.lineno) for after in after_states)
        return exits

    def _walk_try(self, stmt: ast.Try, state: _State) -> List[_Exit]:
        finally_releases = any(
            _contains_release(s, self.delegates) for s in stmt.finalbody
        )
        body_exits = self._walk_block(stmt.body, state.fork())
        handler_exits: List[_Exit] = []
        for handler in stmt.handlers:
            handler_exits += self._walk_block(handler.body, state.fork())
        exits: List[_Exit] = []
        for exit_ in body_exits + handler_exits:
            if finally_releases:
                exit_.state.held = None
                exit_.state.pending = None
            if exit_.kind == "fall" and stmt.orelse and exit_ in body_exits:
                exits += self._walk_block(stmt.orelse, exit_.state)
            else:
                exits.append(exit_)
        return exits

    # -- expression effects --------------------------------------------------

    def _apply_effects(
        self, node: ast.AST, state: _State, ignore_acquire: bool = False
    ) -> Optional[int]:
        """Apply release/acquire calls found inside *node* to *state* and
        record them. Returns the acquire line if an acquire call is present
        (and not ignored); releases are applied in place."""
        acquired: Optional[int] = None
        for call in _calls(node):
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
                    cls = _lock_class(call)
                    self.acquires.add((call.lineno, cls))
                    if state.held is not None:
                        self.nested.add((state.held, call.lineno, cls))
            elif state.held is not None:
                callee = _resolvable_callee(call)
                if callee is not None:
                    self.held_calls.add((state.held, callee, call.lineno))
        return acquired


def _single_name_target(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _functions(tree: ast.Module) -> List[_Function]:
    """Every function of *tree* that uses the protocol: accessor
    implementations (``try_lock``, ``unlock_*``) are dropped here, once."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in IMPLEMENTATION_NAMES
    ]


def releasing_functions(functions: Sequence[_Function]) -> Set[str]:
    """Names of local functions that release a held lock on every path.

    Iterates to a fixpoint so a delegate may itself delegate. A function
    qualifies when, entered with the lock held, every non-raising exit
    has released it.
    """
    delegates: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for func in functions:
            if func.name in delegates or not _contains_release(func, delegates):
                continue
            walk = _Walk(func, delegates, _ENTRY)
            if not walk.violations and all(
                exit_.state.held is None for exit_ in walk.exits if exit_.kind != "raise"
            ):
                delegates.add(func.name)
                changed = True
    return delegates


# --------------------------------------------------------------------------- #
# N02                                                                          #
# --------------------------------------------------------------------------- #

def check_lock_pairing(
    tree: ast.Module, lines: List[str]
) -> List[Tuple[int, int, str]]:
    """Run the N02 analysis over a parsed module; returns (line, col, message)."""
    functions = _functions(tree)
    delegates = releasing_functions(functions)
    found: Set[Tuple[int, int, str]] = set()
    for func in functions:
        walk = _Walk(func, delegates, None)
        for exit_ in walk.exits:
            # Loop control at function top level is a syntax error; treat
            # it defensively as a fall-through.
            kind = "fall" if exit_.kind in ("break", "continue") else exit_.kind
            walk.check_resolved(exit_.state, exit_.line, f"at {kind}")
        found.update((line, 0, message) for line, message in walk.violations)
    return sorted(found)


# --------------------------------------------------------------------------- #
# N07: the lock-acquisition graph                                              #
# --------------------------------------------------------------------------- #

def _lock_order(modules: Sequence[Tuple[str, ast.Module]]) -> List[_Finding]:
    """One finding per edge of each lock-order cycle, anchored where the
    second lock enters the critical section."""
    # Per function: its path, name and walk, the calls it makes while its
    # caller's lock is still held, and (in ``summaries``) the lock classes
    # it may acquire meanwhile, class -> witness.
    infos: List[Tuple[str, str, _Walk, List[Tuple[str, int]]]] = []
    summaries: List[Dict[str, str]] = []
    for path, tree in modules:
        functions = _functions(tree)
        delegates = releasing_functions(functions)
        for func in functions:
            walk = _Walk(func, delegates, None)
            if func.name in delegates:
                # Flow-sensitive: only what happens before the release.
                held = _Walk(func, delegates, _ENTRY)
                entry_acquires = {
                    (line, cls) for holder, line, cls in held.nested if holder == _ENTRY
                }
                entry_calls = {
                    (callee, line)
                    for holder, callee, line in held.held_calls
                    if holder == _ENTRY
                }
            else:
                # The caller's lock is held across the whole body.
                entry_acquires = walk.acquires
                entry_calls = {
                    (name, call.lineno)
                    for call in _calls(func)
                    for name in (_resolvable_callee(call),)
                    if name is not None
                }
            infos.append((path, func.name, walk, sorted(entry_calls)))
            summaries.append({
                cls: f"try_lock({cls}) at {path}:{line} in {func.name}"
                for line, cls in sorted(entry_acquires)
            })
    by_name: Dict[str, List[int]] = {}
    for index, (_path, name, _walk, _entry_calls) in enumerate(infos):
        by_name.setdefault(name, []).append(index)

    def callees(index: int, name: str) -> List[Dict[str, str]]:
        return [summaries[t] for t in by_name.get(name, ()) if t != index]

    # Fixpoint over the name-based call graph.
    changed = True
    while changed:
        changed = False
        for index, (_path, _name, _walk, entry_calls) in enumerate(infos):
            summary = summaries[index]
            for callee, _line in entry_calls:
                for target in callees(index, callee):
                    for cls, witness in target.items():
                        if cls not in summary:
                            summary[cls] = f"via {callee}: {witness}"
                            changed = True

    # Edges: (src class, dst class) -> (path, line, witness); the first
    # witness per edge is kept, deterministically.
    edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
    for index, (path, name, walk, _entry_calls) in enumerate(infos):
        class_of_line = {line: cls for line, cls in walk.acquires}
        for holder, line, cls in sorted(walk.nested):
            src = class_of_line.get(holder)
            if src is not None:
                edges.setdefault((src, cls), (
                    path, line,
                    f"{name} acquires '{cls}' (line {line}) while "
                    f"holding '{src}' (line {holder})",
                ))
        for holder, callee, line in sorted(walk.held_calls):
            src = class_of_line.get(holder)
            if src is None:
                continue
            for target in callees(index, callee):
                for dst, witness in sorted(target.items()):
                    edges.setdefault((src, dst), (
                        path, line,
                        f"{name} holds '{src}' (line {holder}) across "
                        f"call to {callee} (line {line}), which acquires "
                        f"'{dst}' [{witness}]",
                    ))

    # An edge (s, d) lies on a cycle iff s == d or s is reachable from d;
    # the cycle printed is every class mutually reachable with s.
    graph: Dict[str, Set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
    reach: Dict[str, Set[str]] = {}
    for start in graph:
        seen, stack = {start}, [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[start] = seen
    findings: List[_Finding] = []
    for (src, dst), (path, line, witness) in edges.items():
        if src == dst:
            members = [src]
        elif src in reach.get(dst, ()):
            members = sorted(c for c in reach[src] if src in reach.get(c, ()))
        else:
            continue
        cycle = " -> ".join(f"'{c}'" for c in members + members[:1])
        findings.append(
            (
                path,
                line,
                0,
                f"potential distributed deadlock: lock-order cycle {cycle}; "
                f"this edge: {witness}",
            )
        )
    return findings


# --------------------------------------------------------------------------- #
# N07: static lease/retry-budget consistency                                   #
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


def _lease_config(path: str, tree: ast.Module) -> List[_Finding]:
    """Flag ``RetryConfig(...)`` constructions whose literal arguments
    violate ``lock_lease_s >= 2 * retry_budget_s``. Constructions with any
    relevant non-literal argument are skipped (not provable either way)."""
    findings: List[_Finding] = []
    for call in _calls(tree):
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
                    path,
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


def check_deadlocks(
    modules: Sequence[Tuple[str, ast.Module]],
) -> List[Tuple[str, int, int, str]]:
    """Run the full N07 analysis over a parsed ``(path, module)`` set;
    returns sorted ``(path, line, col, message)`` findings."""
    findings = set(_lock_order(modules))
    for path, tree in modules:
        findings.update(_lease_config(path, tree))
    return sorted(findings)
