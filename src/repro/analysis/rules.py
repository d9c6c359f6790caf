"""The FLIP rule set: repo contracts encoded as AST checks.

Each rule encodes an invariant another subsystem's correctness
depends on but no off-the-shelf tool checks:

* **FLIP001** — published :class:`StoreSnapshot` generations are
  immutable; only ``_SnapshotBuilder`` (and constructors) may touch
  snapshot index fields (PR 7, lock-free serving).
* **FLIP002** — ``async def`` bodies never block the event loop: no
  ``time.sleep``, sync file I/O, ``lock.acquire``, ``subprocess``,
  or direct mining/reindex calls (PR 7, asyncio front end).
* **FLIP003** — store/manifest/shard/image writes are atomic: any
  write-mode ``open`` in the persistence layers must flow through
  the temp + ``os.replace`` idiom (PR 6, crash-safety contract).
* **FLIP004** — public functions in the data/serving layers wrap
  builtin ``KeyError``/``json.JSONDecodeError``/``FileNotFoundError``
  in :class:`DataError`; no bare ``except:`` (PRs 3/5, error
  contract).
* **FLIP005** — serialization, fingerprint and columnar-header code
  derives nothing from ``random``/``time``/``uuid``/``hash()``:
  bytes on disk are a pure function of the data (PR 6, deterministic
  containers).
* **FLIP006** — state shared between the writer task and request
  handlers is published by single-assignment atomic swap
  (``self._snap = next``), never mutated in place (PR 7, swap
  publication discipline).
* **FLIP007** — metric and span names come from
  :mod:`repro.obs.catalog` constants: no inline name literal reaches
  ``registry.counter(...)``/``gauge``/``histogram`` or
  ``trace_span(...)`` outside the obs package itself (PR 9, unified
  observability catalog).

The rules are deliberately *syntactic*: they match the concrete
idioms this repo uses (attribute names, helper functions, module
layout) rather than attempting type inference, which keeps them
dependency-free, fast, and — via the fixture corpus under
``tests/analysis/fixtures/`` — provably aligned with the code they
guard.  Scope predicates match on path *parts*, so fixtures arranged
under ``serve/``/``data/`` directories exercise the same scoping as
the live tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath

from repro.errors import ConfigError

__all__ = [
    "RULES",
    "RULE_IDS",
    "RawFinding",
    "Rule",
    "resolve_rules",
]


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before the runner attaches path and line content."""

    line: int
    col: int
    rule: str
    message: str


class _RuleVisitor(ast.NodeVisitor):
    """Shared scope/import bookkeeping for all rule visitors.

    Tracks the class and function nesting stacks, whether execution
    is directly inside an ``async def`` body, which calls are
    awaited, and a local-alias → dotted-origin import map so calls
    like ``sp.run`` resolve to ``subprocess.run``.
    """

    def __init__(self, rule_id: str) -> None:
        self.rule_id = rule_id
        self.findings: list[RawFinding] = []
        self.class_stack: list[str] = []
        self.func_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self.imports: dict[str, str] = {}
        self._awaited: set[int] = set()

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawFinding(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=self.rule_id,
                message=message,
            )
        )

    # -- import alias resolution ---------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".", 1)[0]
                self.imports[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a name/attribute chain, through aliases."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    # -- scope tracking ------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.func_stack.append(node)
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    # -- shared context predicates -------------------------------------

    @property
    def in_async_body(self) -> bool:
        """Directly inside an ``async def`` (not in a nested sync
        def, whose body may legitimately run in an executor)."""
        return bool(self.func_stack) and isinstance(
            self.func_stack[-1], ast.AsyncFunctionDef
        )

    @property
    def enclosing_function(self) -> str | None:
        return self.func_stack[-1].name if self.func_stack else None

    @property
    def outermost_function(self) -> str | None:
        return self.func_stack[0].name if self.func_stack else None


def _chain_attrs(node: ast.expr) -> list[str]:
    """Attribute names along a dotted chain, outermost first,
    looking through subscripts and calls: for
    ``self._snap._postings[k].fill`` this is
    ``["fill", "_postings", "_snap"]``."""
    attrs: list[str] = []
    current: ast.expr = node
    while True:
        if isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        else:
            return attrs


def _call_mode(node: ast.Call, mode_position: int) -> str:
    """The ``mode`` argument of an ``open``-style call ("r" default)."""
    for keyword in node.keywords:
        if keyword.arg == "mode":
            if isinstance(keyword.value, ast.Constant) and isinstance(
                keyword.value.value, str
            ):
                return keyword.value.value
            return ""
    if len(node.args) > mode_position:
        arg = node.args[mode_position]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return "r"


class Rule:
    """One invariant check: a scope predicate plus an AST visitor."""

    id: str = ""
    title: str = ""
    contract: str = ""

    def applies_to(self, path: str) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        raise NotImplementedError


def _parts(path: str) -> frozenset[str]:
    return frozenset(PurePosixPath(path).parts)


def _basename(path: str) -> str:
    return PurePosixPath(path).name


# ---------------------------------------------------------------------------
# FLIP001 — snapshot immutability
# ---------------------------------------------------------------------------

#: the fields of StoreSnapshot.__slots__ (serve/store.py)
SNAPSHOT_FIELDS = frozenset(
    {
        "_ids",
        "_rows",
        "_bodies",
        "_ordinals",
        "_measures",
        "_heights",
        "_orders",
        "_ranks",
        "_postings",
        "_version",
        "_config",
    }
)

#: method names that mutate their receiver in place
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
        # ndarray in-place methods (the snapshot's index arrays)
        "fill",
        "put",
        "itemset",
        "partition",
        "resize",
        "setflags",
    }
)

#: module-level functions that mutate an argument in place
_MUTATING_FUNCTIONS = frozenset(
    {
        "bisect.insort",
        "bisect.insort_left",
        "bisect.insort_right",
        "heapq.heappush",
        "heapq.heappop",
        "heapq.heapify",
    }
)

#: contexts allowed to write snapshot fields: the builder class, and
#: constructors/freeze (which assemble a not-yet-published snapshot)
_FLIP001_ALLOWED_CLASSES = frozenset({"_SnapshotBuilder"})
_FLIP001_ALLOWED_FUNCTIONS = frozenset({"__init__", "freeze"})


class _Flip001Visitor(_RuleVisitor):
    def _allowed(self) -> bool:
        if _FLIP001_ALLOWED_CLASSES & set(self.class_stack):
            return True
        return self.enclosing_function in _FLIP001_ALLOWED_FUNCTIONS

    def _field_of_target(self, target: ast.expr) -> str | None:
        current: ast.expr = target
        while isinstance(current, ast.Subscript):
            current = current.value
        if isinstance(current, ast.Attribute):
            if current.attr in SNAPSHOT_FIELDS:
                return current.attr
            # item assignment one level deeper, e.g. x._postings[k][0]
            inner = _chain_attrs(current.value)
            for attr in inner:
                if attr in SNAPSHOT_FIELDS:
                    return attr
        return None

    def _check_target(self, target: ast.expr) -> None:
        if self._allowed():
            return
        field = self._field_of_target(target)
        if field is not None:
            self.report(
                target,
                f"assignment to StoreSnapshot field {field!r} outside "
                "_SnapshotBuilder/__init__ — published snapshots are "
                "immutable; build the next generation and swap "
                "(lock-free serving, PR 7)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._allowed():
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            for attr in _chain_attrs(func.value):
                if attr in SNAPSHOT_FIELDS:
                    self.report(
                        node,
                        f"mutating call .{func.attr}() on StoreSnapshot "
                        f"field {attr!r} outside _SnapshotBuilder — "
                        "published snapshots are immutable (lock-free "
                        "serving, PR 7)",
                    )
                    return
        resolved = self.resolve(func)
        if resolved in _MUTATING_FUNCTIONS:
            for arg in node.args:
                for attr in _chain_attrs(arg):
                    if attr in SNAPSHOT_FIELDS:
                        self.report(
                            node,
                            f"{resolved}() mutates StoreSnapshot field "
                            f"{attr!r} in place outside "
                            "_SnapshotBuilder (lock-free serving, PR 7)",
                        )
                        return
        if resolved == "setattr" and len(node.args) >= 2:
            name = node.args[1]
            if (
                isinstance(name, ast.Constant)
                and name.value in SNAPSHOT_FIELDS
            ):
                self.report(
                    node,
                    f"setattr() on StoreSnapshot field {name.value!r} "
                    "outside _SnapshotBuilder — published snapshots "
                    "are immutable (lock-free serving, PR 7)",
                )


class Flip001SnapshotImmutability(Rule):
    id = "FLIP001"
    title = "snapshot-immutability"
    contract = (
        "published StoreSnapshot generations are immutable; only "
        "_SnapshotBuilder and constructors touch index fields"
    )

    def applies_to(self, path: str) -> bool:
        return "serve" in _parts(path)

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        visitor = _Flip001Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP002 — async-blocking
# ---------------------------------------------------------------------------

#: dotted-call prefixes that block the calling thread
_BLOCKING_PREFIXES = (
    "time.sleep",
    "subprocess.",
    "os.system",
    "os.popen",
    "os.spawn",
    "os.wait",
    "socket.create_connection",
    "urllib.request.urlopen",
)

#: method names that block regardless of receiver: sync file I/O,
#: lock acquisition, and this repo's heavyweight mine/reindex entry
#: points (which must run via run_in_executor)
_BLOCKING_METHODS = frozenset(
    {
        "acquire",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "apply_result",
        "run_update",
        "mine",
    }
)


class _Flip002Visitor(_RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_async_body:
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func_name = self.enclosing_function
        resolved = self.resolve(node.func)
        if resolved is not None:
            if resolved in ("open", "io.open"):
                self.report(
                    node,
                    f"sync file I/O (open) inside 'async def "
                    f"{func_name}' blocks the event loop — use "
                    "run_in_executor (asyncio front end, PR 7)",
                )
                return
            for prefix in _BLOCKING_PREFIXES:
                if resolved == prefix or (
                    prefix.endswith(".")
                    and resolved.startswith(prefix)
                ):
                    self.report(
                        node,
                        f"blocking call {resolved}() inside 'async "
                        f"def {func_name}' — the event loop must "
                        "never block (asyncio front end, PR 7)",
                    )
                    return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_METHODS
            # an awaited .acquire()/... is an async API, not a block
            and id(node) not in self._awaited
        ):
            self.report(
                node,
                f"blocking call .{func.attr}() inside 'async def "
                f"{func_name}' — run it in an executor or await an "
                "async equivalent (asyncio front end, PR 7)",
            )


class Flip002AsyncBlocking(Rule):
    id = "FLIP002"
    title = "async-blocking"
    contract = (
        "async def bodies never block the event loop: no sleep, sync "
        "file I/O, lock.acquire, subprocess, or direct mine/reindex"
    )

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        visitor = _Flip002Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP003 — atomic-write
# ---------------------------------------------------------------------------

_FLIP003_SCOPE_PARTS = frozenset({"data", "serve", "core", "taxonomy"})

#: the sanctioned atomic-write implementations
_ATOMIC_HELPER_MODULE = "atomicio.py"
_ATOMIC_HELPER_FUNCTIONS = frozenset(
    {"atomic_write_json", "atomic_write_text", "atomic_write_bytes"}
)


class _Flip003Visitor(_RuleVisitor):
    def __init__(self, rule_id: str) -> None:
        super().__init__(rule_id)
        #: functions whose body calls os.replace — they implement the
        #: temp + rename idiom themselves, so their writes are atomic
        self._replace_functions: set[int] = set()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                resolved = self.resolve(inner.func)
                if resolved in ("os.replace", "os.rename"):
                    self._replace_functions.add(id(node))
                    break
        super()._visit_function(node)

    def _allowed(self) -> bool:
        for func in self.func_stack:
            if func.name in _ATOMIC_HELPER_FUNCTIONS:
                return True
            if id(func) in self._replace_functions:
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if not self._allowed():
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        resolved = self.resolve(node.func)
        func = node.func
        description: str | None = None
        if resolved in ("open", "io.open"):
            mode = _call_mode(node, mode_position=1)
            if any(flag in mode for flag in "wax+"):
                description = f"open(..., {mode!r})"
        elif isinstance(func, ast.Attribute):
            if func.attr == "open":
                mode = _call_mode(node, mode_position=0)
                if any(flag in mode for flag in "wax+"):
                    description = f".open({mode!r})"
            elif func.attr in ("write_text", "write_bytes"):
                description = f".{func.attr}(...)"
        if description is not None:
            self.report(
                node,
                f"non-atomic write {description} — persistence-layer "
                "writes must go through temp + os.replace "
                "(repro.core.atomicio; crash-safety contract, PR 6)",
            )


class Flip003AtomicWrite(Rule):
    id = "FLIP003"
    title = "atomic-write"
    contract = (
        "manifest/store/shard/image writes flow through the temp + "
        "os.replace helpers; a crash never leaves a torn file"
    )

    def applies_to(self, path: str) -> bool:
        return bool(_FLIP003_SCOPE_PARTS & _parts(path))

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        if _basename(path) == _ATOMIC_HELPER_MODULE:
            return []
        visitor = _Flip003Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP004 — error-contract
# ---------------------------------------------------------------------------

#: builtin exceptions public data/serving APIs must not leak
_LEAKY_EXCEPTIONS = frozenset(
    {"KeyError", "FileNotFoundError", "JSONDecodeError"}
)

#: handler types that guard a json.loads / json.load call
_JSON_GUARDS = frozenset(
    {"JSONDecodeError", "ValueError", "Exception", "BaseException"}
)

#: handler types that guard a file read
_READ_GUARDS = frozenset(
    {
        "FileNotFoundError",
        "OSError",
        "IOError",
        "EnvironmentError",
        "Exception",
        "BaseException",
    }
)


class _Flip004Visitor(_RuleVisitor):
    def __init__(self, rule_id: str) -> None:
        super().__init__(rule_id)
        self._guard_stack: list[frozenset[str]] = []

    # -- guarded-region tracking ---------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        caught: set[str] = set()
        for handler in node.handlers:
            caught |= self._handler_names(handler)
        self._guard_stack.append(frozenset(caught))
        for statement in node.body:
            self.visit(statement)
        self._guard_stack.pop()
        for handler in node.handlers:
            self.visit(handler)
        for statement in node.orelse + node.finalbody:
            self.visit(statement)

    def _handler_names(self, handler: ast.ExceptHandler) -> set[str]:
        if handler.type is None:
            return {"BaseException"}
        names: set[str] = set()
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for item in types:
            if isinstance(item, ast.Name):
                names.add(item.id)
            elif isinstance(item, ast.Attribute):
                names.add(item.attr)
        return names

    def _guarded_by(self, guards: frozenset[str]) -> bool:
        return any(frame & guards for frame in self._guard_stack)

    # -- the public-surface predicate ----------------------------------

    @property
    def _in_public_function(self) -> bool:
        name = self.outermost_function
        return name is not None and not name.startswith("_")

    # -- checks --------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' swallows SystemExit and "
                "KeyboardInterrupt — catch specific exceptions and "
                "wrap them in DataError (error contract, PRs 3/5)",
            )
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        if self._in_public_function and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name: str | None = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name in _LEAKY_EXCEPTIONS:
                self.report(
                    node,
                    f"public function "
                    f"{self.outermost_function!r} raises builtin "
                    f"{name} — wrap it in DataError so callers catch "
                    "one library type (error contract, PRs 3/5)",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_public_function:
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        resolved = self.resolve(node.func)
        func = node.func
        if resolved in ("json.loads", "json.load"):
            if not self._guarded_by(_JSON_GUARDS):
                self.report(
                    node,
                    f"unguarded {resolved}() in public function "
                    f"{self.outermost_function!r} leaks "
                    "json.JSONDecodeError — wrap it in DataError "
                    "(error contract, PRs 3/5)",
                )
            return
        reads: str | None = None
        if resolved in ("open", "io.open"):
            mode = _call_mode(node, mode_position=1)
            if not any(flag in mode for flag in "wax+"):
                reads = "open(...)"
        elif isinstance(func, ast.Attribute):
            if func.attr == "open":
                mode = _call_mode(node, mode_position=0)
                if not any(flag in mode for flag in "wax+"):
                    reads = ".open(...)"
            elif func.attr in ("read_text", "read_bytes"):
                reads = f".{func.attr}(...)"
        if reads is not None and not self._guarded_by(_READ_GUARDS):
            self.report(
                node,
                f"unguarded file read {reads} in public function "
                f"{self.outermost_function!r} leaks "
                "FileNotFoundError — wrap it in DataError (error "
                "contract, PRs 3/5)",
            )


class Flip004ErrorContract(Rule):
    id = "FLIP004"
    title = "error-contract"
    contract = (
        "public data/serving functions raise DataError, never bare "
        "KeyError/json.JSONDecodeError/FileNotFoundError; no bare "
        "except"
    )

    def applies_to(self, path: str) -> bool:
        parts = _parts(path)
        if {"data", "serve", "taxonomy"} & parts:
            return True
        return "core" in parts and _basename(path) == "serialize.py"

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        visitor = _Flip004Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP005 — determinism
# ---------------------------------------------------------------------------

_NONDETERMINISTIC_PREFIXES = (
    "random.",
    "uuid.",
    "secrets.",
    "os.urandom",
    "os.getrandom",
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.date.today",
)

#: modules whose entire byte output must be deterministic
_FLIP005_MODULES = frozenset({"serialize.py", "columnar.py"})

#: function-name fragments that mark a deterministic code path
_FLIP005_FUNCTION_MARKERS = ("fingerprint", "header", "serialize")


class _Flip005Visitor(_RuleVisitor):
    def __init__(self, rule_id: str, module_wide: bool) -> None:
        super().__init__(rule_id)
        self._module_wide = module_wide

    def _in_scope(self) -> bool:
        if self._module_wide:
            return True
        return any(
            marker in func.name
            for func in self.func_stack
            for marker in _FLIP005_FUNCTION_MARKERS
        )

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_scope():
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        resolved = self.resolve(node.func)
        if resolved is None:
            return
        if resolved == "hash":
            self.report(
                node,
                "builtin hash() is PYTHONHASHSEED-dependent — "
                "serialized bytes must be a pure function of the "
                "data; use hashlib (deterministic containers, PR 6)",
            )
            return
        # a seeded random.Random(seed) stream is deterministic
        if resolved == "random.Random" and (node.args or node.keywords):
            return
        for prefix in _NONDETERMINISTIC_PREFIXES:
            if resolved == prefix or (
                prefix.endswith(".") and resolved.startswith(prefix)
            ):
                self.report(
                    node,
                    f"nondeterministic value {resolved}() in a "
                    "serialization/fingerprint path — bytes on disk "
                    "must be a pure function of the data "
                    "(deterministic containers, PR 6)",
                )
                return


class Flip005Determinism(Rule):
    id = "FLIP005"
    title = "determinism"
    contract = (
        "serialization, fingerprint and columnar-header code derives "
        "nothing from random/time/uuid/hash()"
    )

    def applies_to(self, path: str) -> bool:
        return bool({"core", "data", "serve"} & _parts(path))

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        module_wide = _basename(path) in _FLIP005_MODULES
        visitor = _Flip005Visitor(self.id, module_wide)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP006 — lock-discipline (swap publication)
# ---------------------------------------------------------------------------

#: attributes published by atomic reference swap
_PUBLISHED_ATTRS = frozenset({"_snap"})

#: the only methods allowed to rebind a published attribute
_SANCTIONED_PUBLISHERS = frozenset({"__init__", "apply_result", "open"})


class _Flip006Visitor(_RuleVisitor):
    def _check_target(self, target: ast.expr, augmented: bool) -> None:
        attrs = _chain_attrs(target)
        if not attrs:
            return
        if attrs[0] in _PUBLISHED_ATTRS and len(attrs) == 1:
            is_subscript = isinstance(target, ast.Subscript)
            if augmented or is_subscript:
                self.report(
                    target,
                    f"in-place mutation of swap-published attribute "
                    f"{attrs[0]!r} — writer state is published by "
                    "single atomic assignment, never mutated "
                    "incrementally (swap discipline, PR 7)",
                )
            elif self.enclosing_function not in _SANCTIONED_PUBLISHERS:
                self.report(
                    target,
                    f"rebinding swap-published attribute {attrs[0]!r} "
                    f"outside {sorted(_SANCTIONED_PUBLISHERS)} — "
                    "publish new generations only through the "
                    "sanctioned swap point (swap discipline, PR 7)",
                )
            return
        for attr in attrs[1:]:
            if attr in _PUBLISHED_ATTRS:
                self.report(
                    target,
                    f"write through swap-published attribute "
                    f"{attr!r} mutates a generation readers may "
                    "have pinned — build the next generation and "
                    "swap (swap discipline, PR 7)",
                )
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, augmented=False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target, augmented=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, augmented=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            receiver_attrs = _chain_attrs(func.value)
            for attr in receiver_attrs:
                if attr in _PUBLISHED_ATTRS:
                    self.report(
                        node,
                        f"mutating call .{func.attr}() through "
                        f"swap-published attribute {attr!r} — "
                        "readers may have pinned this generation; "
                        "build the next one and swap (swap "
                        "discipline, PR 7)",
                    )
                    break
        self.generic_visit(node)


class Flip006LockDiscipline(Rule):
    id = "FLIP006"
    title = "lock-discipline"
    contract = (
        "state shared between the writer task and request handlers "
        "is published by single-assignment atomic swap"
    )

    def applies_to(self, path: str) -> bool:
        return "serve" in _parts(path)

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        visitor = _Flip006Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# FLIP007 — metric-name catalog
# ---------------------------------------------------------------------------

#: registry getters whose first argument is a metric name
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})


class _Flip007Visitor(_RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        if not node.args:
            return
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
        ):
            # catalog constants, variables, f-strings: all fine — the
            # rule only rejects a verbatim inline name
            return
        func = node.func
        call: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_METHODS
        ):
            call = f".{func.attr}()"
        elif isinstance(func, ast.Attribute) and func.attr == "span":
            call = ".span()"
        else:
            resolved = self.resolve(func)
            if resolved is not None and (
                resolved == "trace_span"
                or resolved.endswith(".trace_span")
            ):
                call = "trace_span()"
        if call is not None:
            self.report(
                node,
                f"inline name literal {first.value!r} passed to "
                f"{call} — metric and span names come from "
                "repro.obs.catalog constants, so exposition, docs "
                "and dashboards never drift (observability catalog, "
                "PR 9)",
            )


class Flip007MetricCatalog(Rule):
    id = "FLIP007"
    title = "metric-catalog"
    contract = (
        "metric and span names outside repro.obs are catalog "
        "constants, never inline string literals"
    )

    def applies_to(self, path: str) -> bool:
        # the obs package itself defines the names (and its catalog
        # necessarily spells them out as literals)
        return "obs" not in _parts(path)

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        visitor = _Flip007Visitor(self.id)
        visitor.visit(tree)
        return visitor.findings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Flip001SnapshotImmutability(),
        Flip002AsyncBlocking(),
        Flip003AtomicWrite(),
        Flip004ErrorContract(),
        Flip005Determinism(),
        Flip006LockDiscipline(),
        Flip007MetricCatalog(),
    )
}

RULE_IDS: list[str] = sorted(RULES)


def resolve_rules(ids: list[str] | None) -> list[Rule]:
    """The rule objects for ``ids`` (all rules when ``None``)."""
    if ids is None:
        return [RULES[rule_id] for rule_id in RULE_IDS]
    selected: list[Rule] = []
    for rule_id in ids:
        normalized = rule_id.upper()
        if normalized not in RULES:
            raise ConfigError(
                f"unknown rule {rule_id!r} (known: "
                f"{', '.join(RULE_IDS)})"
            )
        selected.append(RULES[normalized])
    return selected
