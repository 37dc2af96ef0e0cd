"""Concurrency safety: the NL6xx family.

ROADMAP item 1 puts the runtime/telemetry stack under real threads, and
none of the numeric passes (NL0xx–NL5xx) can see a data race.  This pass
family is the static half of the concurrency contract (the runtime half
is ``repro.utils.sanitize_concurrency``); the escape analysis it leans on
lives in :mod:`tools.numlint.concur`.

* **NL601** — a callable submitted to a ``WorkerPool`` / executor /
  ``parallel_map``, or run as a ``threading.Thread`` target, mutates
  state it does not own: a free (module-level or closure-captured)
  name, a ``global``/``nonlocal`` assignment, or —
  for a bound method submitted as ``self.method`` — the shared instance
  itself.  Worker callables must write only through their arguments and
  locals; shared-state mutation belongs on the dispatching thread
  (the broker's contract, DESIGN.md §13).
* **NL602** — a pool-submitted callable draws from a shared
  ``numpy.random.Generator`` (a free name or shared ``self`` attribute).
  Threads race the bit-generator state; forked processes inherit it and
  silently produce duplicate streams.  Spawn per-task generators instead
  (``repro.utils.rng.spawn``) or pass a generator in as an argument.
  Draws through *imported* module names are skipped — global-state
  numpy/stdlib RNG is NL001's territory.
* **NL603** — a method of a ``@thread_shared`` class writes ``self``
  state outside a ``with self._lock:`` block.  The decorator is a
  promise that instances are mutated from several threads, so every
  attribute/container write must sit lexically inside the instance lock
  (attribute named ``_lock`` or ending in ``_lock``).  ``__init__`` /
  ``__new__`` / ``__getstate__`` / ``__setstate__`` are exempt
  (construction and unpickling are single-threaded by protocol), as are
  chains through ``self._tls`` (``threading.local`` state is per-thread
  by construction).
* **NL604** — blocking I/O (``open``, ``.flush()``, ``subprocess.*``)
  lexically inside a ``with ....span(...):`` tracer body or an ``async
  def``.  Span durations feed the perf harness; hiding disk or process
  latency inside them corrupts the phase attribution, and an event loop
  must never block.  Library/benchmark scope (tests are exempt).
* **NL605** — two methods of one class acquire the same pair of locks in
  opposite nesting orders (an intraprocedural lock-order graph per
  class; lock identity is the attribute/variable name, matching the
  runtime lock-order recorder's by-name graph).  Opposite orders are a
  latent deadlock the moment the methods run on different threads.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.numlint.concur import (
    GENERATOR_DRAW_METHODS,
    MUTATING_METHODS,
    FunctionNode,
    Submission,
    bound_names,
    callable_body,
    find_submissions,
    root_name,
)
from tools.numlint.core import FileContext, Finding, LintPass
from tools.numlint.passes import register

#: Methods where unlocked self-writes are legal in a ``@thread_shared``
#: class: construction and the pickle protocol run before the instance
#: is ever visible to a second thread.
_EXEMPT_METHODS = frozenset(
    {"__init__", "__new__", "__getstate__", "__setstate__"}
)

#: First-attribute chains through ``self`` that NL603 never flags:
#: ``_tls`` is per-thread by construction (``threading.local``) and
#: ``_lock`` installation is the synchronization itself.
_EXEMPT_SELF_ATTRS = frozenset({"_tls", "_lock"})


def _decorator_is_thread_shared(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id == "thread_shared"
    if isinstance(node, ast.Attribute):
        return node.attr == "thread_shared"
    return False


def _self_chain(node: ast.AST) -> list[str] | None:
    """Attribute names from ``self`` outward (``self.a.b`` → ``[a, b]``).

    Subscripts are transparent (``self.a[k].b`` → ``[a, b]``); returns
    None when the chain does not root at a bare ``self``.
    """
    attrs: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self":
        attrs.reverse()
        return attrs
    return None


def _lock_name(expr: ast.expr) -> str | None:
    """The lock identity of a ``with`` context expression, if it is one.

    Recognizes ``self.<attr>`` and bare names whose identifier is
    ``_lock`` or ends in ``_lock`` — the repository's naming contract
    for instance locks.
    """
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self":
            name = expr.attr
            if name == "_lock" or name.endswith("_lock"):
                return name
    elif isinstance(expr, ast.Name):
        if expr.id == "_lock" or expr.id.endswith("_lock"):
            return expr.id
    return None


def _is_span_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "span"
    )


@register
class ConcurrencySafetyPass(LintPass):
    name = "concurrency-safety"
    description = (
        "no shared-state mutation or shared RNG draws in pool-submitted "
        "callables; @thread_shared writes under the instance lock; no "
        "blocking I/O in span bodies; consistent lock nesting order"
    )
    codes = {
        "NL601": (
            "pool-submitted callable mutates shared (free/global/self) "
            "state"
        ),
        "NL602": (
            "pool-submitted callable draws from a shared RNG without "
            "per-task spawning"
        ),
        "NL603": (
            "@thread_shared attribute write outside `with self._lock:`"
        ),
        "NL604": "blocking I/O inside a tracer span body or async context",
        "NL605": "locks acquired in inconsistent order across methods",
    }

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._check_submissions(ctx)
        yield from self._check_thread_shared(ctx)
        if not ctx.is_test:
            yield from self._check_blocking_io(ctx)
        yield from self._check_lock_order(ctx)

    # -- NL601 / NL602: escape analysis over submitted callables ------------

    def _check_submissions(self, ctx: FileContext) -> Iterator[Finding]:
        seen: set[tuple[int, bool]] = set()
        for sub in find_submissions(ctx.tree, ctx.qualified):
            key = (id(sub.callable_node), sub.self_is_shared)
            if key in seen:
                continue
            seen.add(key)
            yield from self._check_one_callable(ctx, sub)

    def _is_shared(
        self, name: str | None, bound: set[str], sub: Submission
    ) -> bool:
        if name is None:
            return False
        if name == "self":
            return sub.self_is_shared
        return name not in bound

    def _check_one_callable(
        self, ctx: FileContext, sub: Submission
    ) -> Iterator[Finding]:
        fn: FunctionNode = sub.callable_node
        bound = bound_names(fn)
        for stmt in callable_body(fn):
            for node in ast.walk(stmt):
                yield from self._check_escape_node(ctx, node, bound, sub)

    def _check_escape_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        bound: set[str],
        sub: Submission,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            root = root_name(node)
            if self._is_shared(root, bound, sub):
                yield self.emit(
                    ctx,
                    node,
                    "NL601",
                    f"callable {sub.display!r} submitted to a worker pool "
                    f"mutates shared state rooted at {root!r}; worker "
                    "tasks must write only locals/arguments — move the "
                    "mutation to the dispatching thread",
                )
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # a Store on a name the callable does not bind is a
            # global/nonlocal write escaping into the submitting scope
            if node.id not in bound:
                yield self.emit(
                    ctx,
                    node,
                    "NL601",
                    f"callable {sub.display!r} submitted to a worker pool "
                    f"assigns global/nonlocal {node.id!r}; return the "
                    "value instead and apply it on the dispatching thread",
                )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            root = root_name(node.func.value)
            if not self._is_shared(root, bound, sub):
                return
            if node.func.attr in MUTATING_METHODS:
                yield self.emit(
                    ctx,
                    node,
                    "NL601",
                    f"callable {sub.display!r} submitted to a worker pool "
                    f"calls mutating method .{node.func.attr}() on shared "
                    f"{root!r}; collect results and mutate on the "
                    "dispatching thread",
                )
            elif (
                node.func.attr in GENERATOR_DRAW_METHODS
                and root not in ctx.aliases
            ):
                yield self.emit(
                    ctx,
                    node,
                    "NL602",
                    f"callable {sub.display!r} submitted to a worker pool "
                    f"draws .{node.func.attr}() from shared RNG {root!r}; "
                    "spawn a per-task generator "
                    "(repro.utils.rng.spawn) or pass one as an argument",
                )

    # -- NL603: @thread_shared writes must hold the instance lock -----------

    def _check_thread_shared(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                _decorator_is_thread_shared(d) for d in node.decorator_list
            ):
                continue
            for stmt in node.body:
                if (
                    isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and stmt.name not in _EXEMPT_METHODS
                ):
                    for child in stmt.body:
                        yield from self._walk_locked(ctx, child, False)

    def _walk_locked(
        self, ctx: FileContext, node: ast.AST, locked: bool
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                yield from self._walk_locked(ctx, item, locked)
            inner = locked or any(
                _lock_name(item.context_expr) is not None
                for item in node.items
            )
            for stmt in node.body:
                yield from self._walk_locked(ctx, stmt, inner)
            return
        yield from self._check_locked_node(ctx, node, locked)
        for child in ast.iter_child_nodes(node):
            yield from self._walk_locked(ctx, child, locked)

    def _check_locked_node(
        self, ctx: FileContext, node: ast.AST, locked: bool
    ) -> Iterator[Finding]:
        if locked:
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            chain = _self_chain(node)
            if chain and chain[0] not in _EXEMPT_SELF_ATTRS:
                yield self.emit(
                    ctx,
                    node,
                    "NL603",
                    f"write to self.{'.'.join(chain)} in a @thread_shared "
                    "class outside `with self._lock:`",
                )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr not in MUTATING_METHODS:
                return
            chain = _self_chain(node.func.value)
            if chain and chain[0] not in _EXEMPT_SELF_ATTRS:
                yield self.emit(
                    ctx,
                    node,
                    "NL603",
                    f"mutating call self.{'.'.join(chain)}."
                    f"{node.func.attr}() in a @thread_shared class "
                    "outside `with self._lock:`",
                )

    # -- NL604: no blocking I/O inside span bodies / async defs -------------

    def _check_blocking_io(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for stmt in node.body:
                    yield from self._walk_span(
                        ctx, stmt, blocking_banned=True, where="an async def"
                    )
            elif isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _is_span_call(item.context_expr) for item in node.items
            ):
                for stmt in node.body:
                    yield from self._walk_span(
                        ctx,
                        stmt,
                        blocking_banned=True,
                        where="a tracer span body",
                    )

    def _walk_span(
        self, ctx: FileContext, node: ast.AST, blocking_banned: bool, where: str
    ) -> Iterator[Finding]:
        # nested functions are not executed in the span / on the loop
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if blocking_banned and isinstance(node, ast.Call):
            reason = self._blocking_reason(ctx, node)
            if reason is not None:
                yield self.emit(
                    ctx,
                    node,
                    "NL604",
                    f"{reason} inside {where}; blocking I/O skews span "
                    "timings (and stalls an event loop) — move it outside "
                    "the instrumented region",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._walk_span(ctx, child, blocking_banned, where)

    def _blocking_reason(
        self, ctx: FileContext, call: ast.Call
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open() call"
        if isinstance(func, ast.Attribute) and func.attr == "flush":
            return ".flush() call"
        qual = ctx.qualified(func)
        if qual is not None and qual.startswith("subprocess."):
            return f"{qual}() call"
        return None

    # -- NL605: consistent lock nesting order per class ---------------------

    def _check_lock_order(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class_lock_order(ctx, node)

    def _check_class_lock_order(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        edges: dict[str, set[str]] = {}

        def reachable(src: str, dst: str) -> bool:
            seen = {src}
            frontier = [src]
            while frontier:
                cur = frontier.pop()
                if cur == dst:
                    return True
                for nxt in edges.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return False

        def visit(
            node: ast.AST, held: list[str], method: str
        ) -> Iterator[Finding]:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                names = [
                    n
                    for n in (
                        _lock_name(item.context_expr) for item in node.items
                    )
                    if n is not None
                ]
                for name in names:
                    for outer in held:
                        if outer == name:
                            continue
                        if reachable(name, outer):
                            yield self.emit(
                                ctx,
                                node,
                                "NL605",
                                f"method {method!r} acquires {name!r} "
                                f"while holding {outer!r}, but another "
                                f"method of {cls.name!r} nests them in "
                                "the opposite order — pick one order "
                                "(latent deadlock)",
                            )
                        else:
                            edges.setdefault(outer, set()).add(name)
                inner = held + names
                for stmt in node.body:
                    yield from visit(stmt, inner, method)
                return
            for child in ast.iter_child_nodes(node):
                yield from visit(child, held, method)

        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in stmt.body:
                    yield from visit(child, [], stmt.name)
