"""Determinism & replay safety: the NL7xx family over the effect index.

The runtime's two load-bearing guarantees — content-addressed dedup
(``ResultCache``) and bitwise kill-and-resume (``RunLedger``) — hold only
if everything *reachable* from a cache key, a ledger record or an
``Objective.evaluate`` is deterministic.  These rules consume the
interprocedural effect index from :mod:`tools.numlint.effects`, so a
``cache_key`` that calls a helper that calls ``time.time`` is flagged even
though no impure call appears in its own body.

* **NL701** — an impure effect (``TIME``/``GLOBAL_RNG``/``ENV``/``ADDR``/
  ``NONDET_ITER``) is reachable from a cache-key or digest implementation
  (a function named ``cache_key``/``key_for*``/``*digest*``, or one that
  constructs a ``cache_key`` value).  An impure key silently forks the
  content-addressed store: the same point hashes differently across
  processes, so resume re-simulates and cross-campaign dedup misses.
* **NL702** — wall-clock time is reachable from a function that writes
  ledger records or trace-span attributes (``ledger.append``, ``_log``,
  ``record_span``, ``annotate``).  The interprocedural generalization of
  NL401: replayed ledgers and re-run traces must be byte-comparable, so
  only monotonic durations may be recorded.
* **NL703** — global or unseeded RNG (legacy ``np.random.*``, stdlib
  ``random``, unseeded ``default_rng()``, OS entropy) is reachable from an
  ``evaluate``/``solve`` path, or from an engine's run hook ``_solve``
  (the one ``Engine.solve`` reaches it through ``self``, which the effect
  index resolves to the base class only).  Draws from hidden global state
  make the objective value depend on call order, which breaks both replay
  verification and cross-method result dedup.
* **NL704** — iteration over an unordered collection is reachable from a
  function that serializes (``json.dumps``/``json.dump``), digests or
  writes ledger records.  Set order varies with ``PYTHONHASHSEED``; two
  runs serialize different bytes for equal data.
* **NL705** — a resource with ``close()``/``shutdown()`` (pool, executor,
  file handle, socket) is bound to a local in library code outside a
  ``with`` block or ``try/finally``.  On the failure paths the replay
  verifier exercises (kill mid-batch, resume), a leaked pool strands
  worker processes and a leaked handle loses buffered ledger lines.
  Storing the resource on ``self`` (object-owned lifecycle) is exempt.
* **NL706** — a swallowed exception (bare ``except:`` or a handler whose
  body is only ``pass``/``...``/``continue``) in the persistence layer
  (``repro.runtime``/``repro.telemetry``, and ``repro.utils.jsonl``, the
  torn-line rule their ledgers, cache shards and traces share).  A
  silently failed ledger or checkpoint write turns the next resume into
  corruption; failures on write paths must surface or be recorded.

Scope: ``src/`` only (NL701–NL704 interprocedural, falling back to
file-local inference when run standalone).  Tests, benchmarks and
fixtures are exempt.  Deliberate exceptions carry
``# numlint: disable=NL70x`` plus a reason comment on the same line.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable, Iterator, Sequence

from tools.numlint.core import FileContext, Finding, LintPass
from tools.numlint.effects import EffectIndex, build_effect_index
from tools.numlint.passes import register

#: Effects that poison a cache key (NL701).  IO is deliberately absent:
#: reading bytes to hash them is a legitimate digest implementation.
_KEY_VETO = ("TIME", "GLOBAL_RNG", "ENV", "ADDR", "NONDET_ITER")

#: Method/function names that *are* cache-key or digest implementations.
def _is_key_name(name: str) -> bool:
    return (
        name == "cache_key"
        or name.startswith("key_for")
        or "digest" in name
    )


#: Attribute-call names that write ledger records or trace-span attrs.
_RECORD_SINK_ATTRS = frozenset({"record_span", "annotate", "_log"})

#: Serialization entry points for NL704.
_SERIALIZE_CALLS = frozenset({"json.dumps", "json.dump"})

#: Constructors returning objects that must be closed/shut down.
_RESOURCE_NAMES = frozenset(
    {
        "WorkerPool",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "Pool",
    }
)
_RESOURCE_QUALS = frozenset(
    {
        "open",
        "socket.socket",
        "socket.create_connection",
        "multiprocessing.Pool",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "repro.utils.parallel.WorkerPool",
    }
)

#: Persistence-layer module prefixes for NL706.
_PERSISTENCE_PREFIXES = ("repro.runtime", "repro.telemetry", "repro.utils.jsonl")


def _receiver_dotted(node: ast.expr) -> str | None:
    """``self._ledger.append`` → ``"self._ledger"`` (None if dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _walk_own_body(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def`` bodies."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def _is_record_sink_call(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr in _RECORD_SINK_ATTRS:
        return True
    if attr in ("append", "record"):
        receiver = _receiver_dotted(node.func.value)
        return receiver is not None and "ledger" in receiver.lower()
    return False


def _is_serialize_sink_call(ctx: FileContext, node: ast.Call) -> bool:
    qual = ctx.qualified(node.func)
    if qual in _SERIALIZE_CALLS:
        return True
    if qual is not None and "digest" in qual.rsplit(".", 1)[-1]:
        return True
    if isinstance(node.func, ast.Attribute) and "digest" in node.func.attr:
        return True
    return _is_record_sink_call(node)


def _assigns_cache_key(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function constructs a ``cache_key`` value by name."""
    for stmt in _walk_own_body(node):
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and "cache_key" in target.id:
                return True
            if isinstance(target, ast.Attribute) and "cache_key" in target.attr:
                return True
    return False


def _swallowing_handler(handler: ast.ExceptHandler) -> bool:
    """A handler whose body discards the error without acting on it."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Continue):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / bare ``...``
        return False
    return True


@register
class DeterminismPass(LintPass):
    name = "determinism"
    description = (
        "interprocedural effect inference: impure code reachable from "
        "cache keys, ledger records and evaluate/solve paths; resource "
        "lifecycles; swallowed persistence errors"
    )
    codes = {
        "NL701": "impure effect reachable from a cache-key/digest implementation",
        "NL702": "wall-clock read reachable from ledger/trace record construction",
        "NL703": "global or unseeded RNG reachable from an evaluate/solve/_solve path",
        "NL704": "unordered iteration reachable from a serialization/digest sink",
        "NL705": "closeable resource created outside with/try-finally in library code",
        "NL706": "swallowed exception on a persistence write path",
    }

    #: ``--explain`` registry: code → (triggering snippet, clean snippet).
    examples: ClassVar[dict[str, tuple[str, str]]] = {
        "NL701": (
            "def cache_key(self) -> str:\n"
            "    return f\"{self._tag}-{time.time()}\"",
            "def cache_key(self) -> str:\n"
            "    return f\"{self._tag}[d={self.dim}]\"",
        ),
        "NL702": (
            "def _finish(self, record):\n"
            "    record[\"at\"] = datetime.datetime.now().isoformat()\n"
            "    self._ledger.append(record)",
            "def _finish(self, record, seconds):\n"
            "    record[\"seconds\"] = seconds  # monotonic delta\n"
            "    self._ledger.append(record)",
        ),
        "NL703": (
            "def evaluate(self, X):\n"
            "    noise = np.random.normal(size=X.shape[0])\n"
            "    return self._f(X) + noise",
            "def evaluate(self, X):\n"
            "    noise = self._rng.normal(size=X.shape[0])  # seeded Generator\n"
            "    return self._f(X) + noise",
        ),
        "NL704": (
            "def dump(self, names: set[str]) -> str:\n"
            "    return json.dumps([n for n in names])",
            "def dump(self, names: set[str]) -> str:\n"
            "    return json.dumps(sorted(names))",
        ),
        "NL705": (
            "def run(tasks):\n"
            "    pool = WorkerPool(kind=\"process\", n_jobs=4)\n"
            "    return pool.run_tasks(fn, tasks)",
            "def run(tasks):\n"
            "    pool = WorkerPool(kind=\"process\", n_jobs=4)\n"
            "    try:\n"
            "        return pool.run_tasks(fn, tasks)\n"
            "    finally:\n"
            "        pool.close()",
        ),
        "NL706": (
            "try:\n"
            "    ledger.append(event)\n"
            "except Exception:\n"
            "    pass",
            "try:\n"
            "    ledger.append(event)\n"
            "except OSError as exc:\n"
            "    raise LedgerWriteError(str(exc)) from exc",
        ),
    }

    def __init__(self) -> None:
        self._index: EffectIndex | None = None

    def prepare(self, contexts: Sequence[FileContext]) -> None:
        self._index = build_effect_index(contexts)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_test or not ctx.is_library:
            return
        index = self._index
        if index is None or ctx.relpath not in {
            info.relpath for info in index.functions.values()
        }:
            # standalone run (fixture tests): degrade to file-local inference
            index = build_effect_index([ctx])
        yield from self._check_effects(ctx, index)
        yield from self._check_resources(ctx)
        yield from self._check_swallowed(ctx)

    # -- NL701–NL704: effect-index rules -------------------------------------

    def _check_effects(
        self, ctx: FileContext, index: EffectIndex
    ) -> Iterator[Finding]:
        for qualname, info in index.functions.items():
            if info.relpath != ctx.relpath:
                continue
            node = info.node
            short = qualname.rsplit(".", 1)[-1]
            effects = index.effects_of(qualname)
            if not effects:
                continue
            if _is_key_name(short) or _assigns_cache_key(node):
                for eff in _KEY_VETO:
                    if eff in effects:
                        yield self.emit(
                            ctx,
                            node,
                            "NL701",
                            f"cache-key/digest implementation '{short}' has "
                            f"effect {eff} "
                            f"({index.render_chain(qualname, eff)}); keys "
                            "must hash to the same bytes in every process",
                        )
            if "TIME" in effects and self._has_record_sink(node):
                yield self.emit(
                    ctx,
                    node,
                    "NL702",
                    f"wall-clock read reaches a ledger/trace record in "
                    f"'{short}' ({index.render_chain(qualname, 'TIME')}); "
                    "replayed records must be byte-comparable — record "
                    "monotonic durations only",
                )
            if "GLOBAL_RNG" in effects and short in ("evaluate", "solve", "_solve"):
                yield self.emit(
                    ctx,
                    node,
                    "NL703",
                    f"global/unseeded RNG reachable from '{short}' "
                    f"({index.render_chain(qualname, 'GLOBAL_RNG')}); thread "
                    "a seeded Generator (repro.utils.rng.spawn) so replay "
                    "and dedup see identical values",
                )
            if "NONDET_ITER" in effects and self._has_serialize_sink(ctx, node):
                yield self.emit(
                    ctx,
                    node,
                    "NL704",
                    f"unordered iteration feeds a serialization/digest sink "
                    f"in '{short}' "
                    f"({index.render_chain(qualname, 'NONDET_ITER')}); sort "
                    "before serializing so two runs emit identical bytes",
                )

    def _has_record_sink(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        return any(
            isinstance(stmt, ast.Call) and _is_record_sink_call(stmt)
            for stmt in _walk_own_body(node)
        )

    def _has_serialize_sink(
        self, ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        return any(
            isinstance(stmt, ast.Call) and _is_serialize_sink_call(ctx, stmt)
            for stmt in _walk_own_body(node)
        )

    # -- NL705: resource lifecycle -------------------------------------------

    def _check_resources(self, ctx: FileContext) -> Iterator[Finding]:
        scopes: list[Sequence[ast.stmt]] = [ctx.tree.body]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            yield from self._check_resource_scope(ctx, body)

    def _check_resource_scope(
        self, ctx: FileContext, body: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        protected = self._protected_names(body)
        for stmt in self._iter_scope(body):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue  # self.attr = ... is an object-owned lifecycle
            call = stmt.value
            ctor = self._resource_ctor(ctx, call)
            if ctor is None:
                continue
            if target.id in protected:
                continue
            yield self.emit(
                ctx,
                stmt,
                "NL705",
                f"'{target.id}' binds a {ctor} outside with/try-finally; on "
                "the kill/retry paths the runtime guarantees survive, a "
                "leaked pool strands workers and a leaked handle drops "
                "buffered writes — use 'with' or close() in a finally block",
            )

    def _iter_scope(self, body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
        stack: list[ast.stmt] = list(body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scopes are checked separately
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)

    def _resource_ctor(self, ctx: FileContext, node: ast.expr) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        qual = ctx.qualified(node.func)
        if qual in _RESOURCE_QUALS:
            return qual
        if isinstance(node.func, ast.Name) and node.func.id in _RESOURCE_NAMES:
            return node.func.id
        if isinstance(node.func, ast.Attribute) and node.func.attr == "open":
            receiver = _receiver_dotted(node.func.value)
            # path.open() / self.path.open(); gzip.open etc. resolve above
            if receiver is not None and not receiver.startswith(("self", "cls")):
                return f"{receiver}.open() handle"
            if receiver is None:
                return ".open() handle"
        return None

    def _protected_names(self, body: Sequence[ast.stmt]) -> set[str]:
        """Names whose lifecycle the scope demonstrably manages."""
        protected: set[str] = set()
        for stmt in self._iter_scope(body):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        protected.add(expr.id)
                    elif isinstance(expr, ast.Call):
                        # contextlib.closing(name) / ExitStack().enter_context
                        for arg in expr.args:
                            if isinstance(arg, ast.Name):
                                protected.add(arg.id)
            elif isinstance(stmt, ast.Try) and stmt.finalbody:
                for inner in stmt.finalbody:
                    for call in ast.walk(inner):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in ("close", "shutdown")
                            and isinstance(call.func.value, ast.Name)
                        ):
                            protected.add(call.func.value.id)
            elif isinstance(stmt, ast.Return) and isinstance(
                stmt.value, ast.Name
            ):
                # ownership transfer: the caller receives the resource
                protected.add(stmt.value.id)
        return protected

    # -- NL706: swallowed persistence errors ---------------------------------

    def _check_swallowed(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module_name.startswith(_PERSISTENCE_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            bare = node.type is None
            if bare or _swallowing_handler(node):
                what = "bare except" if bare else "except-and-discard"
                yield self.emit(
                    ctx,
                    node,
                    "NL706",
                    f"{what} in the persistence layer; a silently failed "
                    "ledger/checkpoint write corrupts the next resume — "
                    "surface the error or record it in the ledger",
                )
