"""Interprocedural effect inference for the NL7xx determinism passes.

The determinism guarantees the evaluation runtime sells — content-addressed
dedup (``ResultCache``), bitwise kill-and-resume (``RunLedger``) — only hold
when everything *reachable* from a cache key, a ledger record or an
``Objective.evaluate`` is deterministic.  A per-file pass cannot see that
``cache_key`` calls a helper that calls ``time.time``; this module can.

The analysis has three parts:

1. **Function discovery** — every module-level function, first-level method
   and one-level nested function in the analyzed file set is indexed by
   dotted qualname (``repro.runtime.cache.ResultCache.key_for``), reusing
   the module naming of :attr:`FileContext.module_name` so cross-file calls
   resolve through the import alias map exactly as the NL5xx shape passes
   do.

2. **Intrinsic effects** — each function body is scanned (excluding nested
   ``def`` bodies, which only run when called) for calls into a catalog of
   impure APIs.  The effect alphabet:

   ========== ==========================================================
   ``TIME``        wall-clock reads: ``time.time``, ``datetime.now`` ...
                   (``time.perf_counter``/``monotonic`` are exempt —
                   durations are allowed, absolute timestamps are not)
   ``GLOBAL_RNG``  legacy global-state RNG (``np.random.rand``,
                   ``random.random``), unseeded ``default_rng()``,
                   ``os.urandom`` / ``secrets``/``uuid`` entropy
   ``ENV``         host/environment reads: ``os.environ``, ``os.getenv``,
                   ``platform.*``, ``socket.gethostname``, ``os.getpid``,
                   ``os.cpu_count``
   ``NONDET_ITER`` iteration over a set (or materializing one into an
                   ordered container without ``sorted``): order varies
                   with ``PYTHONHASHSEED``
   ``ADDR``        object-address leaks: ``id(...)``, ``repr(...)`` /
                   ``hex(id(...))`` of non-literal objects (the default
                   ``object.__repr__`` embeds the address)
   ``IO``          filesystem / process side effects: ``open``,
                   ``print``, ``subprocess.*``, path write methods
   ========== ==========================================================

   ``PURE`` is the empty effect set (lattice bottom); the join is set
   union.

3. **Propagation to fixpoint** — effects flow caller-ward along call
   edges: direct calls, ``self.method(...)`` within a class, bare names
   resolved against the defining module, imported names resolved through
   the alias map, and function *references* passed as call arguments
   (``pool.run_tasks(self._simulate_chunk, ...)`` makes the submitter inherit
   the worker's effects).  Decorated functions keep their edges — a
   decorator wraps, it does not launder effects.  Cycles (recursion,
   mutual recursion) converge because the lattice is finite and the
   transfer function is monotone.

Every inferred effect carries a **witness chain** — the call path from the
function down to the intrinsic source — so findings read "``cache_key`` →
``_salt`` → ``time.time()`` at line 12" instead of a bare verdict.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Mapping, Sequence

from tools.numlint.core import FileContext

#: The effect alphabet, in severity/report order.  ``PURE`` is the empty set.
EFFECTS = ("TIME", "GLOBAL_RNG", "ENV", "NONDET_ITER", "ADDR", "IO")

PURE: frozenset[str] = frozenset()

#: Wall-clock reads (absolute time).  Monotonic clocks are exempt.
_TIME_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: numpy.random attributes that belong to the Generator-era API; any other
#: ``numpy.random.<name>`` call is legacy global state.
_GENERATOR_ERA = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib ``random`` module functions drawing from the hidden global stream.
_STDLIB_RANDOM = frozenset(
    {
        "random.random",
        "random.seed",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.betavariate",
        "random.expovariate",
        "random.triangular",
        "random.getrandbits",
    }
)

#: OS-entropy draws: fresh randomness per process, irreproducible.
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Host/environment reads that vary between machines or invocations.
_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "os.uname",
        "os.getpid",
        "os.getcwd",
        "os.cpu_count",
        "os.getlogin",
        "platform.node",
        "platform.platform",
        "platform.system",
        "platform.machine",
        "platform.processor",
        "platform.release",
        "platform.version",
        "platform.python_version",
        "socket.gethostname",
        "socket.getfqdn",
        "getpass.getuser",
    }
)

#: Dotted-name *reads* (not calls) that carry the ENV effect.
_ENV_ATTRS = frozenset({"os.environ"})

#: Filesystem / process side effects.
_IO_CALLS = frozenset(
    {
        "open",
        "print",
        "input",
        "os.remove",
        "os.unlink",
        "os.makedirs",
        "os.rename",
        "os.replace",
        "os.rmdir",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
    }
)

#: Attribute-call names treated as IO regardless of the receiver (the
#: receiver is usually an unresolvable ``Path``/handle; the names are
#: distinctive enough not to collide with numeric code).
_IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "mkdir",
        "unlink",
        "rmdir",
        "touch",
    }
)


@dataclasses.dataclass(frozen=True)
class EffectSource:
    """The intrinsic origin of one effect: a concrete impure call site."""

    effect: str
    detail: str  # e.g. "time.time()" or "iteration over a set"
    relpath: str
    line: int


@dataclasses.dataclass
class FunctionInfo:
    """One analyzed function: intrinsic effects plus outgoing call edges."""

    qualname: str
    relpath: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: effect -> first intrinsic witness in this very body
    intrinsic: dict[str, EffectSource] = dataclasses.field(default_factory=dict)
    #: resolved callee qualnames (direct calls and callable references)
    callees: list[str] = dataclasses.field(default_factory=list)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_unseeded_call(call: ast.Call) -> bool:
    """``default_rng()`` / ``default_rng(None)`` — no seed reaches it."""
    args = [a for a in call.args if not isinstance(a, ast.Starred)]
    if len(call.args) != len(args):
        return False  # *args could carry a seed
    if args and not (
        isinstance(args[0], ast.Constant) and args[0].value is None
    ):
        return False
    for kw in call.keywords:
        if kw.arg is None:
            return False  # **kwargs could carry a seed
        if kw.arg == "seed" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return False
    return True


class _BodyScanner:
    """Collects intrinsic effects and call edges from one function body.

    Nested ``def``/``async def``/``lambda`` bodies are skipped — defining a
    function has no effects; the nested function is indexed separately and
    a call edge is added wherever its name is referenced.
    """

    def __init__(
        self,
        ctx: FileContext,
        info: FunctionInfo,
        resolve: "_Resolver",
    ) -> None:
        self.ctx = ctx
        self.info = info
        self.resolve = resolve

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    # -- walking -------------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # separate analysis unit
        if isinstance(node, ast.Lambda):
            # a lambda body runs when called; treating it inline is the
            # conservative choice (lambdas here are built and used locally)
            self._visit(node.body)
            return
        if isinstance(node, ast.Call):
            self._scan_call(node)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            qual = self.ctx.qualified(node)
            if qual in _ENV_ATTRS:
                self._record("ENV", f"{qual} read", node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                self._record("NONDET_ITER", "iteration over a set", node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    self._record(
                        "NONDET_ITER", "iteration over a set", gen.iter
                    )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            # bare function reference (callback/closure passed around)
            self.resolve.add_reference_edge(self.info, node.id)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- calls ---------------------------------------------------------------

    def _scan_call(self, node: ast.Call) -> None:
        qual = self.ctx.qualified(node.func)
        if qual is not None:
            self._scan_qualified_call(node, qual)
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _IO_METHODS:
                self._record("IO", f".{attr}() call", node)
            # self.method(...) resolves within the enclosing class
            self.resolve.add_self_call_edge(self.info, node.func)

    def _scan_qualified_call(self, node: ast.Call, qual: str) -> None:
        if qual in _TIME_CALLS:
            self._record("TIME", f"{qual}()", node)
        elif qual in _STDLIB_RANDOM:
            self._record("GLOBAL_RNG", f"{qual}()", node)
        elif qual in _ENTROPY_CALLS:
            self._record("GLOBAL_RNG", f"{qual}() (OS entropy)", node)
        elif qual in _ENV_CALLS:
            self._record("ENV", f"{qual}()", node)
        elif qual in _IO_CALLS:
            self._record("IO", f"{qual}()", node)
        elif qual.startswith("subprocess."):
            self._record("IO", f"{qual}()", node)
        elif qual.startswith("numpy.random."):
            attr = qual.split(".", 2)[2]
            head = attr.split(".", 1)[0]
            if head == "RandomState" or head not in _GENERATOR_ERA:
                self._record("GLOBAL_RNG", f"np.random.{attr}()", node)
            elif head == "default_rng" and _is_unseeded_call(node):
                self._record(
                    "GLOBAL_RNG", "unseeded default_rng()", node
                )
        elif qual == "id":
            self._record("ADDR", "id() (object address)", node)
        elif qual == "repr" and node.args and not isinstance(
            node.args[0], ast.Constant
        ):
            self._record(
                "ADDR",
                "repr() of a non-literal (default repr embeds the object "
                "address)",
                node,
            )
        elif qual in ("list", "tuple") and len(node.args) == 1 and _is_set_expr(
            node.args[0]
        ):
            self._record(
                "NONDET_ITER", "set materialized into an ordered container",
                node,
            )
        else:
            self.resolve.add_call_edge(self.info, qual)

    def _record(self, effect: str, detail: str, node: ast.AST) -> None:
        if effect not in self.info.intrinsic:
            self.info.intrinsic[effect] = EffectSource(
                effect=effect,
                detail=detail,
                relpath=self.ctx.relpath,
                line=getattr(node, "lineno", self.info.lineno),
            )


class _Resolver:
    """Resolves call expressions to indexed qualnames for one function."""

    def __init__(
        self,
        index: Mapping[str, FunctionInfo],
        module: str,
        class_name: str | None,
        local_names: Mapping[str, str],
        aliases: Mapping[str, str],
    ) -> None:
        self.index = index
        self.module = module
        self.class_name = class_name
        self.local_names = local_names  # bare name -> qualname (module scope)
        self.aliases = aliases

    def _add(self, info: FunctionInfo, qualname: str | None) -> None:
        if qualname is not None and qualname in self.index:
            info.callees.append(qualname)

    def add_call_edge(self, info: FunctionInfo, qual: str) -> None:
        # ``qual`` is already alias-resolved: ``helper`` -> same module,
        # imported names -> their defining module's dotted path.
        if "." not in qual:
            self._add(info, self.local_names.get(qual))
            return
        self._add(info, qual)
        # ``module.func`` style call through a plain ``import repro.x``:
        # the alias map leaves it dotted and it matches the index directly
        # (handled above); method calls ``Class().method`` are out of reach.

    def add_self_call_edge(self, info: FunctionInfo, func: ast.Attribute) -> None:
        if self.class_name is None:
            return
        if isinstance(func.value, ast.Name) and func.value.id in (
            "self",
            "cls",
        ):
            self._add(
                info, f"{self.module}.{self.class_name}.{func.attr}"
            )

    def add_reference_edge(self, info: FunctionInfo, name: str) -> None:
        # ``pool.run_tasks(self._simulate_chunk, ...)`` style references arrive
        # as Attribute loads (handled via add_self_call_edge at call sites)
        # or bare names; only resolve names that are functions we indexed.
        self._add(info, self.local_names.get(name))
        alias = self.aliases.get(name)
        if alias is not None and alias != name:
            self._add(info, alias)


class EffectIndex:
    """Effect sets and witness chains for every indexed function."""

    def __init__(self, functions: dict[str, FunctionInfo]) -> None:
        self.functions = functions
        self._effects: dict[str, frozenset[str]] = {}
        #: (qualname, effect) -> witness: an EffectSource (intrinsic) or
        #: the callee qualname the effect arrived through.
        self._via: dict[tuple[str, str], "EffectSource | str"] = {}
        self._propagate()

    # -- fixpoint ------------------------------------------------------------

    def _propagate(self) -> None:
        effects: dict[str, set[str]] = {}
        for qualname, info in self.functions.items():
            effects[qualname] = set(info.intrinsic)
            for eff, src in info.intrinsic.items():
                self._via[(qualname, eff)] = src
        # reverse edges: callee -> callers, for worklist propagation
        callers: dict[str, set[str]] = {}
        for qualname, info in self.functions.items():
            for callee in info.callees:
                callers.setdefault(callee, set()).add(qualname)
        worklist = [q for q, effs in effects.items() if effs]
        while worklist:
            callee = worklist.pop()
            callee_effects = effects[callee]
            for caller in sorted(callers.get(callee, ())):
                added = False
                for eff in callee_effects:
                    if eff not in effects[caller]:
                        effects[caller].add(eff)
                        self._via.setdefault((caller, eff), callee)
                        added = True
                if added:
                    worklist.append(caller)
        self._effects = {q: frozenset(e) for q, e in effects.items()}

    # -- queries -------------------------------------------------------------

    def effects_of(self, qualname: str) -> frozenset[str]:
        """The inferred effect set of ``qualname`` (PURE when unknown)."""
        return self._effects.get(qualname, PURE)

    def is_pure(self, qualname: str) -> bool:
        return not self.effects_of(qualname)

    def source_of(self, qualname: str, effect: str) -> EffectSource | None:
        """The intrinsic witness at the end of the effect's call chain."""
        seen = set()
        cur = qualname
        while cur not in seen:
            seen.add(cur)
            via = self._via.get((cur, effect))
            if via is None:
                return None
            if isinstance(via, EffectSource):
                return via
            cur = via
        return None

    def chain(self, qualname: str, effect: str) -> list[str]:
        """Call path from ``qualname`` to the intrinsic source, inclusive.

        Ends with the source detail, e.g. ``["a", "b", "time.time()"]``.
        """
        out: list[str] = []
        seen = set()
        cur = qualname
        while cur not in seen:
            seen.add(cur)
            out.append(cur)
            via = self._via.get((cur, effect))
            if via is None:
                return out
            if isinstance(via, EffectSource):
                out.append(via.detail)
                return out
            cur = via
        return out

    def render_chain(self, qualname: str, effect: str) -> str:
        """Human-readable witness: ``a -> b -> time.time()``."""
        parts = self.chain(qualname, effect)
        # drop module prefixes on function hops for readable messages; keep
        # the intrinsic detail (it contains "(" or spaces) verbatim
        short = [
            p.rsplit(".", 1)[-1] if "(" not in p and " " not in p else p
            for p in parts
        ]
        return " -> ".join(short)


def _index_one_module(
    ctx: FileContext, functions: dict[str, FunctionInfo]
) -> list[tuple[FunctionInfo, str | None]]:
    """Index the module's functions; returns (info, class_name) pairs."""
    found: list[tuple[FunctionInfo, str | None]] = []

    def add(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
    ) -> None:
        info = FunctionInfo(
            qualname=qualname,
            relpath=ctx.relpath,
            lineno=node.lineno,
            node=node,
        )
        functions[qualname] = info
        found.append((info, class_name))
        # one-level nested defs get their own analysis unit
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_q = f"{qualname}.{stmt.name}"
                if nested_q not in functions:
                    nested = FunctionInfo(
                        qualname=nested_q,
                        relpath=ctx.relpath,
                        lineno=stmt.lineno,
                        node=stmt,
                    )
                    functions[nested_q] = nested
                    found.append((nested, class_name))

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, f"{ctx.module_name}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(
                        item,
                        f"{ctx.module_name}.{node.name}.{item.name}",
                        node.name,
                    )
    return found


def build_effect_index(contexts: Sequence[FileContext]) -> EffectIndex:
    """Build the repo-wide effect index from parsed file contexts."""
    functions: dict[str, FunctionInfo] = {}
    pending: list[tuple[FileContext, FunctionInfo, str | None]] = []
    for ctx in contexts:
        if ctx.parse_error is not None:
            continue
        for info, class_name in _index_one_module(ctx, functions):
            pending.append((ctx, info, class_name))

    # per-module map of bare names -> qualnames for intra-module resolution
    module_locals: dict[str, dict[str, str]] = {}
    for qualname in functions:
        module, _, name = qualname.rpartition(".")
        # register the innermost name under its module and, for nested
        # functions, under the enclosing function's module as well
        top_module = qualname.rsplit(".", 1)[0]
        module_locals.setdefault(top_module, {})[name] = qualname
        # module-level functions also resolve by bare name module-wide
        parts = qualname.split(".")
        if len(parts) >= 2:
            mod = ".".join(parts[:-1])
            module_locals.setdefault(mod, {}).setdefault(name, qualname)

    for ctx, info, class_name in pending:
        module = ctx.module_name
        locals_map = dict(module_locals.get(module, {}))
        # names defined lexically inside this function shadow module scope
        locals_map.update(module_locals.get(info.qualname, {}))
        resolver = _Resolver(
            functions, module, class_name, locals_map, ctx.aliases
        )
        scanner = _BodyScanner(ctx, info, resolver)
        scanner.scan(info.node.body)
    return EffectIndex(functions)


def iter_methods_of(
    ctx: FileContext, class_name: str
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """First-level methods of the named class in ``ctx`` (if present)."""
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


__all__ = [
    "EFFECTS",
    "PURE",
    "EffectIndex",
    "EffectSource",
    "FunctionInfo",
    "build_effect_index",
]
