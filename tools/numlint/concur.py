"""Escape analysis for the NL6xx concurrency-safety passes.

The concurrency passes reason about *which code runs on which thread*.
The unit of analysis is a **submission site**: a call that hands a
callable to another execution context —

* ``pool.run_tasks(fn, tasks)`` / ``executor.submit(fn, task)`` — the
  worker-pool protocol and the stdlib executor protocol;
* ``parallel_map(fn, items, ...)`` — the module-level helper;
* ``threading.Thread(target=fn, ...)`` — a callable run on its own
  thread (the broker's per-point deadline thread).

:func:`find_submissions` locates those sites and resolves the submitted
callable expression back to a function definition in the same file:
a ``lambda`` literal resolves to itself, a bare name resolves to the
(lexically nearest) ``def`` with that name, and ``self.method`` resolves
to the method of the enclosing class — in which case ``self`` itself is
*shared state* from the worker's point of view (every task sees the same
instance), which :class:`Submission.self_is_shared` records.

The second half of the module is name-binding analysis over a resolved
callable: :func:`bound_names` collects every name the callable binds
(parameters, assignments, comprehension and loop targets, imports,
``with``/``except`` aliases) minus names it explicitly declares
``global``/``nonlocal``.  A name *used* by the callable but not bound is
free — it escaped from the submitting scope into the worker, and
mutating through it is exactly the hazard NL601/NL602 exist to catch.

Everything here is deliberately single-file and syntactic: no imports are
followed, no call graph is built.  That keeps the passes fast and their
verdicts explainable, at the cost of missing submissions through
indirection (a callable stored in a dict, say) — the runtime sanitizer
(``repro.utils.sanitize_concurrency``) covers the dynamic remainder.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Attribute names whose call submits its first argument to a pool:
#: ``WorkerPool.run_tasks`` and the stdlib ``Executor.submit`` protocol.
SUBMIT_METHOD_NAMES = frozenset({"run_tasks", "submit"})

#: Bare / dotted function names that submit their first argument.
SUBMIT_FUNCTION_NAMES = frozenset(
    {"parallel_map", "repro.utils.parallel.parallel_map"}
)

#: Constructors that run their ``target`` argument on a new thread.
THREAD_CONSTRUCTOR_NAMES = frozenset({"threading.Thread"})

#: Container methods that mutate their receiver in place.  Calling one on
#: shared state from a pool-submitted callable is a data race.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "appendleft",
        "extendleft",
        "popleft",
    }
)

#: ``numpy.random.Generator`` methods that advance the bit-generator
#: state.  Drawing from a *shared* generator inside pool tasks either
#: races (threads) or silently duplicates streams (fork inherits state).
GENERATOR_DRAW_METHODS = frozenset(
    {
        "random",
        "standard_normal",
        "normal",
        "uniform",
        "integers",
        "choice",
        "permutation",
        "permuted",
        "shuffle",
        "exponential",
        "gamma",
        "beta",
        "binomial",
        "poisson",
        "lognormal",
        "multivariate_normal",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "bytes",
    }
)


@dataclasses.dataclass
class Submission:
    """One resolved submission of a callable to a pool/executor."""

    site: ast.Call
    callable_node: FunctionNode
    display: str
    #: True when the callable is a bound method submitted as
    #: ``self.method`` — the instance is shared across every task.
    self_is_shared: bool


def root_expr(node: ast.AST) -> ast.AST:
    """The base of an attribute/subscript chain (``a.b[0].c`` → ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def root_name(node: ast.AST) -> str | None:
    """The base identifier of an attribute/subscript chain, if any."""
    base = root_expr(node)
    return base.id if isinstance(base, ast.Name) else None


def _is_submit_call(call: ast.Call, qualify) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHOD_NAMES:
        return True
    if isinstance(func, ast.Name):
        qual = qualify(func)
        return (
            func.id in SUBMIT_FUNCTION_NAMES
            or qual in SUBMIT_FUNCTION_NAMES
        )
    return False


def _submitted_callable(call: ast.Call, qualify) -> ast.expr | None:
    """The callable expression a call hands to another execution context."""
    if qualify(call.func) in THREAD_CONSTRUCTOR_NAMES:
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value
        # Thread(group, target, ...): the target is the second positional
        return call.args[1] if len(call.args) > 1 else None
    if call.args and _is_submit_call(call, qualify):
        return call.args[0]
    return None


def _index_functions(
    tree: ast.AST,
) -> tuple[dict[str, FunctionNode], dict[ast.AST, ast.AST]]:
    """(name → nearest def, child → parent) maps for callable resolution.

    Name collisions resolve to the *last* definition in source order —
    single-file lint scope makes this unambiguous in practice, and a
    wrong pick still points at a function the author wrote.
    """
    by_name: dict[str, FunctionNode] = {}
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            by_name[node.name] = node
    return by_name, parents


def _enclosing_class(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.ClassDef | None:
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return cur
        cur = parents.get(cur)
    return None


def find_submissions(tree: ast.AST, qualify) -> list[Submission]:
    """Locate submission sites and resolve their callables.

    ``qualify`` is ``FileContext.qualified`` (or compatible): it maps an
    expression to its canonical dotted import path, used to recognize
    ``parallel_map`` and ``threading.Thread`` through aliases.
    Unresolvable callables (an arbitrary expression, a name with no local
    ``def``) are skipped — the pass only judges code it can actually see.
    """
    by_name, parents = _index_functions(tree)
    out: list[Submission] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _submitted_callable(node, qualify)
        if target is None:
            continue
        if isinstance(target, ast.Lambda):
            out.append(Submission(node, target, "<lambda>", False))
        elif isinstance(target, ast.Name):
            fn = by_name.get(target.id)
            if fn is not None:
                out.append(Submission(node, fn, target.id, False))
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls = _enclosing_class(node, parents)
            if cls is not None:
                for stmt in cls.body:
                    if (
                        isinstance(
                            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        and stmt.name == target.attr
                    ):
                        out.append(
                            Submission(
                                node, stmt, f"self.{target.attr}", True
                            )
                        )
                        break
    return out


def _param_names(fn: FunctionNode) -> set[str]:
    args = fn.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _target_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment/loop/with target."""
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            yield node.id


def bound_names(fn: FunctionNode) -> set[str]:
    """Every name the callable binds locally (see module docstring).

    Bindings anywhere in the body count, including inside nested
    functions — a deliberate over-approximation that errs toward *not*
    flagging (a name bound anywhere in the subtree is assumed local).
    Names the callable declares ``global``/``nonlocal`` are removed
    last: assigning them mutates the outer scope no matter where the
    assignment sits.
    """
    names = _param_names(fn)
    escaping: set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                escaping.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                names |= _param_names(node)
            elif isinstance(node, ast.Lambda):
                names |= _param_names(node)
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    names.update(_target_names(target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                names.update(_target_names(node.target))
            elif isinstance(node, ast.comprehension):
                names.update(_target_names(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        names.update(_target_names(item.optional_vars))
            elif isinstance(node, ast.ExceptHandler):
                if node.name:
                    names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    names.add(local)
            elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names - escaping


def callable_body(fn: FunctionNode) -> list[ast.stmt] | list[ast.expr]:
    """The statements (or lambda expression) to walk for hazards."""
    return fn.body if isinstance(fn.body, list) else [fn.body]


__all__ = [
    "GENERATOR_DRAW_METHODS",
    "MUTATING_METHODS",
    "SUBMIT_FUNCTION_NAMES",
    "SUBMIT_METHOD_NAMES",
    "THREAD_CONSTRUCTOR_NAMES",
    "Submission",
    "bound_names",
    "callable_body",
    "find_submissions",
    "root_expr",
    "root_name",
]
