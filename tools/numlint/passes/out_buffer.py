"""Out-buffer contracts for in-place ``*_into`` kernels.

The GP hot path relies on functions like ``Matern52._corr_into``
filling caller-owned buffers in place: the workspace hands out persistent
arrays, and correctness depends on those exact allocations being written —
a rebound local or a freshly returned array silently breaks the cache
while producing the right values once.

For every function whose name ends in ``_into``:

* **NL201** — no out-style parameter.  The convention is a parameter named
  ``out`` or ending in ``_out``; a ``*_into`` function without one cannot
  honor the contract.
* **NL202** — an out parameter is rebound by a plain assignment
  (``g_out = np.empty(...)``, a for-target, a with-alias or a walrus).
  Rebinding allocates a new buffer the caller never sees.  In-place
  augmented assignment (``g_out += ...``) is a write, not a rebind, and is
  allowed.
* **NL203** — a ``return`` whose value is not an out parameter (or None).
  Returning anything else means the result lives outside the caller's
  buffer.
* **NL204** — an out parameter that is never written on any path (no
  subscript store, no ``out=`` keyword, no in-place update, not forwarded
  to another ``*_into``).

Scope: everywhere, tests included — fixtures exercising the convention
must honor it too.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.numlint.core import FileContext, Finding, LintPass, iter_function_defs
from tools.numlint.passes import register

#: Functions that write their first argument in place.
_FIRST_ARG_WRITERS = frozenset({"numpy.copyto", "numpy.place", "numpy.put"})


def _out_param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    names = [
        a.arg
        for a in (
            fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        )
    ]
    return [n for n in names if n == "out" or n.endswith("_out")]


def _subscript_base_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _BufferUsage(ast.NodeVisitor):
    """Collect rebinds and writes of a set of buffer names inside one body."""

    def __init__(self, tracked: set[str], ctx: FileContext) -> None:
        self.tracked = tracked
        self.ctx = ctx
        self.rebinds: list[tuple[str, ast.AST]] = []
        self.written: set[str] = set()

    def _record_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, ast.Name) and target.id in self.tracked:
            self.rebinds.append((target.id, node))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, node)
        elif isinstance(target, ast.Starred):
            self._record_target(target.value, node)
        elif isinstance(target, ast.Subscript):
            base = _subscript_base_name(target)
            if base in self.tracked:
                self.written.add(base)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # in-place update of an ndarray: a write, not a rebind
        if isinstance(node.target, ast.Name) and node.target.id in self.tracked:
            self.written.add(node.target.id)
        else:
            self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._record_target(node.optional_vars, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if (
                kw.arg == "out"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in self.tracked
            ):
                self.written.add(kw.value.id)
        qual = self.ctx.qualified(node.func)
        callee = qual.rsplit(".", 1)[-1] if qual else None
        if (callee and callee.endswith("_into")) or qual in _FIRST_ARG_WRITERS:
            # forwarding the buffer delegates the write
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in self.tracked:
                    self.written.add(arg.id)
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in self.tracked
                and node.func.attr in ("fill", "sort", "partition", "setfield")
            ):
                self.written.add(base.id)
        self.generic_visit(node)


@register
class OutBufferPass(LintPass):
    name = "out-buffer"
    description = (
        "enforce the in-place contract of *_into functions: accept, write "
        "and preserve caller-owned output buffers"
    )
    codes = {
        "NL201": "*_into function without an out-style parameter",
        "NL202": "out parameter rebound (buffer reallocated) inside *_into",
        "NL203": "*_into returns something other than an out parameter/None",
        "NL204": "out parameter never written inside *_into",
    }

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for fn in iter_function_defs(ctx.tree):
            if not fn.name.endswith("_into"):
                continue
            yield from self._check_function(ctx, fn)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        out_params = _out_param_names(fn)
        if not out_params:
            yield self.emit(
                ctx,
                fn,
                "NL201",
                f"{fn.name} is named *_into but takes no out-style "
                "parameter ('out' or '*_out'); in-place kernels must write "
                "caller-owned buffers",
            )
            return
        tracked = set(out_params)
        usage = _BufferUsage(tracked, ctx)
        for stmt in fn.body:
            usage.visit(stmt)
        for name, node in usage.rebinds:
            yield self.emit(
                ctx,
                node,
                "NL202",
                f"{fn.name} rebinds out parameter {name!r}; the caller's "
                "buffer is abandoned — write through it "
                f"({name}[...] = ..., np.<ufunc>(..., out={name})) instead",
            )
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Constant) and value.value is None:
                continue
            if isinstance(value, ast.Name) and value.id in tracked:
                continue
            yield self.emit(
                ctx,
                node,
                "NL203",
                f"{fn.name} returns {ast.unparse(value)!r}; *_into functions "
                "return an out parameter (or None), never a fresh array",
            )
        for name in out_params:
            if name not in usage.written and not usage.rebinds:
                yield self.emit(
                    ctx,
                    fn,
                    "NL204",
                    f"{fn.name} never writes out parameter {name!r} "
                    "(no subscript store, out= keyword, in-place update or "
                    "*_into forward on any path)",
                )
