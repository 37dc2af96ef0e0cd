"""Symbolic shape inference for the NL5xx shapelint passes.

This module is the *static* twin of ``repro.utils.contracts``: it checks
the same contract grammar (see DESIGN.md §9) with a small abstract
interpreter over numpy expressions, without executing anything.  The
grammar parser itself (``parse_contract`` and the ``Contract`` /
``ArrayShape`` / ``ScalarDim`` / ``ParamSpec`` dataclasses) is the runtime
one, imported from ``repro.utils.contracts`` so the two sides cannot
drift; when ``repro`` is not installed, ``src/`` is resolved relative to
the repo checkout so ``tools/numlint`` stays runnable standalone.

Symbolic shapes are tuples of dimensions, where each dimension is a
contract symbol (``"n"``), an exact integer, or ``None`` (statically
unknown); a shape of ``None`` means the whole rank is unknown.  Dimension
symbols are *rigid* within one contract namespace: two distinct symbols are
assumed to denote independently varying sizes, so an operation that forces
``d == D`` (a matmul inner dimension, a callee binding one symbol to two
different caller dimensions) is a contract violation even though the sizes
might coincide at runtime.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, Iterator, Mapping, Sequence

try:
    from repro.utils.contracts import (
        ArrayShape,
        Contract,
        ContractParseError as ContractParseError,
        ScalarDim,
        parse_contract as parse_contract,
    )
except ModuleNotFoundError:  # standalone checkout: put src/ on the path
    import sys
    from pathlib import Path

    _src = Path(__file__).resolve().parents[2] / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))
    from repro.utils.contracts import (
        ArrayShape,
        Contract,
        ContractParseError as ContractParseError,
        ScalarDim,
        parse_contract as parse_contract,
    )

# A symbolic dimension: contract symbol, exact size, or unknown.
SymDim = "str | int | None"
# A symbolic shape: known-rank tuple of dimensions, or entirely unknown.
SymShape = "tuple[str | int | None, ...] | None"

#: Dotted names that resolve to the runtime decorator.
DECORATOR_NAMES = frozenset(
    {"repro.utils.contracts.shape_contract", "repro.utils.shape_contract",
     "shape_contract"}
)


# -- decorator discovery -----------------------------------------------------


def contract_decorator(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    qualify: Callable[[ast.AST], "str | None"],
) -> "ast.Call | None":
    """Return the ``@shape_contract(...)`` decorator call on ``node``."""
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        qual = qualify(dec.func)
        if qual in DECORATOR_NAMES or (
            qual is not None and qual.endswith(".shape_contract")
        ):
            return dec
    return None


def decorator_spec(dec: ast.Call) -> "str | None":
    """The literal spec string of a decorator call, or None if dynamic."""
    if dec.args and isinstance(dec.args[0], ast.Constant) and isinstance(
        dec.args[0].value, str
    ):
        return dec.args[0].value
    return None


def signature_names(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> list[str]:
    """Parameter names in positional order (``self``/``cls`` included)."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


@dataclasses.dataclass(frozen=True)
class ContractInfo:
    """A contracted function, as seen by the interprocedural passes."""

    name: str
    module: str
    contract: Contract
    arg_names: tuple[str, ...]  # positional order, self/cls stripped
    has_varargs: bool
    relpath: str
    lineno: int

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name


# -- rigid symbol unification ------------------------------------------------


def dims_conflict(a: "str | int | None", b: "str | int | None") -> bool:
    """True when two dimensions are *known* to differ (rigid symbols)."""
    if a is None or b is None:
        return False
    return a != b


def bind_dim(
    declared: "str | int",
    actual: "str | int | None",
    env: dict,
) -> bool:
    """Unify one declared (callee) dim against an actual (caller) dim.

    ``env`` maps callee symbols to caller dims.  Returns False on a rigid
    conflict; unknown actuals always unify.
    """
    if declared == "*" or actual is None:
        return True
    if isinstance(declared, int):
        return not (isinstance(actual, int) and actual != declared)
    bound = env.get(declared)
    if bound is None:
        env[declared] = actual
        return True
    return not dims_conflict(bound, actual)


def match_shape(
    shape: ArrayShape,
    actual: "tuple[str | int | None, ...]",
    env: dict,
) -> bool:
    """Unify a declared array shape against an actual symbolic shape."""
    if len(shape.dims) != len(actual):
        return False
    trial = dict(env)
    for declared, dim in zip(shape.dims, actual):
        if not bind_dim(declared, dim, trial):
            return False
    env.clear()
    env.update(trial)
    return True


def instantiate(
    shape: ArrayShape, env: Mapping
) -> "tuple[str | int | None, ...]":
    """Map a declared shape through a symbol environment (caller's view)."""
    dims: list[str | int | None] = []
    for d in shape.dims:
        if d == "*":
            dims.append(None)
        elif isinstance(d, int):
            dims.append(d)
        else:
            dims.append(env.get(d))
    return tuple(dims)


def render_shape(shape: "tuple[str | int | None, ...] | None") -> str:
    if shape is None:
        return "(?)"
    return "(" + ", ".join("?" if d is None else str(d) for d in shape) + ")"


# -- numpy shape algebra -----------------------------------------------------


def broadcast_shapes(
    a: "tuple[str | int | None, ...] | None",
    b: "tuple[str | int | None, ...] | None",
) -> "tuple[tuple[str | int | None, ...] | None, bool]":
    """Numpy broadcasting over symbolic shapes → (result, conflict).

    Conflicts are flagged only for incompatible *integer* dims (a symbolic
    dim might be 1, which broadcasts) — elementwise ops stay permissive
    where matmul is rigid.
    """
    if a is None or b is None:
        return None, False
    if len(a) < len(b):
        a, b = b, a
    pad = len(a) - len(b)
    out: list[str | int | None] = list(a[:pad])
    conflict = False
    for da, db in zip(a[pad:], b):
        if da == 1:
            out.append(db)
        elif db == 1 or da == db:
            out.append(da)
        elif isinstance(da, int) and isinstance(db, int):
            out.append(None)
            conflict = True
        else:
            out.append(da if db is None else None if da is None else da)
    return tuple(out), conflict


def matmul_shapes(
    a: "tuple[str | int | None, ...] | None",
    b: "tuple[str | int | None, ...] | None",
) -> "tuple[tuple[str | int | None, ...] | None, bool]":
    """``a @ b`` over symbolic shapes → (result, inner-dim conflict).

    Matmul requires exact inner-dimension equality, so rigid symbol
    mismatches (``d`` vs ``D``) are conflicts.
    """
    if a is None or b is None:
        return None, False
    if len(a) == 0 or len(b) == 0:
        return None, False
    if len(a) == 1 and len(b) == 1:
        return (), dims_conflict(a[0], b[0])
    if len(a) == 1:
        return b[:-2] + (b[-1],), dims_conflict(a[0], b[-2])
    if len(b) == 1:
        return a[:-1], dims_conflict(a[-1], b[0])
    return a[:-2] + (a[-2], b[-1]), dims_conflict(a[-1], b[-2])


def _axis_value(node: "ast.expr | None") -> "int | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def reduce_shape(
    shape: "tuple[str | int | None, ...] | None",
    axis: "int | None",
    keepdims: bool,
) -> "tuple[str | int | None, ...] | None":
    if shape is None:
        return None
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    if not -len(shape) <= axis < len(shape):
        return None
    axis %= len(shape)
    if keepdims:
        return shape[:axis] + (1,) + shape[axis + 1 :]
    return shape[:axis] + shape[axis + 1 :]


_REDUCTIONS = frozenset(
    {"sum", "mean", "prod", "std", "var", "min", "max", "amin", "amax",
     "argmin", "argmax", "any", "all", "median", "nanmin", "nanmax",
     "nansum", "nanmean"}
)
_SHAPE_PRESERVING = frozenset(
    {"abs", "exp", "log", "log1p", "expm1", "sqrt", "square", "sin", "cos",
     "tan", "tanh", "sign", "floor", "ceil", "clip", "negative",
     "ascontiguousarray", "asfortranarray", "copy", "nan_to_num",
     "isfinite", "isnan", "isinf", "sort", "astype"}
)
_CONSTRUCTORS = frozenset({"zeros", "ones", "empty", "full"})


@dataclasses.dataclass(frozen=True)
class ShapeIssue:
    """A diagnostic raised during inference (converted to a Finding)."""

    node: ast.AST
    code: str
    message: str


class ShapeInferencer:
    """Abstract interpreter over numpy expressions for one function body.

    ``env`` maps local variable names to symbolic shapes; ``symbols`` is the
    set of contract symbols in scope (so ``reshape(n, d)``-style calls can
    keep symbolic dims).  ``lookup_contract`` resolves a dotted call target
    to a :class:`ContractInfo` for the interprocedural NL520 check; issues
    accumulate in ``self.issues``.
    """

    def __init__(
        self,
        env: "dict[str, tuple[str | int | None, ...] | None]",
        symbols: "set[str]",
        qualify: Callable[[ast.AST], "str | None"],
        lookup_contract: "Callable[[str], ContractInfo | None]",
    ) -> None:
        self.env = env
        self.symbols = symbols
        self.qualify = qualify
        self.lookup_contract = lookup_contract
        self.issues: list[ShapeIssue] = []

    # -- statements ---------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            shape = self.infer(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, shape, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                shape = self.infer(stmt.value)
                self._assign_target(stmt.target, shape, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.infer(stmt.value)
        elif isinstance(stmt, ast.If):
            self.infer(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.infer(stmt.iter)
            self._assign_target(stmt.target, None, stmt.iter)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.infer(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, None, stmt)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        # Nested defs / classes are analyzed separately; other statements
        # (pass, raise, import, ...) carry no shape information.

    def _assign_target(
        self, target: ast.expr, shape: SymShape, value: ast.AST
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = shape
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None, value)
        # Attribute / subscript targets carry no local shape binding.

    # -- expressions --------------------------------------------------------

    def infer(self, node: ast.expr) -> SymShape:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex, bool)):
                return ()
            return None
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                base = self.infer(node.value)
                if base is not None and len(base) >= 2:
                    return base[:-2] + (base[-1], base[-2])
                return base
            return None
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Subscript):
            return self._infer_subscript(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            a = self.infer(node.body)
            b = self.infer(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.Compare):
            self.infer(node.left)
            for comp in node.comparators:
                self.infer(comp)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.infer(child)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp, ast.Lambda)):
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.infer(child)
        return None

    def _infer_binop(self, node: ast.BinOp) -> SymShape:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, ast.MatMult):
            result, conflict = matmul_shapes(left, right)
            if conflict:
                self.issues.append(
                    ShapeIssue(
                        node,
                        "NL510",
                        "matmul inner-dimension mismatch: "
                        f"{render_shape(left)} @ {render_shape(right)}",
                    )
                )
            return result
        if isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                      ast.FloorDiv, ast.Mod)
        ):
            result, conflict = broadcast_shapes(left, right)
            if conflict:
                self.issues.append(
                    ShapeIssue(
                        node,
                        "NL510",
                        "non-broadcastable operands: "
                        f"{render_shape(left)} vs {render_shape(right)}",
                    )
                )
            return result
        return None

    def _shape_literal(self, node: ast.expr) -> SymShape:
        """A shape tuple written in source: ``(n, 3)`` / ``n`` / ``X.shape``."""
        if isinstance(node, (ast.Tuple, ast.List)):
            dims: list[str | int | None] = []
            for elt in node.elts:
                dims.append(self._dim_literal(elt))
            return tuple(dims)
        dim = self._dim_literal(node)
        if dim is not None:
            return (dim,)
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            return self.infer(node.value)
        return None

    def _dim_literal(self, node: ast.expr) -> "str | int | None":
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value if node.value >= 0 else None
        if isinstance(node, ast.Name) and node.id in self.symbols:
            return node.id
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)
        ):
            base = self.infer(node.value.value)
            if base is not None and -len(base) <= node.slice.value < len(base):
                return base[node.slice.value]
        return None

    def _call_keyword(self, node: ast.Call, name: str) -> "ast.expr | None":
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _infer_call(self, node: ast.Call) -> SymShape:
        for arg in node.args:
            if not isinstance(arg, ast.Starred):
                self.infer(arg)
        for kw in node.keywords:
            self.infer(kw.value)

        qual = self.qualify(node.func)
        if qual is not None:
            info = self.lookup_contract(qual)
            if info is not None:
                return self._check_contract_call(node, info)
            if qual.startswith("numpy."):
                return self._infer_numpy_call(node, qual.split(".")[-1])
        # Array-method calls: base shape comes from the env.
        if isinstance(node.func, ast.Attribute):
            return self._infer_method_call(node, node.func)
        return None

    def _infer_numpy_call(self, node: ast.Call, fname: str) -> SymShape:
        if fname in _CONSTRUCTORS and node.args:
            return self._shape_literal(node.args[0])
        if fname in ("zeros_like", "ones_like", "empty_like", "full_like",
                     "asarray", "atleast_1d") and node.args:
            return self.infer(node.args[0])
        if fname in _SHAPE_PRESERVING and node.args:
            return self.infer(node.args[0])
        if fname == "transpose" and node.args:
            base = self.infer(node.args[0])
            if base is not None and len(node.args) == 1 and not node.keywords:
                return tuple(reversed(base))
            return None
        if fname == "reshape" and len(node.args) >= 2:
            if len(node.args) == 2:
                return self._shape_literal(node.args[1])
            return self._shape_literal(
                ast.Tuple(elts=list(node.args[1:]), ctx=ast.Load())
            )
        if fname == "dot" and len(node.args) == 2:
            result, conflict = matmul_shapes(
                self.infer(node.args[0]), self.infer(node.args[1])
            )
            if conflict:
                self.issues.append(
                    ShapeIssue(node, "NL510",
                               "np.dot inner-dimension mismatch")
                )
            return result
        if fname in _REDUCTIONS and node.args:
            axis = _axis_value(self._call_keyword(node, "axis"))
            if axis is None and len(node.args) >= 2:
                axis = _axis_value(node.args[1])
            keep = isinstance(
                self._call_keyword(node, "keepdims"), ast.Constant
            ) and bool(
                getattr(self._call_keyword(node, "keepdims"), "value", False)
            )
            return reduce_shape(self.infer(node.args[0]), axis, keep)
        return None

    def _infer_method_call(
        self, node: ast.Call, func: ast.Attribute
    ) -> SymShape:
        base = self.infer(func.value)
        if base is None:
            return None
        method = func.attr
        if method == "reshape" and node.args:
            if len(node.args) == 1:
                return self._shape_literal(node.args[0])
            return self._shape_literal(
                ast.Tuple(elts=list(node.args), ctx=ast.Load())
            )
        if method in _SHAPE_PRESERVING:
            return base
        if method == "ravel" or method == "flatten":
            if all(isinstance(d, int) for d in base):
                size = 1
                for d in base:
                    size *= int(d)  # type: ignore[arg-type]
                return (size,)
            return (base[0],) if len(base) == 1 else (None,)
        if method in _REDUCTIONS:
            axis = _axis_value(self._call_keyword(node, "axis"))
            if axis is None and node.args:
                axis = _axis_value(node.args[0])
            keep = isinstance(
                self._call_keyword(node, "keepdims"), ast.Constant
            ) and bool(
                getattr(self._call_keyword(node, "keepdims"), "value", False)
            )
            return reduce_shape(base, axis, keep)
        if method == "copy":
            return base
        return None

    def _infer_subscript(self, node: ast.Subscript) -> SymShape:
        base = self.infer(node.value)
        items = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        for item in items:
            if not isinstance(item, (ast.Slice, ast.Constant)):
                self.infer(item)
        if base is None:
            return None
        dims: list[str | int | None] = []
        axis = 0
        for item in items:
            if isinstance(item, ast.Constant) and item.value is None:
                dims.append(1)  # np.newaxis
                continue
            if isinstance(item, ast.Constant) and item.value is Ellipsis:
                return None
            if axis >= len(base):
                return None
            if isinstance(item, ast.Slice):
                full = (
                    item.lower is None
                    and item.upper is None
                    and item.step is None
                )
                dims.append(base[axis] if full else None)
                axis += 1
                continue
            index_shape = self.infer(item)
            if index_shape not in (None, ()):
                return None  # fancy / boolean indexing
            axis += 1  # integer index drops the dimension
        dims.extend(base[axis:])
        return tuple(dims)

    def _check_contract_call(
        self, node: ast.Call, info: ContractInfo
    ) -> SymShape:
        """NL520: unify caller-side argument shapes against a callee contract."""
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return None
        bound: dict[str, ast.expr] = {}
        if info.has_varargs and len(node.args) > len(info.arg_names):
            return None
        for index, arg in enumerate(node.args):
            if index >= len(info.arg_names):
                return None
            bound[info.arg_names[index]] = arg
        for kw in node.keywords:
            assert kw.arg is not None
            bound[kw.arg] = kw.value
        env: dict = {}
        for param in info.contract.params:
            value = bound.get(param.name)
            if value is None:
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                continue
            actual = self.infer(value)
            if actual is None:
                continue
            ok = False
            for alt in param.alternatives:
                if isinstance(alt, ScalarDim):
                    if len(actual) == 0:
                        dim = self._dim_literal(value)
                        if dim is not None:
                            if bind_dim(alt.symbol, dim, env):
                                ok = True
                        else:
                            ok = True
                    continue
                if actual == ():  # scalar against an array alternative
                    continue
                if match_shape(alt, actual, env):
                    ok = True
                    break
            if not ok and actual != ():
                declared = " | ".join(a.render() for a in param.alternatives)
                self.issues.append(
                    ShapeIssue(
                        node,
                        "NL520",
                        f"argument {param.name!r} to {info.qualname} has "
                        f"shape {render_shape(actual)}, contract declares "
                        f"{declared} (bindings "
                        + (
                            "{"
                            + ", ".join(
                                f"{k}={v}" for k, v in sorted(env.items())
                            )
                            + "}"
                            if env
                            else "{}"
                        )
                        + ")",
                    )
                )
                return None
        if len(info.contract.returns) == 1:
            alts = info.contract.returns[0]
            if len(alts) == 1 and isinstance(alts[0], ArrayShape):
                return instantiate(alts[0], env)
        return None


def collect_returns(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.Return]:
    """Yield ``return`` statements belonging to ``node`` itself."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(item, ast.Return):
            yield item
        for child in ast.iter_child_nodes(item):
            stack.append(child)
