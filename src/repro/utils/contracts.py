"""Declarative array-shape contracts with an opt-in runtime sanitizer.

The REMBO pipeline is a chain of shape-sensitive linear-algebra steps —
``z ∈ [-√d, √d]^d`` → ``x = p_Ω(Az)`` (Eq. 11), the pseudo-inverse reverse
map ``z = A†x`` (Eq. 12), GP train/predict on ``(n, d)`` batches — where a
silently broadcast or transposed array corrupts results instead of
crashing.  :func:`shape_contract` turns the informal docstring shapes into
a machine-checked contract string::

    @shape_contract("X: (n, d), A: (D, d) -> (n, D)")
    def reverse_map(X, A): ...

**Grammar** (see DESIGN.md §9 for the full rules)::

    spec    := params [ "->" rets ]
    params  := param ("," param)*            # top-level commas only
    param   := NAME ["?"] ":" alts           # "?" → None is allowed
    alts    := shape ("|" shape)*            # any alternative may match
    shape   := [DTYPE] "(" [dim ("," dim)*] ")"   # array shape
             | NAME                          # scalar int, binds symbol NAME
    DTYPE   := "f"  (float64, the default) | "i" (integer) | "a" (any)
    dim     := SYMBOL | INT | "*"            # "*" matches any size

Dimension symbols unify *per call*: every occurrence of a symbol must
resolve to the same concrete size across all declared arguments and
returns, integer literals must match exactly, and ``*`` is unconstrained.
A bare-name scalar entry (``n_init: n``) binds an integer argument into
the symbol table so returns like ``-> (n, d)`` can be pinned against it.
Multiple return shapes (``-> (n,), (n, n)``) declare a tuple return.

**Runtime mode.**  The sanitizer is gated on the ``REPRO_SANITIZE``
environment variable, read once at import time.  When it is off (the
default), :func:`shape_contract` returns the decorated function object
itself — the decorator is an identity, no wrapper frame, no parsing, zero
call overhead.  When on, every call validates declared shapes and dtypes,
trips on NaN/Inf in float arrays (``check_finite=False`` opts a function
out), and rejects aliasing between ``out``/``*_out`` buffers and the other
array arguments (``allow_aliasing=True`` opts out).

**Static mode.**  The NL5xx shapelint passes check the same contract
strings interprocedurally.  The grammar has one parser,
:func:`parse_contract` here: ``tools/numlint/shapes.py`` imports it, and
``tests/test_contracts.py`` asserts that the linter's parser is this one.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable gating the runtime sanitizer; read once at import.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests runtime contract checking."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() in _TRUTHY


_ENABLED = sanitize_enabled()


class ShapeContractError(ValueError):
    """A runtime violation of a declared shape contract."""


class ContractParseError(ValueError):
    """A malformed contract specification string."""


# -- parsed representation ---------------------------------------------------

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[0-9]+\Z")


@dataclass(frozen=True)
class ArrayShape:
    """One array alternative: a dtype class plus a dimension tuple."""

    dims: tuple[str | int, ...]
    dtype: str = "f"  # "f" float64 | "i" integer | "a" any

    def render(self) -> str:
        prefix = "" if self.dtype == "f" else self.dtype
        inner = ", ".join(str(d) for d in self.dims)
        if len(self.dims) == 1:
            inner += ","
        return f"{prefix}({inner})"


@dataclass(frozen=True)
class ScalarDim:
    """A scalar integer argument bound into the symbol table."""

    symbol: str

    def render(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class ParamSpec:
    """Contract entry for one named parameter."""

    name: str
    alternatives: tuple[ArrayShape | ScalarDim, ...]
    optional: bool = False

    def render(self) -> str:
        alts = " | ".join(a.render() for a in self.alternatives)
        return f"{self.name}{'?' if self.optional else ''}: {alts}"


@dataclass(frozen=True)
class Contract:
    """A fully parsed contract specification."""

    params: tuple[ParamSpec, ...]
    returns: tuple[tuple[ArrayShape | ScalarDim, ...], ...] = ()
    spec: str = ""

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)


@dataclass
class _Cursor:
    """Minimal tokenizer state over a spec string."""

    text: str
    pos: int = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ContractParseError(
                f"expected {token!r} at position {self.pos} in {self.text!r}"
            )

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ContractParseError(
                f"expected a name at position {start} in {self.text!r}"
            )
        return self.text[start : self.pos]

    @property
    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_dim(cur: _Cursor) -> str | int:
    if cur.take("*"):
        return "*"
    word = cur.word()
    if _INT_RE.match(word):
        return int(word)
    if _SYMBOL_RE.match(word):
        return word
    raise ContractParseError(f"bad dimension {word!r} in {cur.text!r}")


def _parse_shape(cur: _Cursor) -> ArrayShape | ScalarDim:
    dtype = "f"
    for candidate in ("f", "i", "a"):
        if cur.startswith(candidate) and cur.text.startswith(
            candidate + "(", cur.pos
        ):
            cur.take(candidate)
            dtype = candidate
            break
    if cur.take("("):
        dims: list[str | int] = []
        if not cur.startswith(")"):
            dims.append(_parse_dim(cur))
            while cur.take(","):
                if cur.startswith(")"):  # trailing comma: 1-tuple spelling
                    break
                dims.append(_parse_dim(cur))
        cur.expect(")")
        return ArrayShape(dims=tuple(dims), dtype=dtype)
    word = cur.word()
    if not _SYMBOL_RE.match(word):
        raise ContractParseError(f"bad scalar symbol {word!r} in {cur.text!r}")
    return ScalarDim(symbol=word)


def _parse_alternatives(cur: _Cursor) -> tuple[ArrayShape | ScalarDim, ...]:
    alts = [_parse_shape(cur)]
    while cur.take("|"):
        alts.append(_parse_shape(cur))
    return tuple(alts)


def parse_contract(spec: str) -> Contract:
    """Parse a contract specification string (raises ContractParseError)."""
    if not isinstance(spec, str) or not spec.strip():
        raise ContractParseError("contract spec must be a non-empty string")
    params_text, arrow, returns_text = spec.partition("->")
    cur = _Cursor(params_text)
    params: list[ParamSpec] = []
    seen: set[str] = set()
    if not cur.done:
        while True:
            name = cur.word()
            optional = cur.take("?")
            cur.expect(":")
            alts = _parse_alternatives(cur)
            if name in seen:
                raise ContractParseError(f"duplicate parameter {name!r}")
            seen.add(name)
            params.append(
                ParamSpec(name=name, alternatives=alts, optional=optional)
            )
            if not cur.take(","):
                break
        if not cur.done:
            raise ContractParseError(
                f"trailing input at position {cur.pos} in {params_text!r}"
            )
    returns: tuple[tuple[ArrayShape | ScalarDim, ...], ...] = ()
    if arrow:
        rcur = _Cursor(returns_text)
        rets: list[tuple[ArrayShape | ScalarDim, ...]] = []
        while True:
            rets.append(_parse_alternatives(rcur))
            if not rcur.take(","):
                break
        if not rcur.done:
            raise ContractParseError(
                f"trailing input at position {rcur.pos} in {returns_text!r}"
            )
        for ret in rets:
            for alt in ret:
                if isinstance(alt, ScalarDim):
                    raise ContractParseError(
                        "return entries must be array shapes, got "
                        f"scalar symbol {alt.symbol!r}"
                    )
        returns = tuple(rets)
    return Contract(params=tuple(params), returns=returns, spec=spec)


# -- runtime validation ------------------------------------------------------


def _unify_dims(
    shape: ArrayShape, concrete: tuple[int, ...], env: dict[str, int]
) -> bool:
    if len(shape.dims) != len(concrete):
        return False
    trial = dict(env)
    for dim, size in zip(shape.dims, concrete):
        if dim == "*":
            continue
        if isinstance(dim, int):
            if dim != size:
                return False
        else:
            bound = trial.get(dim)
            if bound is None:
                trial[dim] = int(size)
            elif bound != size:
                return False
    env.update(trial)
    return True


def _dtype_ok(shape: ArrayShape, dtype: np.dtype[Any]) -> bool:
    if shape.dtype == "a":
        return True
    if shape.dtype == "i":
        return bool(np.issubdtype(dtype, np.integer))
    return bool(dtype == np.float64)


def _match_value(
    name: str,
    alternatives: tuple[ArrayShape | ScalarDim, ...],
    value: Any,
    env: dict[str, int],
    qualname: str,
    check_finite: bool,
) -> np.ndarray | None:
    """Validate one value against its alternatives; returns the array view."""
    failures: list[str] = []
    for alt in alternatives:
        if isinstance(alt, ScalarDim):
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                failures.append(f"{alt.render()} (not an int)")
                continue
            bound = env.get(alt.symbol)
            if bound is not None and bound != int(value):
                failures.append(
                    f"{alt.render()} (symbol {alt.symbol}={bound}, "
                    f"got {int(value)})"
                )
                continue
            env[alt.symbol] = int(value)
            return None
        arr = np.asarray(value)
        if not _dtype_ok(alt, arr.dtype):
            failures.append(f"{alt.render()} (dtype {arr.dtype})")
            continue
        if not _unify_dims(alt, arr.shape, env):
            failures.append(f"{alt.render()} (shape {arr.shape})")
            continue
        if (
            check_finite
            and np.issubdtype(arr.dtype, np.floating)
            and not np.all(np.isfinite(arr))
        ):
            raise ShapeContractError(
                f"{qualname}: {name} contains non-finite values "
                f"(contract {alt.render()})"
            )
        return arr
    raise ShapeContractError(
        f"{qualname}: {name} does not satisfy its shape contract; "
        f"tried {', '.join(failures)} with bindings {env or '{}'}"
    )


def _is_out_param(name: str) -> bool:
    return name == "out" or name.endswith("_out")


def _validate_return(
    contract: Contract,
    result: Any,
    env: dict[str, int],
    qualname: str,
    check_finite: bool,
) -> None:
    if not contract.returns:
        return
    if len(contract.returns) == 1:
        parts: tuple[Any, ...] = (result,)
    else:
        if not isinstance(result, tuple) or len(result) != len(
            contract.returns
        ):
            raise ShapeContractError(
                f"{qualname}: expected a {len(contract.returns)}-tuple "
                f"return, got {type(result).__name__}"
            )
        parts = result
    for index, (alts, value) in enumerate(zip(contract.returns, parts)):
        label = "return" if len(parts) == 1 else f"return[{index}]"
        _match_value(label, alts, value, env, qualname, check_finite)


def apply_contract(
    fn: F,
    spec: str,
    *,
    check_finite: bool = True,
    allow_aliasing: bool = False,
) -> F:
    """Wrap ``fn`` with runtime validation of ``spec`` (always, ungated).

    :func:`shape_contract` delegates here when the sanitizer is enabled;
    tests call it directly to exercise validation without the environment
    gate.
    """
    contract = parse_contract(spec)
    signature = inspect.signature(fn)
    declared = set(contract.param_names)
    known = set(signature.parameters)
    unknown = declared - known
    if unknown:
        raise ContractParseError(
            f"{fn.__qualname__}: contract names {sorted(unknown)} not in "
            f"signature ({sorted(known)})"
        )
    qualname = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        env: dict[str, int] = {}
        arrays: dict[str, Any] = {}
        for param in contract.params:
            if param.name not in bound.arguments:
                continue
            value = bound.arguments[param.name]
            if value is None:
                if param.optional:
                    continue
                raise ShapeContractError(
                    f"{qualname}: {param.name} is None but the contract "
                    f"declares {param.render()}"
                )
            _match_value(
                param.name,
                param.alternatives,
                value,
                env,
                qualname,
                check_finite,
            )
            arrays[param.name] = value
        if not allow_aliasing:
            outs = [
                (name, value)
                for name, value in arrays.items()
                if _is_out_param(name) and isinstance(value, np.ndarray)
            ]
            for out_name, out_value in outs:
                for name, value in arrays.items():
                    if name == out_name or not isinstance(value, np.ndarray):
                        continue
                    if np.may_share_memory(out_value, value):
                        raise ShapeContractError(
                            f"{qualname}: out buffer {out_name!r} aliases "
                            f"argument {name!r}"
                        )
        result = fn(*args, **kwargs)
        _validate_return(contract, result, env, qualname, check_finite)
        return result

    setattr(wrapper, "__shape_contract__", contract)
    return wrapper  # type: ignore[return-value]


T = TypeVar("T")


def thread_shared(cls: type[T]) -> type[T]:
    """Mark a class whose instances are mutated from multiple threads.

    The marker declares a contract, not a mechanism: every mutation of
    instance state outside construction (``__init__``) must hold the
    instance's ``_lock`` (an :class:`threading.RLock` built with
    :func:`repro.utils.sanitize_concurrency.make_lock`) in a literal
    ``with self._lock:`` block.  The contract is checked twice, mirroring
    :func:`shape_contract`:

    * statically by the numlint NL603 pass (attribute mutation outside a
      ``with self._lock:`` block; per-thread state under a ``self._tls``
      :class:`threading.local` is exempt), and
    * at runtime, when ``REPRO_SANITIZE=1``, by the concurrency
      sanitizer's ownership tripwires
      (:func:`repro.utils.sanitize_concurrency.instrument_thread_shared`),
      which raise on unsynchronized cross-thread writes.

    Identity-when-off: without the sanitizer this sets one class attribute
    and returns the class unchanged — no wrapping, no per-call cost.
    """
    cls.__thread_shared__ = True  # type: ignore[attr-defined]
    if _ENABLED:
        from repro.utils.sanitize_concurrency import instrument_thread_shared

        instrument_thread_shared(cls)
    return cls


def shape_contract(
    spec: str,
    *,
    check_finite: bool = True,
    allow_aliasing: bool = False,
) -> Callable[[F], F]:
    """Declare an array-shape contract on a function.

    With ``REPRO_SANITIZE`` unset (the default) the decorator resolves to
    the bare function at import time — no wrapper, no parsing, zero call
    overhead; the contract string still documents the shapes and is checked
    statically by the NL5xx shapelint passes.  With ``REPRO_SANITIZE=1``
    every call validates the declared shapes/dtypes (with per-call symbol
    unification), trips on non-finite float values unless
    ``check_finite=False``, and rejects ``out``/``*_out`` buffers that
    alias other array arguments unless ``allow_aliasing=True``.
    """
    if not _ENABLED:

        def passthrough(fn: F) -> F:
            return fn

        return passthrough

    def decorate(fn: F) -> F:
        return apply_contract(
            fn,
            spec,
            check_finite=check_finite,
            allow_aliasing=allow_aliasing,
        )

    return decorate


__all__ = [
    "SANITIZE_ENV_VAR",
    "ArrayShape",
    "Contract",
    "ContractParseError",
    "ParamSpec",
    "ScalarDim",
    "ShapeContractError",
    "apply_contract",
    "parse_contract",
    "sanitize_enabled",
    "shape_contract",
    "thread_shared",
]
