"""Linear-algebra safety: no explicit inverses, no normal equations.

The GP stack standardized on Cholesky factorizations —
``repro.gp.model.chol_with_jitter`` + ``cho_solve`` for solves and LAPACK
``dpotri`` on the factor when a full inverse is genuinely needed (as the
marginal-likelihood evaluator does).  REMBO's reverse map (Eq. 12) additionally needs a pseudo-inverse
whose accuracy the dimension-selection procedure depends on.

* **NL101** — a call to ``numpy.linalg.inv`` / ``scipy.linalg.inv``.
  Explicit inversion is slower and less accurate than a factorization, and
  on a covariance matrix it silently drops positive-definiteness
  information.
* **NL102** — a normal-equation solve ``solve(E.T @ E, ...)`` (or the
  ``E @ E.T`` flavor).  Forming the Gram product squares the condition
  number: a matrix with ``cond(E) = 1e8`` becomes numerically singular.
  Use ``np.linalg.lstsq`` or a QR factorization.
* **NL103** — a direct ``scipy.linalg.cholesky`` / ``numpy.linalg.cholesky``
  call inside ``src/repro/gp/``.  Covariance factorizations there must go
  through ``repro.gp.model.chol_with_jitter`` so every solve shares the
  single retry/jitter entry point; the helper itself (and the deliberate
  fail-fast Schur-complement factorization in the incremental update)
  carries an inline suppression.

Scope: library and benchmark code.  Tests are exempt so reference
implementations can compare against the naive formulas.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.numlint.core import FileContext, Finding, LintPass
from tools.numlint.passes import register

_INV_FUNCTIONS = frozenset({"numpy.linalg.inv", "scipy.linalg.inv"})
_SOLVE_FUNCTIONS = frozenset(
    {
        "numpy.linalg.solve",
        "scipy.linalg.solve",
        "numpy.linalg.lstsq",  # lstsq(E.T @ E, ...) is still normal equations
        "scipy.linalg.lstsq",
    }
)
_CHOLESKY_FUNCTIONS = frozenset(
    {"scipy.linalg.cholesky", "numpy.linalg.cholesky"}
)
#: Path fragment where raw Cholesky calls must route through the jittered
#: helper in ``repro.gp.model``.
_GP_FRAGMENT = "repro/gp/"


def _gram_product_base(node: ast.AST) -> ast.AST | None:
    """Return ``E`` when ``node`` is ``E.T @ E`` or ``E @ E.T``, else None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return None
    left, right = node.left, node.right
    if isinstance(left, ast.Attribute) and left.attr == "T":
        if ast.dump(left.value) == ast.dump(right):
            return left.value
    if isinstance(right, ast.Attribute) and right.attr == "T":
        if ast.dump(right.value) == ast.dump(left):
            return right.value
    return None


@register
class LinalgSafetyPass(LintPass):
    name = "linalg-safety"
    description = (
        "forbid explicit matrix inverses and normal-equation solves on "
        "Gram/covariance matrices"
    )
    codes = {
        "NL101": "explicit matrix inverse (np.linalg.inv / scipy.linalg.inv)",
        "NL102": "normal-equation solve(E.T @ E, ...) squares the condition number",
        "NL103": "raw cholesky in repro/gp/ outside chol_with_jitter",
    }

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_test:
            return
        yield from self._check(ctx)

    def _check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified(node.func)
            if qual in _INV_FUNCTIONS:
                yield self.emit(
                    ctx,
                    node,
                    "NL101",
                    f"{qual} forms an explicit inverse; factorize instead "
                    "(repro.gp.model.chol_with_jitter + scipy cho_solve, or "
                    "LAPACK dpotri on the factor when the dense inverse is "
                    "required)",
                )
                continue
            if qual in _SOLVE_FUNCTIONS and node.args:
                base = _gram_product_base(node.args[0])
                if base is not None:
                    base_src = ast.unparse(base)
                    yield self.emit(
                        ctx,
                        node,
                        "NL102",
                        f"normal equations on {base_src!r}: cond({base_src})^2 "
                        "amplifies round-off; use np.linalg.lstsq"
                        f"({base_src}, ...) or a QR factorization",
                    )
                    continue
            if qual in _CHOLESKY_FUNCTIONS and _GP_FRAGMENT in ctx.relpath:
                yield self.emit(
                    ctx,
                    node,
                    "NL103",
                    f"direct {qual} in repro/gp/; factorize through "
                    "repro.gp.model.chol_with_jitter so the retry/jitter "
                    "policy applies (inline-suppress deliberate fail-fast "
                    "sites)",
                )
