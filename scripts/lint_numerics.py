#!/usr/bin/env python
"""Numerics lint: flag unguarded numerical primitives in ``src/repro``.

The ACNN loss chains softmax → sigmoid gate → log-of-mixture (paper
Eq. 5-7), which makes raw ``np.log`` / ``np.exp`` / ``np.sqrt`` and bare
division the four ways a run silently goes NaN. The guarded forms live in
:mod:`repro.nn.numerics` (the *blessed* module); every raw use anywhere
else must either migrate to a helper or carry an explicit per-line waiver::

    total += np.log(count)  # numerics: ok — count >= 1 by construction

The waiver is deliberate friction: it forces the author to write down the
reason the site cannot overflow, where the next reader can see it.

What is flagged
---------------
- Calls to ``np.log`` / ``np.log2`` / ``np.log10`` / ``np.exp`` /
  ``np.expm1`` / ``np.sqrt`` / ``np.power`` (any alias of numpy).
- Division (``/``, ``/=``) whose denominator is not *obviously safe*:
  a nonzero numeric literal, an additive-floor expression
  (``x + 1e-12``), or a guard call (``max``, ``maximum``, ``clip``,
  ``len``, ``float``, ``int``).

Exit status: 0 when clean, 1 when findings remain.

Usage::

    python scripts/lint_numerics.py            # lints src/repro
    python scripts/lint_numerics.py PATH ...   # lints specific files/trees
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"

#: The one module allowed to touch the raw primitives without waivers.
BLESSED = {Path("src/repro/nn/numerics.py")}

#: Fused-kernel files where waivers do NOT excuse raw transcendental calls.
#: A fused node's internals have no per-op tape node for anomaly mode to
#: blame — every log/exp/sqrt must route through repro.nn.numerics so the
#: guarded kernels (np_fast_sigmoid, np_stable_softmax, np_safe_*) are the
#: only transcendental code paths.
STRICT_FUSED = {Path("src/repro/nn/functional.py")}

WAIVER = "# numerics: ok"

DANGEROUS_NUMPY_FUNCS = {"log", "log2", "log10", "exp", "expm1", "sqrt", "power"}

#: Call names treated as guards when they produce the denominator.
SAFE_DENOMINATOR_CALLS = {"max", "maximum", "clip", "len", "float", "int"}

NUMPY_ALIASES = {"np", "numpy"}


@dataclass(frozen=True)
class Finding:
    path: Path
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.message}"


def _call_name(node: ast.expr) -> str | None:
    """Dotted-name tail of a call target (``np.maximum`` → ``maximum``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_numpy_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in NUMPY_ALIASES
    )


def _is_positive_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value > 0
    return False


def _is_nonzero_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value != 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_nonzero_constant(node.operand)
    return False


def _is_safe_denominator(node: ast.expr) -> bool:
    """Heuristic: can this expression be trusted never to be zero?"""
    if _is_nonzero_constant(node):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        # Additive floor: ``norm + 1e-12`` (either operand the floor).
        return _is_positive_constant(node.left) or _is_positive_constant(node.right)
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in SAFE_DENOMINATOR_CALLS or (name or "").startswith("safe_")
    return False


class _NumericsVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, waived_lines: set[int], strict: bool = False):
        self.path = path
        self.waived = waived_lines
        self.strict = strict
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, message: str, waivable: bool = True) -> None:
        if waivable and node.lineno in self.waived:
            return
        self.findings.append(Finding(self.path, node.lineno, node.col_offset, message))

    def visit_Call(self, node: ast.Call) -> None:
        if _is_numpy_attr(node.func) and node.func.attr in DANGEROUS_NUMPY_FUNCS:
            if self.strict:
                self._flag(
                    node,
                    f"raw np.{node.func.attr} in a fused-kernel file — waivers do "
                    "not apply here; route through repro.nn.numerics "
                    "(np_fast_sigmoid, np_stable_softmax, np_safe_*)",
                    waivable=False,
                )
            else:
                self._flag(
                    node,
                    f"raw np.{node.func.attr} — use repro.nn.numerics "
                    f"(np_safe_{node.func.attr if node.func.attr != 'power' else 'exp'} "
                    f"or a tensor helper), or add a '{WAIVER} — <reason>' waiver",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div) and not _is_safe_denominator(node.right):
            self._flag(
                node,
                "bare division with unguarded denominator — use "
                f"repro.nn.numerics.safe_div/np_safe_div, guard with "
                f"max()/clip()/(x + eps), or add a '{WAIVER} — <reason>' waiver",
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div) and not _is_safe_denominator(node.value):
            self._flag(
                node,
                "bare /= with unguarded denominator — guard the divisor or add "
                f"a '{WAIVER} — <reason>' waiver",
            )
        self.generic_visit(node)


def lint_file(path: Path, strict: bool = False) -> list[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, f"syntax error: {exc.msg}")]
    waived = {
        number for number, line in enumerate(source.splitlines(), start=1) if WAIVER in line
    }
    visitor = _NumericsVisitor(path, waived, strict=strict)
    visitor.visit(tree)
    return visitor.findings


def iter_targets(arguments: list[str]) -> list[Path]:
    roots = [Path(argument) for argument in arguments] or [DEFAULT_TARGET]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    return files


def main(arguments: list[str]) -> int:
    findings: list[Finding] = []
    checked = 0
    for path in iter_targets(arguments):
        try:
            relative = path.resolve().relative_to(REPO_ROOT)
        except ValueError:
            relative = path
        if relative in BLESSED:
            continue
        checked += 1
        findings.extend(lint_file(path, strict=relative in STRICT_FUSED))
    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"numerics lint: {checked} file(s) checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
