"""Opt-in kernel fusion for the tape.

The numpy tape executes one Python-level op at a time, so the attention
score→mask→softmax→context chain and the ACNN Eq. 3 copy-score chain each
cost ~10 tape nodes per decoder step. With fusion on, those chains run as
the single-node kernels in :mod:`repro.nn.functional` (one tape node with
a hand-written backward) instead of their elementary-op formulation.

Fusion is on when either holds:

- a :class:`lazy` context (usable as a decorator) is active, or
- the process-wide default is raised with :func:`set_fusion_enabled`
  (the CLI's ``--fusion`` flag).

:func:`is_lazy_enabled` is the one predicate the fusable call sites
(``GlobalAttention.forward`` and ``ACNN.copy_distribution``) consult.

Equivalence contract
--------------------
Fused kernels perform the *same numpy operations in the same order* as the
eager formulation, so forward outputs are byte-identical; hand-written
backwards are gradcheck-pinned (tolerance equivalence). NaN is never
laundered: the transcendentals route through :mod:`repro.nn.numerics`
(``scripts/lint_numerics.py`` enforces this with waiver-proof strictness
for the fused-kernel modules) and non-finite inputs stay detectable.
Coverage-mode attention (the See et al. extension) mixes an accumulated
history into the scores and keeps the elementary-op path.

Reentrancy audit (``_GRAD_ENABLED`` / ``_PROFILES`` / ``_ANOMALY`` / ``_LAZY``)
-------------------------------------------------------------------------------
All four mode switches are plain module-level stacks, which is safe
because every consumer — the trainer, the decoding engines and the
serving engine — runs tape code on one thread per process. The stacks are
exception-safe (``append`` on enter, ``remove`` of the exact entry on
exit) and reentrant (nested contexts, including reusing one
``no_grad``/``lazy`` instance, restore correctly because state is kept per
*entry*, not per instance). Multi-process workers get a fresh set of
stacks per process; sharing one process between concurrent tape users
would require promoting these to thread-locals and is deliberately out of
contract.
"""

from __future__ import annotations

import functools
from typing import Callable

__all__ = [
    "lazy",
    "is_lazy_enabled",
    "fusion_enabled",
    "set_fusion_enabled",
]

# Active lazy contexts, innermost last. Same single-threaded contract as
# core._GRAD_ENABLED (see the reentrancy audit in the module docstring).
_LAZY: list["lazy"] = []

# Process-wide opt-in default. Off by default: with the flag down and no
# lazy() context, behavior is bit-for-bit the eager tape.
_FUSION_DEFAULT = False


class lazy:
    """Enable fused kernels inside the block.

    Usable as a context manager or as a decorator::

        with lazy():
            loss = model.loss(batch)

        @lazy()
        def decode(batch): ...

    Each entry pushes onto the module stack and pops exactly that entry on
    exit, so nesting — including reusing one instance — and exceptions
    restore the previous state correctly.
    """

    def __enter__(self) -> "lazy":
        _LAZY.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LAZY.remove(self)

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return wrapper


def is_lazy_enabled() -> bool:
    """Whether fused kernels are on: inside :class:`lazy` or by default."""
    return _FUSION_DEFAULT or bool(_LAZY)


def fusion_enabled() -> bool:
    """The process-wide fusion opt-in default (off unless raised)."""
    return _FUSION_DEFAULT


def set_fusion_enabled(enabled: bool) -> bool:
    """Set the process-wide default; returns the previous value."""
    global _FUSION_DEFAULT
    previous = _FUSION_DEFAULT
    _FUSION_DEFAULT = bool(enabled)
    return previous
