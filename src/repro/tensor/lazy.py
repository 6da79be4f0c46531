"""Kernel fusion for the tape, where gradients flow.

The numpy tape executes one Python-level op at a time, so the attention
score→mask→softmax→context chain and the ACNN Eq. 3 copy-score chain each
cost ~10 tape nodes per decoder step. Inside a :class:`lazy` context with
gradients on, those chains run as the single-node kernels in
:mod:`repro.nn.functional` (one tape node with a hand-written backward)
instead of their elementary-op formulation. ``acnn train --fusion`` runs
the whole command inside one.

Under ``no_grad`` the eager chains always run, inside ``lazy()`` or not:
there is no backward to save, and the eager chains score only the live
source prefix (see :mod:`repro.nn.attention`) where the kernels score the
full width. So every decode and every encode is eager.

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
*entry*, not per instance). Forked workers (elastic training) inherit the
stacks as they stood at fork time; sharing one process between concurrent
tape users would require promoting these to thread-locals and is
deliberately out of contract.
"""

from __future__ import annotations

from repro.tensor.core import is_grad_enabled

__all__ = ["lazy", "is_lazy_enabled"]

# Active lazy contexts, innermost last. Same single-threaded contract as
# core._GRAD_ENABLED (see the reentrancy audit in the module docstring).
_LAZY: list["lazy"] = []


class lazy:
    """Enable fused kernels inside the block, wherever gradients are on::

        with lazy():
            loss = model.loss(batch)

    Each entry pushes onto the module stack and pops exactly that entry on
    exit, so nesting — including reusing one instance — and exceptions
    restore the previous state correctly.
    """

    def __enter__(self) -> "lazy":
        _LAZY.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LAZY.remove(self)


def is_lazy_enabled() -> bool:
    """Whether fused kernels are on: inside :class:`lazy` with gradients on."""
    return bool(_LAZY) and is_grad_enabled()
