"""Request admission: typed request/result records and input sanitization.

Real traffic is empty, whitespace-only, over-long, OOV-dense, or not text
at all. Admission turns each of those into a typed
:class:`~repro.serving.errors.RejectedRequest` with a stable reason code
*before* anything reaches the tensor stack, and normalizes everything that
is admissible (tokenization, length capping, vocabulary coercion) into the
same :class:`~repro.data.dataset.EncodedExample` the training pipeline
produces — the engine never sees a request-shaped object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.dataset import EncodedExample, QGDataset
from repro.data.examples import QGExample
from repro.data.tokenizer import tokenize
from repro.data.vocabulary import Vocabulary
from repro.serving.errors import RejectedRequest

__all__ = [
    "GenerationRequest",
    "GenerationResult",
    "AdmissionPolicy",
    "RequestValidator",
]


@dataclass(frozen=True)
class GenerationRequest:
    """One question-generation request as the outside world sends it."""

    text: str
    request_id: str = ""
    beam_size: int = 3
    max_length: int = 24
    deadline_seconds: float | None = None
    """Per-request budget; ``None`` uses the service default."""


@dataclass(frozen=True)
class GenerationResult:
    """A served request: the question plus how it was produced."""

    request_id: str
    question: str
    tokens: tuple[str, ...]
    rung: str
    """Which degradation rung produced the answer (``beam`` when none)."""
    attempts: int
    """Engine attempts consumed (1 = first try succeeded)."""
    log_prob: float
    latency_seconds: float

    @property
    def degraded(self) -> bool:
        return self.rung != "beam"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Validation limits; anything outside them is rejected, not crashed."""

    max_source_tokens: int = 200
    """Hard cap on tokenized source length. It is also the service's one
    decode width: every admitted source decodes padded to it."""
    truncate_to: int | None = None
    """When set, sources longer than ``max_source_tokens`` are truncated to
    this many tokens instead of rejected (length *coercion* rather than a
    hard bound)."""
    max_unk_density: float = 0.8
    """Reject when more than this fraction of source tokens fall outside
    the encoder vocabulary — the encoder would see nearly pure ``<unk>``
    and the output would be noise."""
    max_beam_size: int = 16
    max_target_length: int = 100

    def __post_init__(self) -> None:
        if self.truncate_to is not None and not (
            1 <= self.truncate_to <= self.max_source_tokens
        ):
            raise ValueError(
                f"truncate_to must be in [1, max_source_tokens="
                f"{self.max_source_tokens}], got {self.truncate_to}"
            )


@dataclass
class _RejectionCounts:
    by_reason: dict[str, int] = field(default_factory=dict)

    def bump(self, reason: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


class RequestValidator:
    """Admission + sanitization against a concrete vocabulary pair."""

    def __init__(
        self,
        encoder_vocab: Vocabulary,
        decoder_vocab: Vocabulary,
        policy: AdmissionPolicy | None = None,
    ) -> None:
        self.encoder_vocab = encoder_vocab
        self.decoder_vocab = decoder_vocab
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.rejections = _RejectionCounts()

    def admit(self, request: GenerationRequest) -> EncodedExample:
        """Validate and normalize; raises :class:`RejectedRequest`.

        Returns the encoded example ready for collation — identical in
        shape to a training example, with vocabulary coercion (unknown
        tokens to ``<unk>`` plus copy-visible OOV slots) applied by the
        same :class:`~repro.data.dataset.QGDataset` code path.
        """
        try:
            return self._admit(request)
        except RejectedRequest as rejection:
            self.rejections.bump(rejection.reason)
            raise

    def _admit(self, request: GenerationRequest) -> EncodedExample:
        policy = self.policy
        if not isinstance(request.text, str):
            raise RejectedRequest(
                "invalid_type", f"text must be str, got {type(request.text).__name__}"
            )
        if request.beam_size < 1 or request.beam_size > policy.max_beam_size:
            raise RejectedRequest(
                "bad_parameters",
                f"beam_size must be in [1, {policy.max_beam_size}], got {request.beam_size}",
            )
        if request.max_length < 1 or request.max_length > policy.max_target_length:
            raise RejectedRequest(
                "bad_parameters",
                f"max_length must be in [1, {policy.max_target_length}], "
                f"got {request.max_length}",
            )
        if request.deadline_seconds is not None and request.deadline_seconds <= 0:
            raise RejectedRequest(
                "bad_parameters",
                f"deadline_seconds must be positive, got {request.deadline_seconds}",
            )

        tokens = tokenize(request.text)
        if not tokens:
            raise RejectedRequest("empty", "no tokens after tokenization")
        if len(tokens) > policy.max_source_tokens:
            if policy.truncate_to is not None:
                tokens = tokens[: policy.truncate_to]
            else:
                raise RejectedRequest(
                    "too_long",
                    f"{len(tokens)} source tokens exceed the cap of "
                    f"{policy.max_source_tokens}",
                )
        unknown = sum(1 for token in tokens if token not in self.encoder_vocab)
        density = unknown / len(tokens)
        if density > policy.max_unk_density:
            raise RejectedRequest(
                "unk_density",
                f"{density:.0%} of tokens are outside the encoder vocabulary "
                f"(limit {policy.max_unk_density:.0%})",
            )

        source = tuple(tokens)
        example = QGExample(sentence=source, paragraph=source, question=("?",))
        dataset = QGDataset([example], self.encoder_vocab, self.decoder_vocab)
        return dataset[0]
