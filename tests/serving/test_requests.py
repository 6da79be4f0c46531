"""Request admission: sanitization, rejection reasons, encoded output."""

import pytest

from repro.data.dataset import EncodedExample
from repro.serving import AdmissionPolicy, GenerationRequest, RejectedRequest, RequestValidator

from conftest import DECODER, ENCODER


def make_validator(**policy_overrides):
    policy = AdmissionPolicy(**policy_overrides) if policy_overrides else None
    return RequestValidator(ENCODER, DECODER, policy)


def admit_reason(validator, request) -> str:
    with pytest.raises(RejectedRequest) as excinfo:
        validator.admit(request)
    return excinfo.value.reason


def test_admits_and_encodes_in_vocab_text():
    validator = make_validator()
    encoded = validator.admit(GenerationRequest("zorvex was born in karlin ."))
    assert isinstance(encoded, EncodedExample)
    assert len(encoded.src_ids) > 0


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_rejects_empty_and_whitespace(text):
    validator = make_validator()
    assert admit_reason(validator, GenerationRequest(text)) == "empty"


def test_rejects_non_string_text():
    validator = make_validator()
    assert admit_reason(validator, GenerationRequest(12345)) == "invalid_type"


def test_rejects_bad_beam_size_and_length():
    validator = make_validator()
    assert (
        admit_reason(validator, GenerationRequest("zorvex", beam_size=0)) == "bad_parameters"
    )
    assert (
        admit_reason(validator, GenerationRequest("zorvex", beam_size=99)) == "bad_parameters"
    )
    assert (
        admit_reason(validator, GenerationRequest("zorvex", max_length=0)) == "bad_parameters"
    )
    assert (
        admit_reason(validator, GenerationRequest("zorvex", deadline_seconds=-1.0))
        == "bad_parameters"
    )


def test_rejects_over_long_source():
    validator = make_validator(max_source_tokens=5)
    text = " ".join(["zorvex"] * 6)
    assert admit_reason(validator, GenerationRequest(text)) == "too_long"


def test_truncate_to_coerces_instead_of_rejecting():
    validator = make_validator(max_source_tokens=5, truncate_to=4)
    text = " ".join(["zorvex"] * 6)
    encoded = validator.admit(GenerationRequest(text))
    assert len(encoded.src_ids) == 4


@pytest.mark.parametrize("truncate_to", [0, 8], ids=["empty", "past_the_cap"])
def test_truncate_to_outside_one_to_the_cap_is_refused(truncate_to):
    """Truncating to nothing would admit an empty source; truncating past
    the cap would admit a source longer than the service's decode width."""
    with pytest.raises(ValueError):
        AdmissionPolicy(max_source_tokens=5, truncate_to=truncate_to)


def test_truncate_to_the_cap_is_allowed():
    validator = make_validator(max_source_tokens=5, truncate_to=5)
    encoded = validator.admit(GenerationRequest(" ".join(["zorvex"] * 6)))
    assert len(encoded.src_ids) == 5


def test_rejects_unk_dense_source():
    validator = make_validator(max_unk_density=0.5)
    assert (
        admit_reason(validator, GenerationRequest("qqq www eee rrr"))
        == "unk_density"
    )


def test_non_ascii_in_vocab_oov_still_admitted():
    # Unicode words tokenize as words (not dropped); moderate OOV admits.
    validator = make_validator()
    encoded = validator.admit(GenerationRequest("zorvex was born in Müncheim ."))
    assert len(encoded.src_ids) > 0


def test_rejection_counts_by_reason():
    validator = make_validator()
    for _ in range(2):
        admit_reason(validator, GenerationRequest(""))
    admit_reason(validator, GenerationRequest("x", beam_size=0))
    assert validator.rejections.by_reason == {"empty": 2, "bad_parameters": 1}
