"""Decoding: greedy and beam search over the incremental model interface."""

from repro.decoding.batched_beam import batched_beam_decode, batched_beam_search
from repro.decoding.beam import beam_decode_example
from repro.decoding.greedy import greedy_decode
from repro.decoding.hypothesis import Hypothesis, extended_ids_to_tokens
from repro.decoding.nbest import beam_decode_nbest
from repro.decoding.postprocess import greedy_decode_with_attention, replace_unknowns

__all__ = [
    "batched_beam_decode",
    "batched_beam_search",
    "beam_decode_example",
    "greedy_decode",
    "Hypothesis",
    "extended_ids_to_tokens",
    "beam_decode_nbest",
    "greedy_decode_with_attention",
    "replace_unknowns",
]
