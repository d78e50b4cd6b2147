"""Bonawitz-style secure aggregation over a client group.

The protocol simulated here is the mask-cancellation core of
"Practical Secure Aggregation for Privacy-Preserving Machine Learning"
(CCS'17): fixed-point encoding, pairwise additive masks, server-side ring
summation. Its cost structure (Θ(|g|²·d) mask work per group) is exactly
what the paper's O_g(|g|) quadratic overhead models. Recovery from
clients that drop after masking (secret-sharing the seeds) lives in
:mod:`repro.secure.dropout`; the group round switches to it whenever an
upload is lost.

The hot path batches the whole round: one cached pair-seed table
(:func:`repro.secure.masking.pairwise_seed_table`), all Philox key
schedules derived in one vectorized hash pass, and a single reusable
counter-mode stream that expands each pair mask once and applies it ± in
place (:func:`repro.secure.masking.accumulate_pair_masks`).  Because ring
addition is commutative, the masked vectors — and therefore the ring sum —
are bit-identical to the scalar reference path (kept as
:meth:`SecureAggregator.aggregate_reference`).  ``mask_expansions`` keeps
counting the *protocol's* PRG work (two expansions per pair, the Θ(s²)
quantity), independent of the simulator's dedup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.secure.masking import (
    accumulate_pair_masks,
    pairwise_mask,
    pairwise_seed,
    pairwise_seed_table,
)
from repro.secure.quantize import FixedPointCodec
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["SecAggResult", "SecureAggregator"]


@dataclass
class SecAggResult:
    """Outcome of one secure aggregation.

    ``total`` is the decoded sum of all client vectors; ``masked_inputs``
    are what the server actually saw (for tests asserting privacy);
    ``mask_expansions`` counts PRG mask vectors generated (2 per pair),
    the quantity that scales quadratically with group size.
    """

    total: np.ndarray
    masked_inputs: np.ndarray
    mask_expansions: int

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.masked_inputs.shape[0]


class SecureAggregator:
    """Aggregate client vectors without revealing any individual vector.

    Parameters
    ----------
    codec:
        Fixed-point codec; default scale 2^24 (error ≤ 3e-8 per element).
    payload_factor:
        Multiplier on the vector length actually masked, modelling protocol
        variants that ship extra state — SCAFFOLD sends model + control
        variate, i.e. ``payload_factor=2`` (Fig. 8's "SCAFFOLD SecAgg"
        curve sits above plain SecAgg for exactly this reason).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; every aggregation
        records ``secagg_calls`` / ``secagg_mask_expansions`` /
        ``secagg_bytes_masked`` counters — the Θ(s²) quantities of Eq. (5).
    """

    def __init__(
        self,
        codec: FixedPointCodec | None = None,
        payload_factor: int = 1,
        telemetry: Telemetry | None = None,
    ):
        if payload_factor < 1:
            raise ValueError(f"payload_factor must be >= 1, got {payload_factor}")
        self.codec = codec or FixedPointCodec()
        self.payload_factor = int(payload_factor)
        self.telemetry = resolve_telemetry(telemetry)

    def _validate(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"expected (clients, dim), got shape {vectors.shape}")
        return vectors

    def _encode_masked(self, vectors: np.ndarray) -> np.ndarray:
        """Fixed-point encode all rows, tiled to the masked payload width."""
        enc = self.codec.encode(vectors)
        if self.payload_factor > 1:
            enc = np.tile(enc, (1, self.payload_factor))
        return enc

    def _finish(
        self, masked: np.ndarray, dim: int, s: int, expansions: int
    ) -> SecAggResult:
        ring_sum = masked.sum(axis=0, dtype=np.uint64)
        total = self.codec.decode(ring_sum[:dim], count=s)
        if self.telemetry.enabled:
            self.telemetry.inc("secagg_calls")
            self.telemetry.inc("secagg_mask_expansions", float(expansions))
            self.telemetry.inc("secagg_bytes_masked", float(masked.nbytes))
        return SecAggResult(total=total, masked_inputs=masked, mask_expansions=expansions)

    def aggregate(
        self,
        vectors: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> SecAggResult:
        """Securely sum ``vectors`` of shape (clients, dim).

        Every client's submission is masked by the pairwise masks; the
        server sums the masked uint64 vectors (wraparound = ring addition)
        and decodes. The result equals the plain sum up to fixed-point
        rounding.
        """
        vectors = self._validate(vectors)
        s, dim = vectors.shape
        masked = self._encode_masked(vectors)
        if s > 1:
            lo, hi, seeds = pairwise_seed_table(round_id, s, session)
            accumulate_pair_masks(masked, lo, hi, seeds)
        return self._finish(masked, dim, s, s * (s - 1))

    def aggregate_reference(
        self,
        vectors: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> SecAggResult:
        """The pre-vectorization implementation: one ``SeedSequence`` and
        one ``Generator`` per (client, partner) mask expansion.

        Kept as the golden reference — ``benchmarks/test_hotpaths.py``
        measures the speedup against it, and the equivalence tests assert
        that :meth:`aggregate` produces bit-identical masked matrices.
        """
        vectors = self._validate(vectors)
        s, dim = vectors.shape
        masked_dim = dim * self.payload_factor
        enc_all = self._encode_masked(vectors)
        masked = np.zeros((s, masked_dim), dtype=np.uint64)
        expansions = 0
        for i in range(s):
            acc = enc_all[i].copy()
            for j in range(s):
                if j == i:
                    continue
                mask = pairwise_mask(pairwise_seed(round_id, i, j, session), masked_dim)
                expansions += 1
                if i < j:
                    acc += mask  # uint64 wraparound == ring addition
                else:
                    acc -= mask
            masked[i] = acc
        return self._finish(masked, dim, s, expansions)

    def aggregate_weighted(
        self,
        vectors: np.ndarray,
        weights: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> np.ndarray:
        """Securely compute Σ w_i · v_i (clients pre-scale locally)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (vectors.shape[0],):
            raise ValueError("one weight per client vector required")
        return self.aggregate(vectors * weights[:, None], round_id, session).total
