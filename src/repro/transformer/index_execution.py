"""Index-domain execution of encoder layers at model scale.

The analytical accelerator models count operations from GEMM *shapes*
plus assumed outlier rates; this module runs the counting datapath for
real: one full-width encoder block (BERT-Base hidden 768 up to
DeBERTa-XL hidden 1024, sequence lengths 128-512) executes forward with
**every GEMM computed by the index-domain engine** on freshly quantized
operands — the Q/K/V/output projections, the per-head attention score and
context products (both operands activations, like the hardware's
activation-by-activation GEMMs), the FFN pair, and DeBERTa's relative
projections.  Everything between GEMMs (bias, softmax, GELU, residuals,
LayerNorm) runs in floating point, mirroring the accelerator's
post-processing units.

The outcome is a :class:`LayerMeasurement`: per-GEMM *measured*
:class:`~repro.core.index_compute.IndexComputeStats` (Gaussian vs outlier
pair counts from the actual encodings, not the scheme's assumed
fractions), wall-clock timings of the quantize and compute phases, and
the output error against the FP forward of the same block.  The campaign
engine joins these measured counts to scenario records
(``Enrichments(measured=True)`` on a campaign spec) next to the analytic counts
the schemes report.

Only the vectorized engine makes this tractable — the scalar reference
engine would need hours per layer-scale GEMM — but the scalar engine
remains selectable for equivalence tests on scaled-down configurations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.index_compute import (
    IndexComputeStats,
    IndexMatmulResult,
    PlaneCacheStats,
    get_plane_cache,
    index_domain_matmul_many,
    make_engine,
    resolve_engine,
)
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.transformer.config import TransformerConfig
from repro.transformer.encoder import EncoderBlock
from repro.transformer.functional import gelu, softmax
from repro.transformer.layers import Linear
from repro.transformer.model_zoo import MODEL_CONFIGS

__all__ = [
    "GemmMeasurement",
    "LayerMeasurement",
    "IndexDomainEncoderExecutor",
    "execute_encoder_layer",
]


@dataclass
class GemmMeasurement:
    """Measured outcome of all instances of one named layer GEMM.

    Attributes:
        name: Workload GEMM label (``attention.query``, ``ffn.output``, ...),
            matching :func:`repro.accelerator.workloads.encoder_gemms`.
        m, k, n: Shape of one instance.
        count: Instances executed (heads x batch for the attention
            score/context GEMMs, 1 otherwise).
        stats: Measured operation counts summed over all instances.
        quantize_seconds: Wall time spent fitting/encoding the operands.
        engine_seconds: Wall time spent in the index-domain engine.
    """

    name: str
    m: int
    k: int
    n: int
    count: int = 0
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)
    quantize_seconds: float = 0.0
    engine_seconds: float = 0.0


@dataclass
class LayerMeasurement:
    """Measured index-domain execution of one encoder layer.

    Attributes:
        model: Configuration name the block was built from.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        gemms: Per-GEMM measurements, in execution order.
        stats: Operation counts merged over every GEMM instance.
        quantize_seconds: Total operand fit/encode wall time.
        engine_seconds: Total index-domain compute wall time.
        total_seconds: End-to-end wall time of the layer forward.
        output_rms_error: RMS error of the index-domain layer output
            against the FP forward, relative to the FP output RMS.
        plane_cache: Decoded-operand counter delta over this measurement
            (reuses, decodes and the live memoised bytes; see
            :class:`PlaneCacheStats`), ``None`` when caching was disabled.
    """

    model: str
    sequence_length: int
    batch_size: int
    gemms: List[GemmMeasurement]
    stats: IndexComputeStats
    quantize_seconds: float
    engine_seconds: float
    total_seconds: float
    output_rms_error: float
    plane_cache: Optional[PlaneCacheStats] = None

    @property
    def measured_macs(self) -> int:
        """Total operand pairs processed (equals the layer's MAC count)."""
        return self.stats.total_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        return self.stats.outlier_pair_fraction


class IndexDomainEncoderExecutor:
    """Runs :class:`EncoderBlock` forwards with index-domain GEMMs.

    Args:
        quantizer: Tensor-level Mokey quantizer (owns the Golden
            Dictionary); a default one is generated if omitted.
        engine: Registered engine name — ``"vectorized"`` (default; the
            NumPy oracle), ``"torch"`` (optional einsum backend) or
            ``"scalar"`` (reference; only tractable on scaled-down
            configurations).  Unknown names raise a registry error with a
            did-you-mean suggestion.
        device: Optional device for backends that take one (the torch
            engine).
        cache_weights: Quantize each weight tensor once per ``(layer,
            gemm)`` key and reuse the encoding, and the decoded operand
            memoised on it, on every later forward that passes the same
            (or an equal) weight array.  Weight quantization dominates a
            cold layer forward (~2x the engine time at BERT-Base width),
            so campaigns and decoders that revisit layers pay it only
            once.  Exact: dictionary fitting is deterministic in the
            tensor values.  This is the only weight cache: without it a
            weight's decoded operand lives for one GEMM group.
        gemm_batching: Evaluate shape-matched independent GEMMs (the
            per-head attention score/context products, the Q/K/V
            projections sharing one quantized input) with single batched
            BLAS calls via :func:`index_domain_matmul_many` instead of
            one engine call each.  Statistics are identical to the
            per-GEMM path; values agree to floating-point round-off.
    """

    def __init__(
        self,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        cache_weights: bool = False,
        gemm_batching: bool = False,
    ) -> None:
        self.engine_cls = resolve_engine(engine)
        ensure = getattr(self.engine_cls, "ensure_available", None)
        if ensure is not None:
            ensure()
        self.quantizer = quantizer or MokeyQuantizer()
        self.engine = engine
        self.device = device
        self.cache_weights = cache_weights
        self.gemm_batching = gemm_batching
        #: ``(layer, gemm)`` -> (source weight array, its quantization).
        self._weight_cache: Dict[
            Tuple[Hashable, str], Tuple[np.ndarray, QuantizedTensor]
        ] = {}
        #: GEMMs served from the weight cache (monotonic across forwards).
        self.weight_cache_hits = 0

    # ------------------------------------------------------------------ #
    # Operand quantization (with the per-(layer, gemm) weight cache)
    # ------------------------------------------------------------------ #
    def _quantize_activation(self, name: str, x: np.ndarray) -> QuantizedTensor:
        return self.quantizer.quantize(np.asarray(x, dtype=np.float64), name)

    def _quantize_weight(
        self, name: str, w: np.ndarray, layer_key: Optional[Hashable]
    ) -> Tuple[QuantizedTensor, float]:
        """Quantized weight and the seconds actually spent quantizing.

        Cache hits cost ~0 s, which is the point: a model executor or
        decoder revisiting a layer reuses the encoding, and with it the
        decoded operand the engine memoised on it.  An entry serves only
        the array it was quantized from (the same object, or an equal
        array of the same shape); any other array under its key is
        quantized afresh and replaces the entry.
        """
        cache_key = (layer_key, name)
        caching = self.cache_weights and layer_key is not None
        if caching:
            cached = self._weight_cache.get(cache_key)
            if cached is not None:
                source, wq = cached
                if source is w or np.array_equal(source, w):
                    self.weight_cache_hits += 1
                    return wq, 0.0
        started = time.perf_counter()
        wq = self.quantizer.quantize(np.asarray(w, dtype=np.float64), f"{name}.weight")
        elapsed = time.perf_counter() - started
        if caching:
            self._weight_cache[cache_key] = (w, wq)
        return wq, elapsed

    def _run_engine(
        self, xq: QuantizedTensor, wq: QuantizedTensor
    ) -> Tuple[np.ndarray, IndexComputeStats]:
        resolved = make_engine(
            self.engine_cls, xq.dictionary, wq.dictionary, device=self.device
        )
        out = resolved.matmul(xq, wq)
        if isinstance(out, IndexMatmulResult):
            return out.values, out.stats
        return out

    def _record(
        self,
        measurements: Dict[str, GemmMeasurement],
        name: str,
        shape: Tuple[int, int, int],
    ) -> GemmMeasurement:
        record = measurements.get(name)
        if record is None:
            m, k, n = shape
            record = GemmMeasurement(name=name, m=m, k=k, n=n)
            measurements[name] = record
        return record

    # ------------------------------------------------------------------ #
    # One GEMM through the index domain
    # ------------------------------------------------------------------ #
    def _gemm(
        self,
        measurements: Dict[str, GemmMeasurement],
        name: str,
        x: np.ndarray,
        w: np.ndarray,
        layer_key: Optional[Hashable] = None,
    ) -> np.ndarray:
        """Quantize both operands, multiply in the index domain, record."""
        started = time.perf_counter()
        xq = self._quantize_activation(f"{name}.in", x)
        x_seconds = time.perf_counter() - started
        wq, w_seconds = self._quantize_weight(name, w, layer_key)

        engine_started = time.perf_counter()
        values, stats = self._run_engine(xq, wq)
        engine_seconds = time.perf_counter() - engine_started

        record = self._record(measurements, name, (x.shape[0], x.shape[1], w.shape[1]))
        record.count += 1
        record.stats.merge(stats)
        record.quantize_seconds += x_seconds + w_seconds
        record.engine_seconds += engine_seconds
        return values

    # ------------------------------------------------------------------ #
    # Batched GEMM groups (single BLAS calls where shapes agree)
    # ------------------------------------------------------------------ #
    def _projection_group(
        self,
        measurements: Dict[str, GemmMeasurement],
        specs: Sequence[Tuple[str, Linear]],
        inputs: Sequence[np.ndarray],
        layer_key: Optional[Hashable],
    ) -> List[List[np.ndarray]]:
        """Projections of several inputs by shared weights, batched when enabled.

        Returns ``outputs[i][p]``, input ``i`` through ``specs[p]``.  The
        batched path quantizes each input once and each weight once, then
        evaluates every (input, projection) pair with one batched engine
        call, in which the pairs sharing a weight collapse to one
        row-concatenated GEMM.  The per-GEMM path quantizes an input under
        each projection's label — dictionary fitting is deterministic in
        the values, so both paths produce identical encodings and
        therefore identical statistics.
        """
        if not self.gemm_batching:
            return [
                [
                    self._gemm(measurements, name, x2d, linear.weight, layer_key)
                    + linear.bias
                    for name, linear in specs
                ]
                for x2d in inputs
            ]
        started = time.perf_counter()
        xqs = [self._quantize_activation(f"{specs[0][0]}.in", x2d) for x2d in inputs]
        x_share = (time.perf_counter() - started) / len(specs)
        weights = [
            self._quantize_weight(name, linear.weight, layer_key) for name, linear in specs
        ]

        engine_started = time.perf_counter()
        results = index_domain_matmul_many(
            [(xq, wq) for xq in xqs for wq, _ in weights],
            engine=self.engine_cls,
            device=self.device,
        )
        engine_share = (time.perf_counter() - engine_started) / len(specs)

        rows, width = inputs[0].shape
        for p, ((name, linear), (_wq, w_seconds)) in enumerate(zip(specs, weights)):
            record = self._record(measurements, name, (rows, width, linear.weight.shape[1]))
            record.count += len(inputs)
            for result in results[p :: len(specs)]:
                record.stats.merge(result.stats)
            record.quantize_seconds += x_share + w_seconds
            record.engine_seconds += engine_share
        return [
            [
                result.values + linear.bias
                for result, (_name, linear) in zip(results[i * len(specs) :], specs)
            ]
            for i in range(len(inputs))
        ]

    def _gemm_many(
        self,
        measurements: Dict[str, GemmMeasurement],
        name: str,
        pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> List[np.ndarray]:
        """All instances of one activation-by-activation GEMM (per head x
        batch), evaluated with a single batched engine call when enabled."""
        if not self.gemm_batching:
            return [self._gemm(measurements, name, x, w) for x, w in pairs]
        started = time.perf_counter()
        quantized = [
            (
                self._quantize_activation(f"{name}.in", x),
                self._quantize_activation(f"{name}.weight", w),
            )
            for x, w in pairs
        ]
        quantize_seconds = time.perf_counter() - started

        engine_started = time.perf_counter()
        results = index_domain_matmul_many(
            quantized, engine=self.engine_cls, device=self.device
        )
        engine_seconds = time.perf_counter() - engine_started

        x0, w0 = pairs[0]
        record = self._record(measurements, name, (x0.shape[0], x0.shape[1], w0.shape[1]))
        record.count += len(pairs)
        for result in results:
            record.stats.merge(result.stats)
        record.quantize_seconds += quantize_seconds
        record.engine_seconds += engine_seconds
        return [result.values for result in results]

    def _gemm_many_encoded(
        self,
        measurements: Dict[str, GemmMeasurement],
        name: str,
        pairs: Sequence[Tuple[np.ndarray, QuantizedTensor]],
    ) -> List[np.ndarray]:
        """Instances of one GEMM whose right operands are already encoded.

        The decoder's KV-cache path lands here: the cached K/V rows were
        quantized at prefill (or appended with the prefill dictionary),
        so only the activation side is quantized per call.  Shape-matched
        instances share one batched engine call when batching is enabled.
        """
        started = time.perf_counter()
        quantized = [
            (self._quantize_activation(f"{name}.in", x), wq) for x, wq in pairs
        ]
        quantize_seconds = time.perf_counter() - started

        engine_started = time.perf_counter()
        if self.gemm_batching and len(quantized) > 1:
            results = index_domain_matmul_many(
                quantized, engine=self.engine_cls, device=self.device
            )
        else:
            results = []
            for xq, wq in quantized:
                values, stats = self._run_engine(xq, wq)
                results.append(IndexMatmulResult(values=values, stats=stats))
        engine_seconds = time.perf_counter() - engine_started

        x0, w0 = pairs[0]
        record = self._record(measurements, name, (x0.shape[0], x0.shape[1], w0.shape[1]))
        record.count += len(pairs)
        for result in results:
            record.stats.merge(result.stats)
        record.quantize_seconds += quantize_seconds
        record.engine_seconds += engine_seconds
        return [result.values for result in results]

    def _projection(
        self,
        measurements: Dict[str, GemmMeasurement],
        name: str,
        x2d: np.ndarray,
        linear: Linear,
        layer_key: Optional[Hashable] = None,
    ) -> np.ndarray:
        """``x2d @ linear.weight`` in the index domain, bias added in FP."""
        return self._gemm(measurements, name, x2d, linear.weight, layer_key) + linear.bias

    # ------------------------------------------------------------------ #
    # Block forward
    # ------------------------------------------------------------------ #
    def run_block(
        self,
        block: EncoderBlock,
        hidden_states: np.ndarray,
        layer_key: Optional[Hashable] = None,
    ) -> "tuple[np.ndarray, List[GemmMeasurement]]":
        """Forward ``hidden_states`` through ``block``, all GEMMs indexed.

        Args:
            block: The encoder block to execute.
            hidden_states: ``(batch, seq, hidden)`` input activations.
            layer_key: Key identifying this block in the weight cache
                (e.g. the layer index); ``None`` disables caching for
                this forward.

        Returns:
            The ``(batch, seq, hidden)`` block output and the per-GEMM
            measurements in execution order.
        """
        attn = block.attention
        batch, seq, hidden = hidden_states.shape
        heads, head_dim = attn.num_heads, attn.head_dim
        measurements: Dict[str, GemmMeasurement] = {}
        flat = hidden_states.reshape(batch * seq, hidden)

        [(q, k, v)] = self._projection_group(
            measurements,
            [
                ("attention.query", attn.query),
                ("attention.key", attn.key),
                ("attention.value", attn.value),
            ],
            [flat],
            layer_key,
        )
        qh = attn._split_heads(q.reshape(batch, seq, hidden))
        kh = attn._split_heads(k.reshape(batch, seq, hidden))
        vh = attn._split_heads(v.reshape(batch, seq, hidden))

        score_values = self._gemm_many(
            measurements,
            "attention.scores",
            [
                (qh[b, h], kh[b, h].T)
                for b in range(batch)
                for h in range(heads)
            ],
        )
        scores = np.stack(score_values).reshape(batch, heads, seq, seq)
        scores /= np.sqrt(head_dim)

        if attn.disentangled:
            # The two relative projections are ordinary weight GEMMs; the
            # content/position contractions against the shared embedding
            # table run in FP like the paper's analytic GEMM set assumes.
            [(rel_q_flat, rel_k_flat)] = self._projection_group(
                measurements,
                [
                    ("attention.relative_query", attn.relative_query),
                    ("attention.relative_key", attn.relative_key),
                ],
                [flat],
                layer_key,
            )
            rel_q = rel_q_flat.reshape(batch, seq, hidden)
            rel_k = rel_k_flat.reshape(batch, seq, hidden)
            table = attn.relative_embedding
            max_dist = table.shape[0] // 2
            positions = np.arange(seq)
            distance = np.clip(
                positions[None, :] - positions[:, None], -max_dist, max_dist - 1
            )
            rel = table[distance + max_dist].reshape(seq, seq, heads, head_dim)
            c2p = np.einsum("bhid,ijhd->bhij", attn._split_heads(rel_q), rel)
            p2c = np.einsum("bhjd,ijhd->bhij", attn._split_heads(rel_k), rel)
            scores += (c2p + p2c) / np.sqrt(3.0 * head_dim)

        probs = softmax(scores, axis=-1)

        context_values = self._gemm_many(
            measurements,
            "attention.context",
            [
                (probs[b, h], vh[b, h])
                for b in range(batch)
                for h in range(heads)
            ],
        )
        context = np.stack(context_values).reshape(batch, heads, seq, head_dim)
        merged = attn._merge_heads(context).reshape(batch * seq, hidden)

        attn_out = self._projection(
            measurements, "attention.output", merged, attn.output, layer_key
        )
        hidden_states = block.attention_norm(
            hidden_states + attn_out.reshape(batch, seq, hidden).astype(np.float32)
        )

        flat2 = hidden_states.reshape(batch * seq, hidden)
        inter = gelu(
            self._projection(
                measurements, "ffn.intermediate", flat2, block.ffn.intermediate, layer_key
            )
        )
        ffn_out = self._projection(
            measurements, "ffn.output", inter, block.ffn.output, layer_key
        )
        output = block.output_norm(
            hidden_states + ffn_out.reshape(batch, seq, hidden).astype(np.float32)
        )
        return output, list(measurements.values())


def _resolve_config(model: Union[str, TransformerConfig]) -> TransformerConfig:
    if isinstance(model, TransformerConfig):
        return model
    if model not in MODEL_CONFIGS:
        raise KeyError(f"unknown model {model!r}; known: {sorted(MODEL_CONFIGS)}")
    return MODEL_CONFIGS[model]


def _build_block(config: TransformerConfig, seed: int) -> EncoderBlock:
    """One synthetic encoder block at full configured width."""
    from repro.transformer.model_zoo import _layer_norm, _linear

    rng = np.random.default_rng(seed)
    h = config.hidden_size
    if config.disentangled_attention:
        relative_key = _linear(rng, h, h)
        relative_query = _linear(rng, h, h)
        relative_embedding = np.random.default_rng(seed + 1).normal(
            0.0, 0.02, size=(2 * min(64, config.max_position_embeddings), h)
        ).astype(np.float32)
    else:
        relative_key = relative_query = relative_embedding = None
    from repro.transformer.attention import MultiHeadSelfAttention
    from repro.transformer.layers import FeedForward

    attention = MultiHeadSelfAttention(
        query=_linear(rng, h, h),
        key=_linear(rng, h, h),
        value=_linear(rng, h, h),
        output=_linear(rng, h, h),
        num_heads=config.num_heads,
        relative_key=relative_key,
        relative_query=relative_query,
        relative_embedding=relative_embedding,
    )
    ffn = FeedForward(
        intermediate=_linear(rng, h, config.intermediate_size),
        output=_linear(rng, config.intermediate_size, h),
    )
    return EncoderBlock(
        attention=attention,
        attention_norm=_layer_norm(rng, h, config.layer_norm_eps),
        ffn=ffn,
        output_norm=_layer_norm(rng, h, config.layer_norm_eps),
    )


def execute_encoder_layer(
    model: Union[str, TransformerConfig] = "bert-base",
    sequence_length: int = 128,
    batch_size: int = 1,
    quantizer: Optional[MokeyQuantizer] = None,
    engine: str = "vectorized",
    seed: int = 0,
    device: Optional[str] = None,
    cache_weights: bool = False,
    gemm_batching: bool = False,
    executor: Optional[IndexDomainEncoderExecutor] = None,
) -> LayerMeasurement:
    """Execute one encoder layer end-to-end in the index domain.

    Builds a synthetic full-width encoder block (deterministic in
    ``seed``), feeds it normalised synthetic hidden states, runs every
    GEMM through the index-domain engine and returns the measured
    operation counts, timings and output error against the FP forward of
    the same block.

    Args:
        model: Model-zoo name (full-size configuration) or an explicit
            :class:`TransformerConfig` (e.g. a scaled one for tests).
        sequence_length: Tokens per input (the paper sweeps 128-512).
        batch_size: Inputs per pass.
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name (``"vectorized"``, ``"torch"``,
            ``"scalar"``).
        seed: Seed for the block weights and input activations.
        device: Optional device for backends that take one.
        cache_weights: Reuse weight encodings across forwards (see
            :class:`IndexDomainEncoderExecutor`).
        gemm_batching: Single batched BLAS calls for shape-matched GEMMs.
        executor: Reuse an existing executor (and its weight cache)
            instead of constructing one; the other engine options are
            then ignored.
    """
    config = _resolve_config(model)
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    block = _build_block(config, seed)
    rng = np.random.default_rng(seed + 2)
    hidden_states = rng.normal(
        0.0, 1.0, size=(batch_size, sequence_length, config.hidden_size)
    ).astype(np.float32)

    if executor is None:
        executor = IndexDomainEncoderExecutor(
            quantizer=quantizer,
            engine=engine,
            device=device,
            cache_weights=cache_weights,
            gemm_batching=gemm_batching,
        )
    plane_cache = get_plane_cache()
    cache_before = None if plane_cache is None else plane_cache.stats()
    started = time.perf_counter()
    output, gemms = executor.run_block(block, hidden_states, layer_key=seed)
    total_seconds = time.perf_counter() - started
    cache_delta = (
        None if cache_before is None else get_plane_cache().stats().minus(cache_before)
    )

    fp_output = block(hidden_states)
    fp_rms = float(np.sqrt(np.mean(np.square(fp_output)))) or 1.0
    rms_error = float(np.sqrt(np.mean(np.square(output - fp_output)))) / fp_rms

    stats = IndexComputeStats()
    for gemm in gemms:
        stats.merge(gemm.stats)
    return LayerMeasurement(
        model=config.name,
        sequence_length=sequence_length,
        batch_size=batch_size,
        gemms=gemms,
        stats=stats,
        quantize_seconds=sum(g.quantize_seconds for g in gemms),
        engine_seconds=sum(g.engine_seconds for g in gemms),
        total_seconds=total_seconds,
        output_rms_error=rms_error,
        plane_cache=cache_delta,
    )
