"""Full-model index-domain execution: encoder stacks and a KV-cache decoder.

:mod:`repro.transformer.index_execution` runs *one* encoder layer with
every GEMM in the index domain; this module scales that to whole models:

* :class:`IndexDomainModelExecutor` / :func:`execute_model` — an entire
  encoder stack (BERT-Base/Large depth) executes forward layer by layer,
  each layer's index-domain output feeding the next.  One shared
  :class:`~repro.transformer.index_execution.IndexDomainEncoderExecutor`
  carries the per-``(layer, gemm)`` weight cache, so every weight tensor
  is quantized exactly once per model, and shape-matched GEMMs inside a
  layer run as single batched BLAS calls.  The FP forward of the same
  blocks is the accuracy oracle at every depth.
* :class:`IndexKVCache` / :class:`MultiStreamDecoder` — a GPT-style
  decoder attention path.  The cache stores the *encoded* K/V rows:
  dictionaries are fit once at prefill and reused verbatim for every
  appended decode row, so the growing cache stays one valid
  :class:`~repro.core.quantizer.QuantizedTensor` per tensor and per-head
  slices share the dictionary (the index-domain engine requires both).
  Each decode step quantizes only the new query/probability rows and
  multiplies them against the cached encodings — the per-step work the
  accelerator would do.  There is one decode loop,
  :meth:`MultiStreamDecoder.run`, over one layer function for S streams
  in lockstep; :func:`execute_decoder` is stream 0 of a one-stream
  decoder, exact at S = 1.  A floating-point decoder with an FP KV
  cache, fed the identical synthetic inputs, is the correctness oracle.

Sequential layer dependencies mean a single forward can only batch
*independent* GEMMs into one BLAS call (per-head score/context products,
the Q/K/V projections over one shared input); the cross-layer wins come
from the weight cache and from :func:`repro.core.index_compute.
index_domain_matmul_many`, which callers with independent cross-layer
GEMM sets (multi-stream serving, replayed traces) can feed directly.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.index_compute import (
    IndexComputeStats,
    PlaneCacheStats,
    PlaneSet,
    get_plane_cache,
    use_plane_cache,
)
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary
from repro.transformer.config import TransformerConfig
from repro.transformer.encoder import EncoderBlock
from repro.transformer.functional import gelu, softmax
from repro.transformer.index_execution import (
    GemmMeasurement,
    IndexDomainEncoderExecutor,
    LayerMeasurement,
    _build_block,
    _resolve_config,
)

__all__ = [
    "GPT_DECODER_CONFIG",
    "ModelMeasurement",
    "DecodeMeasurement",
    "MultiStreamDecodeMeasurement",
    "IndexDomainModelExecutor",
    "IndexKVCache",
    "MultiStreamDecoder",
    "execute_model",
    "execute_decoder",
]

#: GPT-2-small-shaped decoder configuration for the KV-cache path.  Not
#: registered in the model zoo: the zoo enumerates the paper's Table I
#: encoder models and their goldens must stay unchanged.
GPT_DECODER_CONFIG = TransformerConfig(
    name="gpt2-small",
    num_layers=12,
    hidden_size=768,
    num_heads=12,
    intermediate_size=3072,
    vocab_size=50257,
    max_position_embeddings=1024,
)


@dataclass
class ModelMeasurement:
    """Measured index-domain execution of a whole encoder stack.

    Attributes:
        model: Configuration name the stack was built from.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        num_layers: Encoder layers executed.
        layers: Per-layer measurements, in depth order.  Each layer's
            ``output_rms_error`` is measured against the FP forward at
            the same depth, so quantization error *accumulated* across
            the stack is visible layer by layer.
        stats: Operation counts merged over every GEMM of every layer.
        quantize_seconds: Total operand fit/encode wall time.
        engine_seconds: Total index-domain compute wall time.
        total_seconds: End-to-end wall time of the model forward.
        output_rms_error: RMS error of the final hidden states against
            the FP forward, relative to the FP output RMS.
        weight_cache_hits: GEMMs served from the weight cache during
            this forward (0 on the first forward of a fresh executor,
            one per weight GEMM on every later forward).
        plane_cache: Decoded-operand counter delta over this forward
            (reuses, decodes and the live memoised bytes; see
            :class:`PlaneCacheStats`), ``None`` when caching is disabled.
    """

    model: str
    sequence_length: int
    batch_size: int
    num_layers: int
    layers: List[LayerMeasurement]
    stats: IndexComputeStats
    quantize_seconds: float
    engine_seconds: float
    total_seconds: float
    output_rms_error: float
    weight_cache_hits: int
    plane_cache: Optional[PlaneCacheStats] = None

    @property
    def measured_macs(self) -> int:
        """Total operand pairs processed across the stack."""
        return self.stats.total_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        return self.stats.outlier_pair_fraction


class IndexDomainModelExecutor:
    """Runs a whole synthetic encoder stack with index-domain GEMMs.

    Blocks are built once (deterministic in ``seed``) and the underlying
    layer executor is shared across forwards, so repeated calls — a
    campaign sweeping sequence lengths, a perf bench warming up — reuse
    every cached weight encoding.

    Args:
        model: Model-zoo name or an explicit :class:`TransformerConfig`.
        num_layers: Optional cap on the executed depth (``None`` runs
            the configured depth).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name (``"vectorized"``, ``"torch"``,
            ``"scalar"``).
        device: Optional device for backends that take one.
        seed: Seed for the per-layer block weights.
        cache_weights: Quantize each weight once per (layer, gemm) key
            (on by default at model scale).
        gemm_batching: Batch shape-matched GEMMs into single BLAS calls
            (on by default at model scale).
    """

    def __init__(
        self,
        model: Union[str, TransformerConfig] = "bert-base",
        num_layers: Optional[int] = None,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        seed: int = 0,
        cache_weights: bool = True,
        gemm_batching: bool = True,
    ) -> None:
        self.config = _resolve_config(model)
        depth = self.config.num_layers if num_layers is None else num_layers
        if depth < 1:
            raise ValueError(f"num_layers must be >= 1, got {depth}")
        self.num_layers = min(depth, self.config.num_layers)
        self.seed = seed
        # Spaced seeds: _build_block consumes seed and seed + 1 internally.
        self.blocks: List[EncoderBlock] = [
            _build_block(self.config, seed + 10 * layer)
            for layer in range(self.num_layers)
        ]
        self.executor = IndexDomainEncoderExecutor(
            quantizer=quantizer,
            engine=engine,
            device=device,
            cache_weights=cache_weights,
            gemm_batching=gemm_batching,
        )

    @property
    def quantizer(self) -> MokeyQuantizer:
        return self.executor.quantizer

    @property
    def weight_cache_hits(self) -> int:
        return self.executor.weight_cache_hits

    def forward(self, hidden_states: np.ndarray) -> ModelMeasurement:
        """Forward ``(batch, seq, hidden)`` states through the whole stack.

        Every GEMM of every layer runs in the index domain; each layer's
        index-domain output feeds the next layer.  The FP forward of the
        same blocks over the same input is evaluated alongside as the
        accuracy oracle at every depth.
        """
        batch, seq, _hidden = hidden_states.shape
        hits_before = self.executor.weight_cache_hits
        plane_cache = get_plane_cache()
        cache_before = None if plane_cache is None else plane_cache.stats()
        layers: List[LayerMeasurement] = []
        stats = IndexComputeStats()
        fp_states = hidden_states
        index_states = hidden_states
        started = time.perf_counter()
        fp_seconds = 0.0
        for layer, block in enumerate(self.blocks):
            layer_started = time.perf_counter()
            index_states, gemms = self.executor.run_block(
                block, index_states, layer_key=layer
            )
            layer_seconds = time.perf_counter() - layer_started

            # The FP oracle trace rides along (excluded from the timings).
            fp_started = time.perf_counter()
            fp_states = block(fp_states)
            fp_seconds += time.perf_counter() - fp_started

            fp_rms = float(np.sqrt(np.mean(np.square(fp_states)))) or 1.0
            rms_error = (
                float(np.sqrt(np.mean(np.square(index_states - fp_states)))) / fp_rms
            )
            layer_stats = IndexComputeStats()
            for gemm in gemms:
                layer_stats.merge(gemm.stats)
            stats.merge(layer_stats)
            layers.append(
                LayerMeasurement(
                    model=self.config.name,
                    sequence_length=seq,
                    batch_size=batch,
                    gemms=gemms,
                    stats=layer_stats,
                    quantize_seconds=sum(g.quantize_seconds for g in gemms),
                    engine_seconds=sum(g.engine_seconds for g in gemms),
                    total_seconds=layer_seconds,
                    output_rms_error=rms_error,
                )
            )
        total_seconds = time.perf_counter() - started - fp_seconds

        return ModelMeasurement(
            model=self.config.name,
            sequence_length=seq,
            batch_size=batch,
            num_layers=self.num_layers,
            layers=layers,
            stats=stats,
            quantize_seconds=sum(m.quantize_seconds for m in layers),
            engine_seconds=sum(m.engine_seconds for m in layers),
            total_seconds=total_seconds,
            output_rms_error=layers[-1].output_rms_error,
            weight_cache_hits=self.executor.weight_cache_hits - hits_before,
            plane_cache=(
                None
                if cache_before is None
                else get_plane_cache().stats().minus(cache_before)
            ),
        )


def execute_model(
    model: Union[str, TransformerConfig] = "bert-base",
    sequence_length: int = 128,
    batch_size: int = 1,
    num_layers: Optional[int] = None,
    quantizer: Optional[MokeyQuantizer] = None,
    engine: str = "vectorized",
    device: Optional[str] = None,
    seed: int = 0,
    cache_weights: bool = True,
    gemm_batching: bool = True,
    executor: Optional[IndexDomainModelExecutor] = None,
) -> ModelMeasurement:
    """Execute a whole encoder stack end-to-end in the index domain.

    Args:
        model: Model-zoo name (``"bert-base"``, ``"bert-large"``, ...)
            or an explicit :class:`TransformerConfig`.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        num_layers: Optional depth cap (tests and tiny benches).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name.
        device: Optional device for backends that take one.
        seed: Seed for the block weights and input activations.
        cache_weights / gemm_batching: See
            :class:`IndexDomainModelExecutor` (both on by default).
        executor: Reuse an existing model executor (and its weight
            cache); the other construction arguments are then ignored.
    """
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if executor is None:
        executor = IndexDomainModelExecutor(
            model=model,
            num_layers=num_layers,
            quantizer=quantizer,
            engine=engine,
            device=device,
            seed=seed,
            cache_weights=cache_weights,
            gemm_batching=gemm_batching,
        )
    rng = np.random.default_rng(executor.seed + 7919)
    hidden_states = rng.normal(
        0.0, 1.0, size=(batch_size, sequence_length, executor.config.hidden_size)
    ).astype(np.float32)
    return executor.forward(hidden_states)


# --------------------------------------------------------------------------- #
# GPT-style decoder attention with an index-domain KV cache
# --------------------------------------------------------------------------- #
def _slice_quantized(
    tensor: QuantizedTensor, columns: slice, transpose: bool = False
) -> QuantizedTensor:
    """Column slice of a 2-D quantized tensor, sharing its dictionary.

    The encoding is elementwise, so any slice (and its transpose) of the
    encoded fields is itself a valid encoding under the same dictionary —
    this is what lets every attention head read its ``head_dim`` columns
    of the cached K/V without re-quantizing.
    """
    def pick(array: np.ndarray) -> np.ndarray:
        matrix = array.reshape(tensor.shape)[:, columns]
        return matrix.T if transpose else matrix

    encoded = EncodedValues(
        is_outlier=pick(tensor.encoded.is_outlier),
        sign=pick(tensor.encoded.sign),
        gaussian_index=pick(tensor.encoded.gaussian_index),
        outlier_index=pick(tensor.encoded.outlier_index),
    )
    return QuantizedTensor(
        name=f"{tensor.name}[{columns.start}:{columns.stop}]",
        shape=encoded.is_outlier.shape,
        encoded=encoded,
        dictionary=tensor.dictionary,
    )


def _concat_quantized(old: QuantizedTensor, new: QuantizedTensor) -> QuantizedTensor:
    """Append ``new`` rows to ``old`` (same dictionary, same width)."""
    if old.dictionary is not new.dictionary:
        raise ValueError("can only concatenate encodings that share a dictionary")

    def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([a.reshape(old.shape), b.reshape(new.shape)], axis=0)

    encoded = EncodedValues(
        is_outlier=join(old.encoded.is_outlier, new.encoded.is_outlier),
        sign=join(old.encoded.sign, new.encoded.sign),
        gaussian_index=join(old.encoded.gaussian_index, new.encoded.gaussian_index),
        outlier_index=join(old.encoded.outlier_index, new.encoded.outlier_index),
    )
    return QuantizedTensor(
        name=old.name,
        shape=(old.shape[0] + new.shape[0], old.shape[1]),
        encoded=encoded,
        dictionary=old.dictionary,
    )


class _PlaneSlab:
    """Incrementally grown decoded rows for one cached K/V tensor.

    Decoding is elementwise, so appending the decode of the new encoded
    rows to a grown buffer produces *bit-identical* arrays to decoding
    the full encoding — that is the whole correctness argument, and the
    property tests lock it.  Buffers double in capacity (amortised O(1)
    per appended row) and hold the decoded centroids and the outlier mask
    of every cached row; a per-head plane set is a column slice of the
    decoded rows, with its ``gauss_per_k`` counted from the mask slice.
    """

    def __init__(self, dictionary: TensorDictionary, width: int) -> None:
        fit = dictionary.golden.fit
        self.fit_key = (float(fit.a), float(fit.b), int(fit.num_entries))
        self._dictionary = dictionary
        self._width = int(width)
        self._rows = 0
        self._dec = np.empty((16, self._width), dtype=np.float64)
        self._out = np.empty((16, self._width), dtype=bool)

    def _ensure(self, rows: int) -> None:
        capacity = self._dec.shape[0]
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        for name in ("_dec", "_out"):
            old = getattr(self, name)
            grown = np.empty((capacity, self._width), dtype=old.dtype)
            grown[: self._rows] = old[: self._rows]
            setattr(self, name, grown)

    def extend(self, tensor: QuantizedTensor) -> None:
        """Append decoded rows for ``tensor``'s rows beyond those already held."""
        total = int(tensor.shape[0])
        start = self._rows
        if total < start:
            raise ValueError(
                f"cached tensor shrank from {start} to {total} rows; plane "
                "slabs only grow"
            )
        if total == start:
            return
        self._ensure(total)
        enc = tensor.encoded

        def tail(array: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(array.reshape(tensor.shape)[start:total])

        new = EncodedValues(
            is_outlier=tail(enc.is_outlier),
            sign=tail(enc.sign),
            gaussian_index=tail(enc.gaussian_index),
            outlier_index=tail(enc.outlier_index),
        )
        self._out[start:total] = new.is_outlier
        self._dec[start:total] = self._dictionary.decode(new, apply_fixed_point=False)
        self._rows = total

    def plane_set(self, columns: slice, transpose: bool = False) -> PlaneSet:
        """A weight-role :class:`PlaneSet` over ``columns`` of every row.

        The plane set copies the decoded slice into a contiguous array
        (transposed for the K side): the GEMM then consumes an array
        byte-identical to the full-rebuild path's, so cached and uncached
        runs make the same BLAS calls.
        """
        rows = self._rows

        def pick(buffer: np.ndarray) -> np.ndarray:
            matrix = buffer[:rows, columns]
            return matrix.T if transpose else matrix

        return PlaneSet(
            dec=pick(self._dec), out=pick(self._out), role="rhs", fit_key=self.fit_key
        )


class IndexKVCache:
    """Per-layer cache of *encoded* key/value rows for decoder attention.

    Dictionaries are fit once per layer at :meth:`prefill` and reused
    verbatim by every :meth:`append`, so the growing cache remains one
    valid :class:`QuantizedTensor` per tensor: the index-domain engine
    requires a single dictionary per operand, and per-head column slices
    (:func:`_slice_quantized`) inherit it for free.  Appending therefore
    encodes only the new rows — the per-token cache cost the hardware
    would pay.

    With ``incremental_planes`` (the default) the cache also maintains a
    :class:`_PlaneSlab` per tensor: each append decodes the *new rows*
    once, and :meth:`head_tensors` hands the engine per-head plane sets
    sliced from the slab — so a decode step never decodes the whole
    cached history again.  Bit identical to the rebuild path by
    construction (elementwise decoding commutes with slicing and
    concatenation).
    """

    def __init__(
        self, quantizer: MokeyQuantizer, incremental_planes: bool = True
    ) -> None:
        self.quantizer = quantizer
        self.incremental_planes = bool(incremental_planes)
        self._keys: Dict[Hashable, QuantizedTensor] = {}
        self._values: Dict[Hashable, QuantizedTensor] = {}
        self._slabs: Dict[Tuple[Hashable, str], _PlaneSlab] = {}

    def __contains__(self, layer: Hashable) -> bool:
        return layer in self._keys

    def cached_tokens(self, layer: Hashable) -> int:
        """Rows currently cached for ``layer`` (0 before prefill)."""
        tensor = self._keys.get(layer)
        return 0 if tensor is None else tensor.shape[0]

    def _extend_slabs(self, layer: Hashable) -> None:
        if not self.incremental_planes:
            return
        for kind, tensor in (
            ("key", self._keys[layer]),
            ("value", self._values[layer]),
        ):
            slab = self._slabs.get((layer, kind))
            if slab is None:
                slab = _PlaneSlab(tensor.dictionary, tensor.shape[1])
                self._slabs[(layer, kind)] = slab
            slab.extend(tensor)

    def prefill(self, layer: Hashable, keys: np.ndarray, values: np.ndarray) -> None:
        """Quantize the prompt's K/V rows, fitting the layer dictionaries."""
        if layer in self._keys:
            raise ValueError(f"layer {layer!r} is already prefilled")
        self._keys[layer] = self.quantizer.quantize(
            np.asarray(keys, dtype=np.float64), f"kv.{layer}.key"
        )
        self._values[layer] = self.quantizer.quantize(
            np.asarray(values, dtype=np.float64), f"kv.{layer}.value"
        )
        self._extend_slabs(layer)

    def append(self, layer: Hashable, keys: np.ndarray, values: np.ndarray) -> None:
        """Encode new K/V rows with the prefill dictionaries and append."""
        if layer not in self._keys:
            raise ValueError(f"layer {layer!r} must be prefilled before appending")
        key_tensor, value_tensor = self._keys[layer], self._values[layer]
        new_keys = self.quantizer.quantize(
            np.asarray(keys, dtype=np.float64),
            key_tensor.name,
            dictionary=key_tensor.dictionary,
        )
        new_values = self.quantizer.quantize(
            np.asarray(values, dtype=np.float64),
            value_tensor.name,
            dictionary=value_tensor.dictionary,
        )
        self._keys[layer] = _concat_quantized(key_tensor, new_keys)
        self._values[layer] = _concat_quantized(value_tensor, new_values)
        self._extend_slabs(layer)

    def tensors(self, layer: Hashable) -> Tuple[QuantizedTensor, QuantizedTensor]:
        """The cached ``(keys, values)`` quantized ``(tokens, hidden)`` tensors."""
        return self._keys[layer], self._values[layer]

    def head_tensors(
        self, layer: Hashable, columns: slice
    ) -> Tuple[QuantizedTensor, QuantizedTensor]:
        """One head's ``(keyᵀ, value)`` slices, planes attached when slabbed.

        The key slice arrives transposed (``(head_dim, tokens)``), ready
        to be the score GEMM's right operand; the value slice is
        ``(tokens, head_dim)`` for the context GEMM.  When incremental
        planes are on, both carry their slab-sliced decoded plane sets,
        which the engine picks up instead of decoding again.
        """
        key_slice = _slice_quantized(self._keys[layer], columns, transpose=True)
        value_slice = _slice_quantized(self._values[layer], columns)
        if self.incremental_planes:
            key_slice._plane_sets["rhs"] = self._slabs[(layer, "key")].plane_set(
                columns, transpose=True
            )
            value_slice._plane_sets["rhs"] = self._slabs[(layer, "value")].plane_set(columns)
        return key_slice, value_slice


@dataclass
class DecodeMeasurement:
    """Measured index-domain decoder run (prefill + autoregressive steps).

    Attributes:
        model: Configuration name the decoder was built from.
        prompt_length: Prompt tokens processed at prefill.
        decode_tokens: Autoregressive steps executed.
        num_layers: Decoder layers executed.
        gemms: Per-GEMM measurements merged over prefill and all steps.
        stats: Operation counts merged over every GEMM.
        prefill_seconds: Wall time of the prompt pass (index path only).
        decode_seconds: Wall time of all decode steps (index path only).
        tokens_per_second: Decode throughput (``decode_tokens`` over
            ``decode_seconds``).
        output_rms_error: RMS error of the index-domain hidden states
            (prefill plus every decoded position, final layer) against
            the FP decoder with an FP KV cache, relative to the FP RMS.
        cached_tokens: K/V rows held per layer after the run.
        outputs: Final-layer index-domain hidden states, prefill rows
            first then one row per decode step — what the bit-identity
            property tests compare across cached/uncached runs.
        plane_cache: Decoded-operand counter delta over the run (see
            :class:`PlaneCacheStats`), ``None`` when caching was disabled.
    """

    model: str
    prompt_length: int
    decode_tokens: int
    num_layers: int
    gemms: List[GemmMeasurement] = field(default_factory=list)
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    tokens_per_second: float = 0.0
    output_rms_error: float = 0.0
    cached_tokens: int = 0
    outputs: Optional[np.ndarray] = None
    plane_cache: Optional[PlaneCacheStats] = None

    @property
    def measured_macs(self) -> int:
        return self.stats.total_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        return self.stats.outlier_pair_fraction


def _decoder_layer(
    executor: IndexDomainEncoderExecutor,
    measurements: Dict[str, GemmMeasurement],
    cache: IndexKVCache,
    layer: int,
    block: EncoderBlock,
    rows: List[np.ndarray],
    causal: bool,
) -> List[np.ndarray]:
    """One decoder layer for every stream; ``rows[s]`` are stream ``s``'s rows.

    ``causal=True`` is the prefill pass (each stream's whole prompt, upper
    triangle masked, K/V dictionaries fit); ``causal=False`` is a decode
    step (one new row per stream, appended to and attending to that
    stream's cache).  K/V rows are cached under ``(stream, layer)``;
    weights are keyed by ``layer`` alone, so streams share their
    encodings.  Each stream's Q/K/V input is quantized once, the per-head
    score and context GEMMs of all streams form one ``S x heads`` batch,
    and every projection is one shared-weight group across streams.
    """
    attn = block.attention
    heads, head_dim = attn.num_heads, attn.head_dim
    head_slices = [slice(h * head_dim, (h + 1) * head_dim) for h in range(heads)]

    def project(name: str, linear, inputs: List[np.ndarray]) -> List[np.ndarray]:
        outputs = executor._projection_group(
            measurements, [(name, linear)], inputs, layer
        )
        return [out for out, in outputs]

    qkv = executor._projection_group(
        measurements,
        [
            ("attention.query", attn.query),
            ("attention.key", attn.key),
            ("attention.value", attn.value),
        ],
        rows,
        layer,
    )
    head_kv = []
    for stream, (_q, k, v) in enumerate(qkv):
        (cache.prefill if causal else cache.append)((stream, layer), k, v)
        head_kv.append([cache.head_tensors((stream, layer), s) for s in head_slices])

    score_rows = executor._gemm_many_encoded(
        measurements,
        "attention.scores",
        [
            (q[:, s], kv[h][0])
            for (q, _k, _v), kv in zip(qkv, head_kv)
            for h, s in enumerate(head_slices)
        ],
    )
    probs = []
    for stream in range(len(rows)):
        stream_rows = score_rows[stream * heads : (stream + 1) * heads]
        scores = np.stack(stream_rows) / np.sqrt(head_dim)  # (heads, tokens, total)
        if causal:
            # Row i of the prefill may attend to cached positions 0..i only.
            tokens, total = scores.shape[1:]
            mask = np.triu(np.ones((tokens, total), dtype=bool), k=total - tokens + 1)
            scores = np.where(mask[None, :, :], -1e9, scores)
        probs.append(softmax(scores, axis=-1))

    context_rows = executor._gemm_many_encoded(
        measurements,
        "attention.context",
        [(p[h], kv[h][1]) for p, kv in zip(probs, head_kv) for h in range(heads)],
    )
    merged = [
        np.concatenate(context_rows[stream * heads : (stream + 1) * heads], axis=1)
        for stream in range(len(rows))
    ]

    attn_out = project("attention.output", attn.output, merged)
    hidden = [
        block.attention_norm((x + a).astype(np.float32)[None])[0]
        for x, a in zip(rows, attn_out)
    ]
    inter = [gelu(x) for x in project("ffn.intermediate", block.ffn.intermediate, hidden)]
    ffn_out = project("ffn.output", block.ffn.output, inter)
    return [
        block.output_norm((x + f).astype(np.float32)[None])[0]
        for x, f in zip(hidden, ffn_out)
    ]


def _decoder_layer_fp(
    block: EncoderBlock,
    fp_cache: Dict[Hashable, Tuple[np.ndarray, np.ndarray]],
    layer: Hashable,
    hidden2d: np.ndarray,
    causal: bool,
) -> np.ndarray:
    """The FP oracle: identical dataflow with float matmuls and an FP cache."""
    attn = block.attention
    tokens, hidden = hidden2d.shape
    heads, head_dim = attn.num_heads, attn.head_dim

    q = hidden2d @ attn.query.weight + attn.query.bias
    k = hidden2d @ attn.key.weight + attn.key.bias
    v = hidden2d @ attn.value.weight + attn.value.bias
    if causal:
        fp_cache[layer] = (k, v)
    else:
        old_k, old_v = fp_cache[layer]
        fp_cache[layer] = (np.concatenate([old_k, k]), np.concatenate([old_v, v]))
    all_k, all_v = fp_cache[layer]
    total = all_k.shape[0]

    contexts = []
    for h in range(heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        scores = (q[:, cols] @ all_k[:, cols].T) / np.sqrt(head_dim)
        if causal:
            mask = np.triu(np.ones((tokens, total), dtype=bool), k=total - tokens + 1)
            scores = np.where(mask, -1e9, scores)
        contexts.append(softmax(scores, axis=-1) @ all_v[:, cols])
    merged = np.concatenate(contexts, axis=1)

    attn_out = merged @ attn.output.weight + attn.output.bias
    hidden2d = block.attention_norm((hidden2d + attn_out).astype(np.float32)[None])[0]
    inter = gelu(hidden2d @ block.ffn.intermediate.weight + block.ffn.intermediate.bias)
    ffn_out = inter @ block.ffn.output.weight + block.ffn.output.bias
    return block.output_norm((hidden2d + ffn_out).astype(np.float32)[None])[0]


# --------------------------------------------------------------------------- #
# The decode loop: S streams in lockstep (execute_decoder is S = 1)
# --------------------------------------------------------------------------- #
@dataclass
class MultiStreamDecodeMeasurement:
    """Measured lockstep decode of several concurrent serving streams.

    Attributes:
        model: Configuration name the decoder was built from.
        num_streams: Concurrent streams decoded in lockstep.
        prompt_length: Prompt tokens per stream at prefill.
        decode_tokens: Autoregressive steps executed per stream.
        num_layers: Decoder layers executed.
        gemms: Per-GEMM measurements merged over prefill and all steps.
        stats: Operation counts merged over every GEMM.
        prefill_seconds: Wall time of the prefill pass.
        decode_seconds: Wall time of the lockstep decode steps.
        tokens_per_second: Aggregate decode throughput
            (``num_streams * decode_tokens / decode_seconds``).
        per_stream_tokens_per_second: Decode throughput of one stream.
        output_rms_error: Worst per-stream RMS error against each
            stream's FP oracle.
        outputs: Per-stream final-layer hidden states (prefill rows
            first, then one row per step).
        plane_cache: Decoded-operand counter delta over the run (see
            :class:`PlaneCacheStats`), ``None`` when caching was disabled.
    """

    model: str
    num_streams: int
    prompt_length: int
    decode_tokens: int
    num_layers: int
    gemms: List[GemmMeasurement] = field(default_factory=list)
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    tokens_per_second: float = 0.0
    per_stream_tokens_per_second: float = 0.0
    output_rms_error: float = 0.0
    outputs: Optional[List[np.ndarray]] = None
    plane_cache: Optional[PlaneCacheStats] = None


class MultiStreamDecoder:
    """Decodes several independent streams through one shared model.

    This is the decoder's only prefill/decode loop; :func:`execute_decoder`
    is stream 0 of a one-stream instance.  All streams share the blocks
    and the executor (weight encodings and decoded weights are built
    once, keyed by layer index alone).  Every :meth:`run` starts a fresh
    :class:`IndexKVCache` keyed ``(stream, layer)`` (kept as
    :attr:`cache` afterwards), prefills every stream in one pass and then
    decodes in *lockstep*: at each step every stream contributes one input
    row, and each GEMM family of a layer is issued as one
    ``index_domain_matmul_many`` call across streams (see
    :func:`_decoder_layer`) — the projections share their weight tensor,
    so S streams collapse to one row-concatenated BLAS call; the per-head
    score/context GEMMs batch as ``S x heads`` same-shape products.

    Stream ``s`` consumes the inputs of ``default_rng(seed + 7919 +
    104729 * s)``.  With one stream the GEMM grouping is the solo
    decoder's, so outputs are exact; with more streams stream 0 agrees
    with the one-stream run to floating-point round-off (shared weights
    turn its projections into row-concatenated GEMMs), and the integer
    statistics of every stream are identical.
    """

    def __init__(
        self,
        model: Union[str, TransformerConfig] = GPT_DECODER_CONFIG,
        num_streams: int = 4,
        num_layers: Optional[int] = None,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        seed: int = 0,
        gemm_batching: bool = True,
        plane_caching: bool = True,
    ) -> None:
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.config = _resolve_config(model)
        depth = self.config.num_layers if num_layers is None else num_layers
        depth = min(depth, self.config.num_layers)
        if depth < 1:
            raise ValueError(f"num_layers must be >= 1, got {depth}")
        self.num_layers = depth
        self.num_streams = int(num_streams)
        self.seed = seed
        self.plane_caching = bool(plane_caching)
        self.blocks = [
            _build_block(self.config, seed + 10 * layer) for layer in range(depth)
        ]
        self.executor = IndexDomainEncoderExecutor(
            quantizer=quantizer,
            engine=engine,
            device=device,
            cache_weights=True,
            gemm_batching=gemm_batching,
        )
        self.cache: Optional[IndexKVCache] = None

    def _fp_outputs(self, inputs: List[np.ndarray]) -> np.ndarray:
        """One stream's FP oracle: the prompt causally, then each step row."""
        fp_cache: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        outputs = []
        for position, states in enumerate(inputs):
            for layer, block in enumerate(self.blocks):
                states = _decoder_layer_fp(
                    block, fp_cache, layer, states, causal=position == 0
                )
            outputs.append(states)
        return np.concatenate(outputs, axis=0)

    def run(
        self, prompt_length: int = 16, decode_tokens: int = 8
    ) -> MultiStreamDecodeMeasurement:
        """Prefill every stream, then decode all of them in lockstep.

        The index-domain path and each stream's FP oracle (float matmuls,
        FP KV cache) consume identical synthetic inputs, so
        ``output_rms_error`` isolates the quantization error of the cached
        attention path.  Only the index-domain path is timed.
        """
        if prompt_length < 1:
            raise ValueError(f"prompt_length must be >= 1, got {prompt_length}")
        if decode_tokens < 0:
            raise ValueError(f"decode_tokens must be >= 0, got {decode_tokens}")
        hidden = self.config.hidden_size
        inputs: List[List[np.ndarray]] = []
        for stream in range(self.num_streams):
            rng = np.random.default_rng(self.seed + 7919 + 104729 * stream)
            inputs.append(
                [rng.normal(0.0, 1.0, size=(prompt_length, hidden)).astype(np.float32)]
                + [
                    rng.normal(0.0, 1.0, size=(1, hidden)).astype(np.float32)
                    for _step in range(decode_tokens)
                ]
            )
        self.cache = cache = IndexKVCache(
            self.executor.quantizer, incremental_planes=self.plane_caching
        )
        measurements: Dict[str, GemmMeasurement] = {}
        index_outputs: List[List[np.ndarray]] = [[] for _ in inputs]
        seconds: List[float] = []

        scope = (
            contextlib.nullcontext() if self.plane_caching else use_plane_cache(None)
        )
        with scope:
            plane_cache = get_plane_cache()
            cache_before = None if plane_cache is None else plane_cache.stats()
            # Position 0 is the prefill pass; every later one a decode step.
            for position in range(decode_tokens + 1):
                started = time.perf_counter()
                rows = [stream[position] for stream in inputs]
                for layer, block in enumerate(self.blocks):
                    rows = _decoder_layer(
                        self.executor, measurements, cache, layer, block, rows,
                        causal=position == 0,
                    )
                seconds.append(time.perf_counter() - started)
                for outputs, row in zip(index_outputs, rows):
                    outputs.append(row)
            cache_delta = (
                None
                if cache_before is None
                else get_plane_cache().stats().minus(cache_before)
            )

        outputs = [np.concatenate(rows, axis=0) for rows in index_outputs]
        worst_rms = 0.0
        for index_all, stream_inputs in zip(outputs, inputs):
            fp_all = self._fp_outputs(stream_inputs)
            fp_rms = float(np.sqrt(np.mean(np.square(fp_all)))) or 1.0
            rms = float(np.sqrt(np.mean(np.square(index_all - fp_all)))) / fp_rms
            worst_rms = max(worst_rms, rms)

        gemms = list(measurements.values())
        stats = IndexComputeStats()
        for gemm in gemms:
            stats.merge(gemm.stats)
        decode_seconds = sum(seconds[1:])
        return MultiStreamDecodeMeasurement(
            model=self.config.name,
            num_streams=self.num_streams,
            prompt_length=prompt_length,
            decode_tokens=decode_tokens,
            num_layers=self.num_layers,
            gemms=gemms,
            stats=stats,
            prefill_seconds=seconds[0],
            decode_seconds=decode_seconds,
            tokens_per_second=(
                self.num_streams * decode_tokens / decode_seconds
                if decode_seconds
                else 0.0
            ),
            per_stream_tokens_per_second=(
                decode_tokens / decode_seconds if decode_seconds else 0.0
            ),
            output_rms_error=worst_rms,
            outputs=outputs,
            plane_cache=cache_delta,
        )


def execute_decoder(
    model: Union[str, TransformerConfig] = GPT_DECODER_CONFIG,
    prompt_length: int = 16,
    decode_tokens: int = 8,
    num_layers: Optional[int] = None,
    quantizer: Optional[MokeyQuantizer] = None,
    engine: str = "vectorized",
    device: Optional[str] = None,
    seed: int = 0,
    gemm_batching: bool = True,
    plane_caching: bool = True,
) -> DecodeMeasurement:
    """Run a GPT-style decoder with an index-domain KV cache.

    Stream 0 of a one-stream :class:`MultiStreamDecoder` (exact: at one
    stream its GEMM grouping is the solo decoder's).  Prefill processes
    the whole synthetic prompt causally (every GEMM in the index domain,
    K/V dictionaries fit once per layer), then each of ``decode_tokens``
    autoregressive steps quantizes one new input row per layer, appends
    its K/V rows to the encoded cache and attends against the full cache.
    The FP oracle with an FP KV cache consumes identical inputs.

    Args:
        model: Decoder configuration (defaults to a GPT-2-small shape)
            or a model-zoo name.
        prompt_length: Prompt tokens processed at prefill.
        decode_tokens: Autoregressive steps to execute.
        num_layers: Optional depth cap (tests and tiny benches).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name.
        device: Optional device for backends that take one.
        seed: Seed for the block weights and the synthetic inputs.
        gemm_batching: Batch per-head GEMMs into single BLAS calls.
        plane_caching: Memoise each decoded operand on its tensor (a
            weight decodes once per session) and grow the decoded KV
            slabs incrementally (the hot path).  ``False`` runs the
            uncached oracle — bit-identical outputs and stats, every
            operand decoded again at every GEMM.
    """
    decoder = MultiStreamDecoder(
        model,
        num_streams=1,
        num_layers=num_layers,
        quantizer=quantizer,
        engine=engine,
        device=device,
        seed=seed,
        gemm_batching=gemm_batching,
        plane_caching=plane_caching,
    )
    run = decoder.run(prompt_length, decode_tokens)
    return DecodeMeasurement(
        model=run.model,
        prompt_length=prompt_length,
        decode_tokens=decode_tokens,
        num_layers=run.num_layers,
        gemms=run.gemms,
        stats=run.stats,
        prefill_seconds=run.prefill_seconds,
        decode_seconds=run.decode_seconds,
        tokens_per_second=run.tokens_per_second,
        output_rms_error=run.output_rms_error,
        cached_tokens=decoder.cache.cached_tokens((0, 0)),
        outputs=run.outputs[0],
        plane_cache=run.plane_cache,
    )
