"""The two index-domain workloads: ``encoder-serve`` and ``decoder-cold``.

``encoder-serve`` builds one BERT-Base-shaped encoder stack once, warms
its weight cache with one forward during set-up, then serves distinct
seeded ``(1, 128, 768)`` inputs: the weights are fully shared, so each
request pays activation fits and index-domain GEMMs.

``decoder-cold`` runs one GPT-2-small-shaped decoder session per request,
each with its own seed and so its own weights: the cold path of a Mokey
user quantizing an unseen model.  Sessions share only the quantizer (and
its Golden Dictionary, built during set-up).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core import golden_dictionary
from repro.core.index_compute import get_plane_cache, use_plane_cache
from repro.core.quantizer import MokeyQuantizer
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import (
    GPT_DECODER_CONFIG,
    IndexDomainModelExecutor,
    execute_decoder,
)
from repro.transformer.model_zoo import MODEL_CONFIGS

#: RMS error of the final hidden states against the FP oracle, relative to
#: the FP RMS.  Measured 0.13 (encoder, one layer) and 0.10 (decoder); the
#: bounds leave room for seed-to-seed variation, not for a broken path.
ENCODER_RMS_BOUND = 0.3
DECODER_RMS_BOUND = 0.25

_SMOKE_CONFIG = TransformerConfig(
    name="smoke", num_layers=1, hidden_size=64, num_heads=4,
    intermediate_size=128, vocab_size=128, max_position_embeddings=64,
)


def _quantizer(smoke: bool) -> MokeyQuantizer:
    if smoke:
        golden = golden_dictionary.generate_golden_dictionary(num_samples=2000)
        return MokeyQuantizer(golden=golden)
    return MokeyQuantizer()


def _rate(done: List[Tuple[int, float]]) -> float:
    return sum(units for units, _ in done) / sum(seconds for _, seconds in done)


def _stats_tuple(stats: Any) -> Tuple[int, ...]:
    return (stats.gaussian_pairs, stats.outlier_pairs, stats.index_additions,
            stats.counter_updates, stats.post_processing_macs)


class _IndexWorkload:
    """What both index-domain workloads share: counters and the stamp."""

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng([seed, self.SEED_SALT])
        self.first: Any = None
        #: (throughput units, seconds) of every successful request.
        self.done: List[Tuple[int, float]] = []

    def counters(self) -> Dict[str, float]:
        cache = get_plane_cache()
        stats = cache.stats()
        return {
            "plane_cache.hits": stats.hits,
            "plane_cache.misses": stats.misses,
            "plane_cache.evictions": stats.evictions,
            "plane_cache.bytes": stats.bytes_cached,
            "fit_memo.hits": self.quantizer.fit_memo_hits,
            "fit_memo.misses": self.quantizer.fit_memo_misses,
        }

    def record(self, kind: str, request: Any, response: Any, elapsed: float) -> None:
        if self.first is None:
            self.first = (request, response)
        self.done.append((self.units(request), elapsed))

    def throughput(self) -> float:
        return _rate(self.done)

    def environment(self) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        """Leave the process as cold as a fresh one for the next set-up."""
        get_plane_cache().clear()


class EncoderServe(_IndexWorkload):
    PRIMARY = "forward"
    SEED_SALT = 11
    #: Encoder layers executed per forward (BERT-Base has 12).
    DEPTH = 1
    SEQUENCE = 128

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.config = _SMOKE_CONFIG if smoke else MODEL_CONFIGS["bert-base"]
        self.sequence = 16 if smoke else self.SEQUENCE
        self.weight_seed = int(self.rng.integers(1 << 30))
        self.model = None

    def setup(self) -> None:
        self.model = None
        self.quantizer = _quantizer(self.smoke)
        model = IndexDomainModelExecutor(
            self.config, num_layers=self.DEPTH, quantizer=self.quantizer,
            seed=self.weight_seed,
        )
        model.forward(self._input(np.random.default_rng([self.seed, 0])))
        self.model = model

    def _input(self, rng: np.random.Generator) -> np.ndarray:
        shape = (1, self.sequence, self.config.hidden_size)
        return rng.normal(0.0, 1.0, size=shape).astype(np.float32)

    def next_request(self, index: int) -> Tuple[str, Any]:
        return "forward", self._input(self.rng)

    def execute(self, kind: str, request: Any) -> Any:
        return self.model.forward(request)

    def _analytic_pairs(self, measurement: Any) -> int:
        return sum(g.count * g.m * g.k * g.n for layer in measurement.layers
                   for g in layer.gemms)

    def check(self, kind: str, request: Any, response: Any) -> List[str]:
        problems = []
        analytic = self._analytic_pairs(response)
        if response.stats.total_pairs != analytic:
            problems.append(f"total_pairs {response.stats.total_pairs} != analytic {analytic}")
        if not response.output_rms_error <= ENCODER_RMS_BOUND:
            problems.append(f"output_rms_error {response.output_rms_error} > {ENCODER_RMS_BOUND}")
        if response.weight_cache_hits != 6 * self.DEPTH:
            problems.append(f"weight_cache_hits {response.weight_cache_hits} != {6 * self.DEPTH}")
        return problems

    def program_counts(self, kind: str, response: Any) -> Dict[str, float]:
        return {
            "engine_pairs": response.stats.total_pairs,
            "weight_cache_hits": response.weight_cache_hits,
        }

    def _forward_outputs(self, request: np.ndarray) -> Tuple[Any, np.ndarray]:
        """Forward ``request``, also capturing the last layer's output."""
        executor = self.model.executor
        run_block = executor.run_block
        outputs = []

        def capture(*args: Any, **kwargs: Any) -> Any:
            states, gemms = run_block(*args, **kwargs)
            outputs.append(states)
            return states, gemms

        executor.run_block = capture
        try:
            measurement = self.model.forward(request)
        finally:
            del executor.run_block
        return measurement, outputs[-1]

    def final_checks(self) -> List[str]:
        """The first request again, planes cached and uncached: same bits."""
        request, original = self.first
        cached, cached_out = self._forward_outputs(request)
        with use_plane_cache(None):
            uncached, uncached_out = self._forward_outputs(request)
        problems = []
        if not np.array_equal(cached_out, uncached_out):
            problems.append("uncached forward outputs differ from the cached forward")
        for label, rerun in (("cached", cached), ("uncached", uncached)):
            if _stats_tuple(rerun.stats) != _stats_tuple(original.stats):
                problems.append(f"{label} re-run stats differ from the original request")
            rms = [layer.output_rms_error for layer in rerun.layers]
            if rms != [layer.output_rms_error for layer in original.layers]:
                problems.append(f"{label} re-run rms errors differ from the original request")
        return problems

    def units(self, request: Any) -> int:
        """Throughput counts input tokens."""
        return self.sequence


class DecoderCold(_IndexWorkload):
    PRIMARY = "session"
    SEED_SALT = 12
    DEPTH = 1
    PROMPT = 16
    #: Decode lengths of one block of sessions, shuffled per block by the
    #: seed: a run of a few sessions still sees the same mix of lengths.
    DECODE_TOKENS = (16, 24, 32)

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.config = _SMOKE_CONFIG if smoke else GPT_DECODER_CONFIG
        self.prompt = 4 if smoke else self.PROMPT
        self.decode_tokens = (2, 3, 4) if smoke else self.DECODE_TOKENS
        self.block: List[int] = []

    def setup(self) -> None:
        self.quantizer = _quantizer(self.smoke)

    def next_request(self, index: int) -> Tuple[str, Any]:
        if not self.block:
            self.block = [int(n) for n in self.rng.permutation(self.decode_tokens)]
        return "session", {
            "seed": int(self.rng.integers(1 << 30)),
            "decode_tokens": self.block.pop(),
        }

    def execute(self, kind: str, request: Any, plane_caching: bool = True) -> Any:
        return execute_decoder(
            self.config, prompt_length=self.prompt,
            decode_tokens=request["decode_tokens"], num_layers=self.DEPTH,
            quantizer=self.quantizer, seed=request["seed"],
            plane_caching=plane_caching,
        )

    def _analytic_pairs(self, decode_tokens: int) -> int:
        """Σ m·k·n over every GEMM of prefill and each decode step."""
        hidden, inner = self.config.hidden_size, self.config.intermediate_size
        heads = self.config.num_heads
        head_dim = hidden // heads

        def layer(rows: int, cached: int) -> int:
            projections = 4 * rows * hidden * hidden + 2 * rows * hidden * inner
            return projections + 2 * heads * rows * head_dim * cached

        steps = sum(layer(1, self.prompt + step + 1) for step in range(decode_tokens))
        return self.DEPTH * (layer(self.prompt, self.prompt) + steps)

    def check(self, kind: str, request: Any, response: Any) -> List[str]:
        problems = []
        analytic = self._analytic_pairs(request["decode_tokens"])
        if response.stats.total_pairs != analytic:
            problems.append(f"total_pairs {response.stats.total_pairs} != analytic {analytic}")
        if not response.output_rms_error <= DECODER_RMS_BOUND:
            problems.append(f"output_rms_error {response.output_rms_error} > {DECODER_RMS_BOUND}")
        shape = (self.prompt + request["decode_tokens"], self.config.hidden_size)
        if response.outputs.shape != shape:
            problems.append(f"outputs shape {response.outputs.shape} != {shape}")
        return problems

    def program_counts(self, kind: str, response: Any) -> Dict[str, float]:
        return {
            "engine_pairs": response.stats.total_pairs,
            "prefill_s": response.prefill_seconds,
            "decode_s": response.decode_seconds,
        }

    def final_checks(self) -> List[str]:
        """The first session again with planes uncached: same bits."""
        request, original = self.first
        uncached = self.execute("session", request, plane_caching=False)
        problems = []
        if not np.array_equal(uncached.outputs, original.outputs):
            problems.append("uncached session outputs differ from the original session")
        if _stats_tuple(uncached.stats) != _stats_tuple(original.stats):
            problems.append("uncached session stats differ from the original session")
        return problems

    def units(self, request: Any) -> int:
        """Throughput counts generated tokens."""
        return request["decode_tokens"]

    def throughput(self) -> float:
        """Over whole blocks of the length mix, so that a run's last,
        partial block does not tilt the rate towards short or long sessions."""
        whole = len(self.done) - len(self.done) % len(self.decode_tokens)
        return _rate(self.done[:whole] or self.done)
