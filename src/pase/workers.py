"""The twelve self-supervised workers.

Ten regression heads predict clean-signal features (short/long window, with
deltas and 7-frame context) from the embedding of the distorted input; two
binary heads discriminate same-sentence from cross-sentence embedding pairs
at frame (LIM) and chunk (GIM) granularity. Heads are deliberately small:
one 256-unit hidden layer, nothing configurable beyond the output width.

Every regression target is built by `worker_targets`: one framing and FFT
of a batch of clean chunks serves all ten kinds. A training step makes one
such pass and flattens the embedding once for all ten heads
(`regression_losses`); the target statistics make one pass per block of
corpus chunks (`TargetStandardizer.fit`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import features as F
from .autodiff import Parameter, Tensor
from .checkpoint import STATS_PREFIX
from .errors import EmptyList, FrameGridMismatch, SingleUtteranceBatch

REGRESSION_KINDS = ("wave",) + F.FEATURE_KINDS

HIDDEN_UNITS = 256
STD_FLOOR = 1e-3


@dataclass(frozen=True)
class WorkerSpec:
    name: str  # a regression worker's name is its target kind
    kind: str  # regression | lim | gim


def default_roster() -> list[WorkerSpec]:
    roster = [WorkerSpec(k, "regression") for k in REGRESSION_KINDS]
    roster.append(WorkerSpec("lim", "lim"))
    roster.append(WorkerSpec("gim", "gim"))
    return roster


def target_dim(target_kind: str, sample_rate: int = 16000) -> int:
    """Output width of one regression worker."""
    if target_kind == "wave":
        return int(round(F.HOP_SECONDS * sample_rate))
    return F.FEATURE_DIMS[target_kind] * 3 * F.CONTEXT_FRAMES


def worker_targets(chunks: list[np.ndarray], kinds,
                   sample_rate: int = 16000) -> dict[str, np.ndarray]:
    """The given kinds' targets of equal-length clean chunks before deltas and
    context, as {kind: (B, frames, dims)}: the raw samples under each frame
    for the waveform worker, and for every other kind its features, all from
    one spectral pass over the batch (`features.batch_features`)."""
    hop = int(round(F.HOP_SECONDS * sample_rate))
    n = len(chunks[0]) // hop
    for i, samples in enumerate(chunks):
        if len(samples) != len(chunks[0]):
            raise FrameGridMismatch(
                f"chunk {i} gives {len(samples) // hop} target frames, chunk 0 {n}"
                f" ({len(samples)} samples against {len(chunks[0])})")
    batch = np.stack(chunks)
    out = F.batch_features(np.asarray(batch, dtype=np.float32),
                           [kind for kind in kinds if kind != "wave"], sample_rate)
    if "wave" in kinds:
        out["wave"] = np.asarray(batch[:, : n * hop], dtype=np.float64).reshape(len(chunks), n, hop)
    return out


def _unstacked(kind: str, values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One chunk's worker target before context stacking, from its
    `worker_targets` row, and the rows of it that make each column block of
    the worker target: the frames themselves for the waveform worker, and
    features + deltas over the 7-frame context for every other one."""
    if kind == "wave":
        return values, [np.arange(values.shape[0])]
    values = F.add_deltas(values)
    return values, F.context_rows(values.shape[0])


def regression_targets(samples: np.ndarray, target_kind: str, sample_rate: int = 16000) -> np.ndarray:
    """Worker target matrix (frames, dims) computed from the clean signal.

    The waveform worker predicts the raw samples under each frame; every
    other worker gets features + deltas stacked over a 7-frame context.
    """
    row = worker_targets([samples], (target_kind,), sample_rate)[target_kind][0]
    values, rows = _unstacked(target_kind, row)
    return np.concatenate([values[r] for r in rows], axis=1)


# chunks per spectral pass of the fit; it bounds the fit's memory whatever the corpus size
FIT_BLOCK = 8


def _fit_blocks(chunks: list[np.ndarray]):
    """Runs of consecutive chunks of one length, at most FIT_BLOCK each, in order."""
    block = []
    for samples in chunks:
        if block and (len(block) == FIT_BLOCK or len(samples) != len(block[0])):
            yield block
            block = []
        block.append(samples)
    yield block


def _add_block_sums(block: list[np.ndarray], sample_rate: int, sums: dict, squares: dict,
                    counts: dict) -> None:
    """Adds each chunk's worker-target column sums, sums of squares and frame
    count to `sums`, `squares` and `counts`, kind by kind and chunk by chunk,
    from one `worker_targets` pass over the block. Each context block of a
    sum is taken over the rows of the unstacked target that it repeats, in
    frame order, so it has the bits of the stacked target's sum. The block's
    targets are freed on return."""
    targets = worker_targets(block, REGRESSION_KINDS, sample_rate)
    for kind in REGRESSION_KINDS:
        for chunk in targets[kind]:
            values, rows = _unstacked(kind, chunk)
            sq = values * values
            sums[kind] += np.concatenate([values[r].sum(axis=0) for r in rows])
            squares[kind] += np.concatenate([sq[r].sum(axis=0) for r in rows])
            counts[kind] += values.shape[0]


class TargetStandardizer:
    """Per-dimension mean/std of every regression target over the training corpus."""

    def __init__(self, sample_rate: int = 16000):
        self.sample_rate = sample_rate
        self.mean: dict[str, np.ndarray] = {}
        self.std: dict[str, np.ndarray] = {}

    def fit(self, chunks: list[np.ndarray]) -> None:
        """Mean and std of each worker target over `chunks`, FIT_BLOCK chunks
        at a time. The sums are added chunk by chunk in order, as the stacked
        targets' were, so the statistics keep their bits."""
        if not chunks:
            raise EmptyList("no chunks to fit the target statistics on")
        # a numpy sum starts from +0.0, so it is never -0.0 and 0.0 + sum is the sum
        sums = {kind: np.zeros(target_dim(kind, self.sample_rate)) for kind in REGRESSION_KINDS}
        squares = {kind: np.zeros_like(acc) for kind, acc in sums.items()}
        counts = dict.fromkeys(REGRESSION_KINDS, 0)
        for block in _fit_blocks(chunks):
            _add_block_sums(block, self.sample_rate, sums, squares, counts)
        for kind in REGRESSION_KINDS:
            mean = sums[kind] / counts[kind]
            var = np.maximum(squares[kind] / counts[kind] - mean * mean, 0.0)
            self.mean[kind] = mean.astype(np.float32)
            self.std[kind] = np.maximum(np.sqrt(var), STD_FLOOR).astype(np.float32)

    def transform(self, kind: str, values: np.ndarray, out: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Standardized `values` written into the float32 array `out`. The
        arithmetic runs in `values`' precision and is rounded to float32
        once, on the write. `cols` picks the columns of the worker target
        that `values` holds."""
        return np.divide(
            values - self.mean[kind][cols], self.std[kind][cols], out=out, casting="same_kind"
        )

    def state(self) -> dict[str, np.ndarray]:
        out = {}
        for kind in REGRESSION_KINDS:
            out[f"{STATS_PREFIX}{kind}/mean"] = self.mean[kind]
            out[f"{STATS_PREFIX}{kind}/std"] = self.std[kind]
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copies each statistic: a kept view of a loaded checkpoint would
        hold the whole file in memory."""
        for kind in REGRESSION_KINDS:
            self.mean[kind] = arrays[f"{STATS_PREFIX}{kind}/mean"].copy()
            self.std[kind] = arrays[f"{STATS_PREFIX}{kind}/std"].copy()


def _init_linear(rng, out_dim, in_dim):
    scale = np.sqrt(1.0 / in_dim)
    return (rng.standard_normal((out_dim, in_dim)) * scale).astype(np.float32)


class WorkerHead:
    """linear(in -> 256) + PReLU + linear(256 -> out); capacity is fixed."""

    def __init__(self, prefix: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w1 = Parameter(f"{prefix}/fc1/w", _init_linear(rng, HIDDEN_UNITS, in_dim))
        self.b1 = Parameter(f"{prefix}/fc1/b", np.zeros(HIDDEN_UNITS, dtype=np.float32))
        self.alpha = Parameter(f"{prefix}/prelu/alpha", np.full(HIDDEN_UNITS, 0.25, dtype=np.float32))
        self.w2 = Parameter(f"{prefix}/fc2/w", _init_linear(rng, out_dim, HIDDEN_UNITS))
        self.b2 = Parameter(f"{prefix}/fc2/b", np.zeros(out_dim, dtype=np.float32))

    def hidden(self, x: Tensor) -> Tensor:
        return ad.prelu(ad.linear(x, self.w1, self.b1), self.alpha)

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(self.hidden(x), self.w2, self.b2)

    def parameters(self):
        return [self.w1, self.b1, self.alpha, self.w2, self.b2]


def _flatten_frames(emb: Tensor, t_keep: int) -> Tensor:
    """(B, C, T) -> (B * t_keep, C), truncating the time axis first."""
    b, c, t = emb.shape
    if t > t_keep:
        emb = ad.index(emb, np.s_[:, :, :t_keep])
    return ad.reshape(ad.transpose(emb, (0, 2, 1)), (b * t_keep, c))


def _target_pieces(kind: str, values: np.ndarray, t_common: int,
                   standardizer: TargetStandardizer):
    """`linear_mse`'s target pieces of one kind, one per chunk, cut to the
    first `t_common` frames: each chunk's `worker_targets` row, with deltas,
    standardized straight into a (frames, dim) float32 piece one context
    block at a time. So neither a float64 context stack nor the whole
    batch's target is built."""
    for i, chunk in enumerate(values):
        unstacked, rows = _unstacked(kind, chunk)
        w = unstacked.shape[1]
        piece = np.empty((t_common, w * len(rows)), dtype=np.float32)
        for j, r in enumerate(rows):
            cols = slice(j * w, (j + 1) * w)
            standardizer.transform(kind, unstacked[r[:t_common]], out=piece[:, cols], cols=cols)
        yield slice(i * t_common, (i + 1) * t_common), slice(None), piece


def regression_losses(
    emb: Tensor,
    clean_batch: list[np.ndarray],
    specs: list[WorkerSpec],
    heads: dict[str, WorkerHead],
    standardizer: TargetStandardizer,
    sample_rate: int = 16000,
) -> dict[str, Tensor]:
    """Each regression worker's frame-wise MSE between head(embedding) and
    its standardized clean targets, in the order of `specs`.

    The targets of every kind come from one `worker_targets` pass, and every
    head reads one flattened embedding, cut to the frames the targets also
    have. Each kind's targets reach its loss one chunk at a time and are
    dropped once the loss is built. A head's output layer and the MSE are
    one op, so no prediction is kept for backward.
    """
    targets = worker_targets(clean_batch, [spec.name for spec in specs], sample_rate)
    t_emb = emb.shape[2]
    t_tgt = targets[specs[0].name].shape[1]
    if abs(t_emb - t_tgt) > 1:
        raise FrameGridMismatch(f"embedding {t_emb} frames vs target {t_tgt}")
    t_common = min(t_emb, t_tgt)
    flat = _flatten_frames(emb, t_common)
    out = {}
    for spec in specs:
        head = heads[spec.name]
        pieces = _target_pieces(spec.name, targets.pop(spec.name), t_common, standardizer)
        out[spec.name] = ad.linear_mse(head.hidden(flat), head.w2, head.b2, pieces)
    return out


def regression_worker_loss(
    emb: Tensor,
    clean_batch: list[np.ndarray],
    spec: WorkerSpec,
    head: WorkerHead,
    standardizer: TargetStandardizer,
    sample_rate: int = 16000,
) -> Tensor:
    """One regression worker's loss: `regression_losses` of its spec alone."""
    return regression_losses(emb, clean_batch, [spec], {spec.name: head}, standardizer,
                             sample_rate)[spec.name]


# --- contrastive sampling -------------------------------------------------------


@dataclass(frozen=True)
class LimSample:
    """Index triple: anchor/positive share a chunk, negative is cross-utterance."""

    anchor_elem: np.ndarray
    anchor_frame: np.ndarray
    positive_frame: np.ndarray
    negative_elem: np.ndarray
    negative_frame: np.ndarray


@dataclass(frozen=True)
class GimSample:
    """Per element: positive is its second chunk, negative another utterance's."""

    negative_elem: np.ndarray
    overlap_fallback: tuple  # elements whose two draws could not be distinct


def _negative_elements(utterance_ids, rng, per_element: int = 1) -> np.ndarray:
    ids = list(utterance_ids)
    out = np.empty(len(ids) * per_element, dtype=np.int64)
    for i, utt in enumerate(ids):
        candidates = [j for j, other in enumerate(ids) if other != utt]
        if not candidates:
            raise SingleUtteranceBatch(
                "contrastive sampling needs >= 2 distinct utterances per batch"
            )
        for k in range(per_element):
            out[i * per_element + k] = candidates[int(rng.integers(len(candidates)))]
    return out


def lim_sample(
    utterance_ids, n_frames: int, rng: np.random.Generator, per_element: int = 1
) -> LimSample:
    """(anchor, positive, negative) frame triples, per_element per chunk."""
    if n_frames < 2:
        raise ValueError("lim sampling needs at least two frames per chunk")
    b = len(utterance_ids)
    neg_elem = _negative_elements(utterance_ids, rng, per_element)
    n = b * per_element
    anchor_elem = np.repeat(np.arange(b, dtype=np.int64), per_element)
    anchor_frame = rng.integers(0, n_frames, size=n)
    shift = rng.integers(1, n_frames, size=n)
    positive_frame = (anchor_frame + shift) % n_frames  # distinct from anchor
    negative_frame = rng.integers(0, n_frames, size=n)
    return LimSample(
        anchor_elem=anchor_elem,
        anchor_frame=anchor_frame.astype(np.int64),
        positive_frame=positive_frame.astype(np.int64),
        negative_elem=neg_elem,
        negative_frame=negative_frame.astype(np.int64),
    )


def gim_sample(
    utterance_ids, second_draw_offsets, first_draw_offsets, rng, per_element: int = 1
) -> GimSample:
    return GimSample(
        negative_elem=_negative_elements(utterance_ids, rng, per_element),
        overlap_fallback=tuple(
            i
            for i, (a, b) in enumerate(zip(first_draw_offsets, second_draw_offsets))
            if a == b
        ),
    )


def infomax_loss(
    head: WorkerHead, anchor: Tensor, positive: Tensor, negative: Tensor
) -> Tensor:
    """Mean of the positive-pair and negative-pair binary cross-entropies.

    Averaging the two terms separately keeps the loss balanced even when
    negatives are sampled more densely than positives.
    """
    pos_logits = head.forward(ad.concat([anchor, positive], axis=1))
    neg_anchor = anchor
    if negative.shape[0] != anchor.shape[0]:
        reps = negative.shape[0] // anchor.shape[0]
        neg_anchor = ad.index(anchor, np.repeat(np.arange(anchor.shape[0]), reps))
    neg_logits = head.forward(ad.concat([neg_anchor, negative], axis=1))
    pos = ad.bce_logits_loss(
        pos_logits, np.ones(pos_logits.shape, dtype=np.float32)
    )
    neg = ad.bce_logits_loss(
        neg_logits, np.zeros(neg_logits.shape, dtype=np.float32)
    )
    half = Tensor(np.asarray(0.5, dtype=pos.data.dtype))
    return ad.mul(ad.add(pos, neg), half)


def lim_worker_loss(emb: Tensor, sample: LimSample, head: WorkerHead) -> Tensor:
    anchor = ad.index(emb, np.s_[sample.anchor_elem, :, sample.anchor_frame])
    positive = ad.index(emb, np.s_[sample.anchor_elem, :, sample.positive_frame])
    negative = ad.index(emb, np.s_[sample.negative_elem, :, sample.negative_frame])
    return infomax_loss(head, anchor, positive, negative)


def gim_worker_loss(emb_a: Tensor, emb_b: Tensor, sample: GimSample, head: WorkerHead) -> Tensor:
    anchor = ad.mean(emb_a, axis=2)
    positive = ad.mean(emb_b, axis=2)
    negative = ad.index(positive, sample.negative_elem)
    return infomax_loss(head, anchor, positive, negative)


def total_loss(worker_losses: list[Tensor]) -> Tensor:
    """Unweighted average of the active worker costs."""
    if not worker_losses:
        raise EmptyList("no worker losses to average")
    acc = worker_losses[0]
    for one in worker_losses[1:]:
        acc = ad.add(acc, one)
    scale = np.asarray(1.0 / len(worker_losses), dtype=acc.data.dtype)
    return ad.mul(acc, Tensor(scale))


class WorkerSet:
    """The twelve heads of `default_roster()` and their specs, keyed for checkpointing."""

    def __init__(self, embedding_dim: int, rng, sample_rate: int = 16000):
        self.roster = default_roster()
        self.heads: dict[str, WorkerHead] = {}
        for spec in self.roster:
            if spec.kind == "regression":
                out_dim = target_dim(spec.name, sample_rate)
                in_dim = embedding_dim
            else:
                out_dim = 1
                in_dim = 2 * embedding_dim
            self.heads[spec.name] = WorkerHead(f"workers/{spec.name}", in_dim, out_dim, rng)

    def parameters(self) -> list[Parameter]:
        out = []
        for spec in self.roster:
            out.extend(self.heads[spec.name].parameters())
        return out

    def losses(self, emb_a: Tensor, emb_b: Tensor, clean: list[np.ndarray],
               standardizer: TargetStandardizer, lim: LimSample, gim: GimSample) -> dict[str, Tensor]:
        """Every worker's loss for one step, in roster order (regression, lim,
        gim), from the given samples: nothing here draws a random number."""
        regression = [spec for spec in self.roster if spec.kind == "regression"]
        out = regression_losses(emb_a, clean, regression, self.heads, standardizer)
        out["lim"] = lim_worker_loss(emb_a, lim, self.heads["lim"])
        out["gim"] = gim_worker_loss(emb_a, emb_b, gim, self.heads["gim"])
        return out
