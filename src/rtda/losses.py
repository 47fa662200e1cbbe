"""Training objectives.

Segmentation cross-entropy over probability maps with an ignore index,
and the two binary adversarial objectives over single-channel
discriminator logits (source labeled 1, target labeled 0), both written
in the stable softplus form so any finite logit yields a finite loss:

    -log sigmoid(z)       == softplus(-z)
    -log (1 - sigmoid(z)) == softplus(z)

Every loss is a scalar Tensor: a mean over the contributing pixels.
total_seg_objective with weight 0 returns the segmentation loss tensor
itself, so a source-only ablation is bitwise identical to never
computing the adversarial term.
"""

from __future__ import annotations

from rtda import tensor as T
from rtda.tensor import Tensor


def seg_cross_entropy(probs: Tensor, labels) -> Tensor:
    """Cross-entropy of per-pixel probability maps against integer labels.

    Pixels labeled IGNORE_INDEX contribute to neither the sum nor the
    count; raises ValueError when nothing is left to score.
    """
    return T.masked_nll(probs, labels)


def disc_loss(d_src_logits: Tensor, d_tgt_logits: Tensor) -> Tensor:
    """Binary domain-classification loss: push sigma(d_src) toward 1 and
    sigma(d_tgt) toward 0."""
    src_term = T.reduce_mean(T.softplus(T.neg(d_src_logits)))
    tgt_term = T.reduce_mean(T.softplus(d_tgt_logits))
    return T.add(src_term, tgt_term)


def adv_loss(d_tgt_logits: Tensor) -> Tensor:
    """Confusion loss on target logits: push sigma(d_tgt) toward the source
    label 1, i.e. mean -log sigma(d_tgt)."""
    return T.reduce_mean(T.softplus(T.neg(d_tgt_logits)))


def total_seg_objective(l_seg: Tensor, l_adv: Tensor, weight: float) -> Tensor:
    """l_seg + weight * l_adv; weight 0 returns l_seg itself."""
    if weight < 0:
        raise ValueError("adversarial weight must be nonnegative")
    if weight == 0.0:
        return l_seg
    return T.add(l_seg, T.scale(l_adv, weight))
