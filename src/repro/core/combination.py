"""Combination of the three confidence sources.

The paper unifies the implicit-mutual-relation confidence, the entity-type
confidence and the base RE model's prediction with a learned linear model:

.. math::

    P(r_{i,j}) = f\\bigl(w(\\alpha C^{MR}_{i,j} + \\beta C^{T}_{i,j}
                 + \\gamma RE_{i,j}) + b\\bigr)

where :math:`f` is the softmax and :math:`\\alpha, \\beta, \\gamma` are
learned by the model itself.  Missing components (the PA-T and PA-MR
ablations, or the bare base model) are simply dropped from the sum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..exceptions import ConfigurationError
from ..nn import functional as F
from ..nn.tensor import Tensor


class ConfidenceCombiner(nn.Module):
    """Learned linear combination of per-relation confidence scores."""

    def __init__(self, num_relations: int, use_types: bool, use_mutual_relations: bool) -> None:
        super().__init__()
        if num_relations < 2:
            raise ConfigurationError("num_relations must be at least 2")
        self.num_relations = num_relations
        self.use_types = use_types
        self.use_mutual_relations = use_mutual_relations
        # Component weights alpha (MR), beta (T), gamma (RE); learned scalars.
        self.alpha = nn.Parameter(np.array([1.0]))
        self.beta = nn.Parameter(np.array([1.0]))
        self.gamma = nn.Parameter(np.array([1.0]))
        # Outer linear model w(.) + b applied to the combined confidence.  The
        # scale starts well above 1 so the combined logits (sums of softmax
        # outputs, hence bounded) keep enough dynamic range for the model to
        # express confident predictions from the first epochs.
        self.scale = nn.Parameter(np.array([6.0]))
        self.bias = nn.Parameter(np.zeros(num_relations))

    def forward(
        self,
        re_logits: Tensor,
        type_logits: Optional[Tensor] = None,
        mr_logits: Optional[Tensor] = None,
    ) -> Tensor:
        """Combine component logits into final relation logits.

        Each component's logits are converted to a confidence distribution
        with a softmax before weighting, following the paper's formulation.
        The output is returned as logits (pre-softmax) so the training loss
        can apply a numerically stable log-softmax.
        """
        if self.use_types and type_logits is None:
            raise ConfigurationError("type_logits required: the model was built with use_types")
        if self.use_mutual_relations and mr_logits is None:
            raise ConfigurationError(
                "mr_logits required: the model was built with use_mutual_relations"
            )
        if not self.use_types and not self.use_mutual_relations:
            # Bare base model: the paper's combination formula only applies
            # when extra confidence sources exist, so pass the RE logits
            # through unchanged (squashing them would only hurt the baselines).
            return re_logits
        logits, weights = [re_logits], [self.gamma]
        if self.use_types and type_logits is not None:
            logits.append(type_logits)
            weights.append(self.beta)
        if self.use_mutual_relations and mr_logits is not None:
            logits.append(mr_logits)
            weights.append(self.alpha)
        return F.weighted_softmax_sum(logits, weights) * self.scale + self.bias

    def component_weights(self) -> dict:
        """Current values of alpha/beta/gamma (for inspection and reports)."""
        return {
            "alpha_mutual_relation": float(self.alpha.data[0]),
            "beta_entity_type": float(self.beta.data[0]),
            "gamma_base_model": float(self.gamma.data[0]),
        }
