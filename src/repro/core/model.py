"""The unified neural RE framework (base model + entity information heads).

:class:`NeuralREModel` wraps any :class:`BagRelationClassifier` and optionally
attaches the entity-type head and the implicit-mutual-relation head; the three
confidence sources are fused by :class:`ConfidenceCombiner`.  With a PCNN+ATT
base this is the paper's PA-TMR model; dropping one head gives PA-T / PA-MR;
with other bases it is the Figure 5 flexibility experiment.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import nn
from ..corpus.bags import EncodedBag
from ..exceptions import ConfigurationError
from ..nn import functional as F
from ..nn.tensor import Tensor
from .classifier import BagRelationClassifier
from .combination import ConfidenceCombiner
from .entity_type import EntityTypeHead
from .mutual_relation import MutualRelationHead


class NeuralREModel(nn.Module):
    """Base RE model + optional entity-type and mutual-relation heads."""

    def __init__(
        self,
        base_model: BagRelationClassifier,
        type_head: Optional[EntityTypeHead] = None,
        mutual_relation_head: Optional[MutualRelationHead] = None,
    ) -> None:
        super().__init__()
        self.base_model = base_model
        self.num_relations = base_model.num_relations
        self.type_head = type_head
        self.mutual_relation_head = mutual_relation_head
        if type_head is not None and type_head.num_relations != self.num_relations:
            raise ConfigurationError("type head and base model disagree on num_relations")
        if (
            mutual_relation_head is not None
            and mutual_relation_head.num_relations != self.num_relations
        ):
            raise ConfigurationError(
                "mutual relation head and base model disagree on num_relations"
            )
        self.combiner = ConfidenceCombiner(
            num_relations=self.num_relations,
            use_types=type_head is not None,
            use_mutual_relations=mutual_relation_head is not None,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def uses_types(self) -> bool:
        return self.type_head is not None

    @property
    def uses_mutual_relations(self) -> bool:
        return self.mutual_relation_head is not None

    def describe(self) -> str:
        """Readable name, e.g. ``PCNN+ATT (+T +MR)``."""
        parts = []
        if self.uses_types:
            parts.append("+T")
        if self.uses_mutual_relations:
            parts.append("+MR")
        base_name = self.base_model.describe()
        if not parts:
            return base_name
        return f"{base_name} ({' '.join(parts)})"

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, bag: EncodedBag, relation_id: Optional[int] = None) -> Tensor:
        """Combined relation logits of one bag.

        ``relation_id`` is forwarded to the base model's selective attention
        during training (gold-label attention); the entity-information heads
        never see the label.
        """
        re_logits = self.base_model(bag, relation_id)
        type_logits = self.type_head(bag) if self.type_head is not None else None
        mr_logits = (
            self.mutual_relation_head(bag)
            if self.mutual_relation_head is not None
            else None
        )
        return self.combiner(re_logits, type_logits=type_logits, mr_logits=mr_logits)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save(
        self,
        path,
        encoder=None,
        schema=None,
        kb=None,
        metadata: Optional[Dict] = None,
    ):
        """Write this model to a versioned checkpoint directory.

        Pass the training-time ``encoder`` (:class:`repro.corpus.loader.BagEncoder`),
        ``schema`` and optionally ``kb`` to make the checkpoint directly
        servable via :meth:`repro.serve.PredictionService.from_checkpoint`;
        without them the checkpoint round-trips the model only.  See
        :mod:`repro.utils.checkpoint` for the on-disk format.
        """
        from ..utils.checkpoint import save_checkpoint

        return save_checkpoint(
            path, self, encoder=encoder, schema=schema, kb=kb, metadata=metadata
        )

    @classmethod
    def load(cls, path) -> "NeuralREModel":
        """Rebuild a model from a checkpoint directory (in eval mode).

        Predictions of the loaded model are bit-identical to the saved one.
        """
        from ..utils.checkpoint import load_checkpoint

        return load_checkpoint(path).model

    # ------------------------------------------------------------------ #
    # Prediction helpers
    # ------------------------------------------------------------------ #
    def predict_probabilities(self, bag: EncodedBag) -> np.ndarray:
        """Relation probability distribution of one bag (no gradient tracking)."""
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                logits = self.forward(bag, relation_id=None)
                probabilities = F.softmax(logits, axis=-1).data
        finally:
            self.train(was_training)
        return np.asarray(probabilities, dtype=np.float64)

    def predict_relation(self, bag: EncodedBag) -> int:
        """The most probable relation id of one bag."""
        return int(np.argmax(self.predict_probabilities(bag)))

    def component_breakdown(self, bag: EncodedBag) -> Dict[str, np.ndarray]:
        """Per-component confidence distributions (for analysis / case study)."""
        was_training = self.training
        self.eval()
        try:
            breakdown: Dict[str, np.ndarray] = {
                "base": F.softmax(self.base_model(bag, None), axis=-1).data.copy()
            }
            if self.type_head is not None:
                breakdown["types"] = F.softmax(self.type_head(bag), axis=-1).data.copy()
            if self.mutual_relation_head is not None:
                breakdown["mutual_relation"] = F.softmax(
                    self.mutual_relation_head(bag), axis=-1
                ).data.copy()
            breakdown["combined"] = self.predict_probabilities(bag)
        finally:
            self.train(was_training)
        return breakdown
