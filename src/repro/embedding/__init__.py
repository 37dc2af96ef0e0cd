"""Random embedding and embedding-dimension selection (paper Section 4)."""

from repro.embedding.dimension_selection import (
    DimensionSelectionResult,
    pick_flat_dimension,
    select_embedding_dimension,
)
from repro.embedding.random_embedding import RandomEmbedding, clip_to_box

__all__ = [
    "RandomEmbedding",
    "clip_to_box",
    "select_embedding_dimension",
    "pick_flat_dimension",
    "DimensionSelectionResult",
]
