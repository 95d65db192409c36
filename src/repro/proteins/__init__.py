"""Protein substrate: alphabet, tokenizer, sequences, datasets."""

from .alphabet import (
    CHARGE,
    DEFAULT_VOCABULARY,
    EXTENDED_AMINO_ACIDS,
    HYDROPATHY,
    STANDARD_AMINO_ACIDS,
    VOLUME,
    Vocabulary,
    is_valid_sequence,
)
from .datasets import (
    FAB_LENGTH,
    BindingDataset,
    BindingEnergyModel,
    FabVariant,
    make_binding_dataset,
)
from .sequences import BACKGROUND_FREQUENCIES, SequenceGenerator
from .tokenizer import Encoding, ProteinTokenizer
from .workloads import (
    Workload,
    WorkloadItem,
    bucket_batches,
    screening_campaign,
    uniprot_like_workload,
)

__all__ = [
    "BACKGROUND_FREQUENCIES",
    "CHARGE",
    "DEFAULT_VOCABULARY",
    "EXTENDED_AMINO_ACIDS",
    "FAB_LENGTH",
    "HYDROPATHY",
    "STANDARD_AMINO_ACIDS",
    "VOLUME",
    "BindingDataset",
    "BindingEnergyModel",
    "Encoding",
    "FabVariant",
    "ProteinTokenizer",
    "SequenceGenerator",
    "Vocabulary",
    "Workload",
    "WorkloadItem",
    "bucket_batches",
    "screening_campaign",
    "uniprot_like_workload",
    "is_valid_sequence",
    "make_binding_dataset",
]
