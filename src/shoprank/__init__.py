"""Two-stage search relevance pipeline.

First-stage class probabilities (one vector per query/product pair and
upstream model) are fused by a gradient-boosted tree stage trained with
grouped cross-validation, then turned into ranked lists, four-way label
predictions, and binary substitute predictions.
"""

from .errors import (
    ConfigurationError,
    DegenerateTrainingError,
    DuplicateKeyError,
    FormatError,
    IncompleteInputError,
    MissingKeyError,
    ParseError,
    ReferentialError,
    SchemaError,
    ShoprankError,
    StageError,
    ValidationError,
    WorkerError,
)
from .model import (
    CLASS_ORDER,
    N_CLASSES,
    Catalog,
    EsciLabel,
    Example,
    ExampleSet,
    FoldAssignment,
    Pairs,
    ProbTable,
)

__version__ = "0.1.0"
