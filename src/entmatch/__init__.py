"""Entity-level NER evaluation toolkit.

Pairs gold and predicted annotations, classifies every disagreement into
a five-type mismatch taxonomy, scores the result under exact, relaxed,
SemEval-style and learning-based conventions, and refines boundary-only
(Type-5) mismatches with a trainable entity classifier or expert
judgements.

The package root holds only ``__version__``: import every other name
from its submodule, such as ``entmatch.corpus`` or ``entmatch.metrics``.
"""

__version__ = "0.1.0"
