"""Entity-level NER evaluation toolkit.

Pairs gold and predicted annotations, classifies every disagreement into
a five-type mismatch taxonomy, scores the result under exact, relaxed,
SemEval-style and learning-based conventions, and refines boundary-only
(Type-5) mismatches with a trainable entity classifier or expert
judgements.
"""

__version__ = "0.1.0"

from .classifier import (
    ClassifierModel,
    Decision,
    Prediction,
    TrainConfig,
    Verdict,
    decide_type5,
    load_external_decisions,
    predict,
    train,
    write_classifier_requests,
)
from .clsdata import (
    BuilderConfig,
    LabeledText,
    Origin,
    build_training_set,
    ingest_external_chunks,
)
from .corpus import (
    AlignmentError,
    Corpus,
    Document,
    EntityMention,
    ParseError,
    Source,
    TagScheme,
    build_document,
    pair_corpora,
    parse_iob,
    parse_standoff,
    serialize_standoff,
)
from .judgement import (
    AgreementStats,
    JudgementRecord,
    ScoreDistribution,
    UserProfile,
    agreement,
    human_f,
    judgement_coverage,
    load_judgements,
    metric_error,
    score_distribution,
)
from .matcher import (
    MatchRecord,
    MatchReport,
    MismatchType,
    classify_corpus,
    classify_document,
    read_ledger,
    write_ledger,
)
from .metrics import (
    PRF,
    Convention,
    MetricSuite,
    UncoveredRecordsError,
    exact_f,
    learning_based_f,
    macro_average,
    metric_suite,
    refined_f,
    relaxed_f,
    semeval_modes,
)
from .perturb import ExpectedLedger, PerturbationPlan, perturb, write_expected_ledger

__all__ = [name for name in dir() if not name.startswith("_")]
