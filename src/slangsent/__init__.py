"""slangsent: build, extend, and apply a slang sentiment lexicon.

The toolkit ingests crowdsourced dictionary entries, labels their sentiment
strength in three stages (seed-lexicon merge, corpus co-occurrence
estimation, synonym-graph propagation), and ships a transparent scorer plus
an evaluation harness for short informal text.
"""

from .corpus import (
    DEFAULT_MAX_DOCS,
    CorpusProvider,
    Document,
    EstimationReport,
    FileCorpusProvider,
    document_strength,
    estimate_all,
    estimate_strength,
    load_corpus,
)
from .distant import (
    DistantReport,
    EmoticonSet,
    LabeledDocument,
    build_eval_corpus,
    default_emoticons,
    label_by_emoticon,
    load_labeled_corpus,
    save_labeled_corpus,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyEvaluationError,
    EstimationError,
    IngestError,
    MissingTermError,
    NormalizationError,
    ParseError,
    ProviderError,
    ScaleError,
    SlangSentError,
)
from .ingest import (
    DirectoryFetcher,
    EntryFetcher,
    FetchReport,
    SlangEntry,
    Vocabulary,
    build_vocabulary,
    date_range,
    extension_url,
    fetch_new_entries,
    load_vocabulary,
    parse_entries,
    save_vocabulary,
)
from .lexicon import (
    STRENGTH_MAX,
    STRENGTH_MIN,
    Lexicon,
    LexiconEntry,
    LinearScale,
    Polarity,
    SeedSource,
    Stage,
    clamp_strength,
    classify,
    combine,
    export_idiom_table,
    export_slangsd,
    load_lexicon,
    load_seed_values,
    merge_seed_lexicons,
    parse_slangsd,
    save_lexicon,
)
from .pipeline import PipelineConfig, PipelineResult, load_config, run_pipeline
from .propagate import (
    PropagationResult,
    StageReport,
    SynonymGraph,
    build_graph,
    propagate,
    stage_report,
)
from .scoring import (
    EvalSubset,
    EvaluationReport,
    Match,
    PhraseMatcher,
    ScoreBreakdown,
    evaluate,
    score_text,
    score_tokens,
)
from .text import find_occurrences, normalize_term, tokenize

__version__ = "0.1.0"
