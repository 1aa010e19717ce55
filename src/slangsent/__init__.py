"""slangsent: build, extend, and apply a slang sentiment lexicon.

The toolkit ingests crowdsourced dictionary entries, labels their sentiment
strength in three stages (seed-lexicon merge, corpus co-occurrence
estimation, synonym-graph propagation), and ships a transparent scorer plus
an evaluation harness for short informal text.

The package exports the API that README's Library section lists; every
other name stays importable from its submodule.
"""

__version__ = "0.1.0"  # before the imports: the pipeline's run record reads it

from .corpus import Document, FileCorpusProvider, estimate_all, load_corpus
from .distant import LabeledDocument, load_labeled_corpus
from .errors import ConfigError, DataError, SlangSentError
from .ingest import (
    SlangEntry,
    build_vocabulary,
    fetch_new_entries,
    parse_entries,
)
from .lexicon import (
    Lexicon,
    LexiconEntry,
    LinearScale,
    Polarity,
    SeedSource,
    Stage,
    combine,
    export_slangsd,
    load_lexicon,
    load_seed_values,
    load_slangsd,
    merge_seed_lexicons,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .propagate import SynonymGraph, build_graph, propagate
from .scoring import EvalSubset, evaluate, score_text, score_tokens
