"""Corpus transliteration and subword-tokenizer analysis toolkit.

The library studies how the written form of training corpora (native
orthography, phonemic transcription, romanization, or enciphered
romanization) shapes subword tokenizers: what they share across languages,
how well they cover unseen ones, and which selection of training languages
makes the effects visible.
"""

from .corpus import (Corpus, CorpusManifest, Document, EmptyCorpusError,
                     oversampling_weights, repetition_counts,
                     sample_to_budget, word_counts)
from .input_types import InputType
from .langselect import (FeatureVectors, Regime, SelectionSpec,
                         SimilarityMatrix, aggregate_similarity,
                         cosine_similarity, lexical_similarity, select_subset,
                         set_objective)
from .metrics import (OverlapReport, OverlapVariant, TokenizerQualityReport,
                      overlap_report, quality_report, token_length_histogram)
from .pipeline import (AnalysisReport, ComparisonTable, ExperimentConfig,
                       LanguageSpec, PipelineStageError, compare_input_types,
                       load_config, run_experiment)
from .stats import (CorrelationResult, PairedSample, TTestResult,
                    paired_t_test, pearson, spearman, significance_mask,
                    t_cdf)
from .tokenizer import (SubwordModel, TokenSet, decode, encode, encode_tokens,
                        load_model, token_set, train, train_from_word_counts)
from .translit import (CipherKey, Passthrough, RewriteRule, RuleMode,
                       RuleTable, TableRegistry, UnmatchedCharacterError,
                       UnsupportedLanguageError, apply_rules,
                       assign_shift_keys, caesar_decipher, caesar_encipher,
                       compose_hangul, decompose_hangul, decompose_syllables,
                       default_registry, load_rule_table)

__version__ = "0.1.0"
