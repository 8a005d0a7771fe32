"""markkit: marker-aware Chinese pretraining toolkit.

Words are exposed to a character-level model by inserting boundary
markers between word spans; markers double as anchors for a
replaced-word-detection objective alongside masked language modeling.

Importing markkit before numpy pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, so that a trained
checkpoint does not depend on the host's core count.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .confusion import (ConfusionChoice, ConfusionKind, ConfusionPolicy,
                        pinyin_candidates, sample_confusion, synonym_candidates)
from .errors import (ConfigError, InputError, MarkkitError, ParseError,
                     ResourceError, TrainingError)
from .marker_encoder import (MarkedSequence, Vocab, build_vocab, encode_marked,
                             load_vocab, save_vocab, strip_markers)
from .model import (ForwardOutput, LossBreakdown, MarkBert, ModelConfig,
                    StepMetrics, compute_loss, export_attention,
                    finite_difference_grads, load_checkpoint,
                    loss_and_gradients, save_checkpoint, train_step)
from .ner import (EntitySpan, NerExample, SpanF1Counter, align_labels_with_markers,
                  bio_to_bmeso, extract_spans, read_conll, span_f1,
                  strip_marker_labels, write_conll)
from .pretrain import (ExampleMeta, MaskingConfig, MaskingStats, PackedSegment,
                       PretrainingExample, RwdLabel, build_document, build_example,
                       build_packed_example, corpus_stats, derive_seed,
                       example_from_json, example_to_json, generate_examples,
                       pack_corpus, pack_documents, plain_example, read_documents)
from .resources import (Lexicon, PinyinTable, Resources,
                        WordEmbeddings, load_embeddings, load_lexicon,
                        load_pinyin_table)
from .segmenter import (Segmentation, Segmenter, WordSpan, make_lexicon_segmenter,
                        parse_pretokenized, render_spaced, segment)
