"""Train a small model on a rule-generated corpus, watch the per-epoch log,
and print the per-genre accuracy report.

Run:  python demos/03_train_and_evaluate.py   (a few seconds)
"""

import numpy as np

from nliattn import synth
from nliattn.data import CharVocabulary, Vocabulary, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.evaluation import evaluate
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import TrainConfig, train

train_examples = synth.synthetic_examples(600, seed=1)
dev_examples = synth.synthetic_examples(150, seed=2)

vocab = Vocabulary.from_examples(train_examples, dim=24)
chars = CharVocabulary.from_examples(train_examples, dim=4)
print(f"{len(train_examples)} training pairs, vocabulary of {len(vocab)} tokens")

rng = np.random.default_rng(5)
config = ModelConfig(
    encoder=EncoderConfig(use_chars=False, word_dim=24, char_dim=4, char_hidden=4,
                          hidden_per_dir=10),
    pooling="mean",
    mlp_widths=(24, 24, 24),
    dropout=0.1,
)
model = NLIModel(config, vocab, chars, random_embeddings(vocab, rng, scale=0.5), rng)

result = train(
    model,
    train_examples,
    dev_examples,
    TrainConfig(learning_rate=0.002, batch_size=24, max_epochs=5, seed=9),
)
for record in result.epochs:
    print(record.format())
print(f"best dev accuracy {result.best_dev_accuracy:.3f} at epoch {result.best_epoch}\n")

report = evaluate(model, dev_examples, split="matched")
print(report.format())
