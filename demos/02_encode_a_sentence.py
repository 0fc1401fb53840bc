"""Encode one sentence step by step: embedding, BiLSTM context vectors, the
four pooling strategies, and attention-based refinement.

Run:  python demos/02_encode_a_sentence.py
"""

import numpy as np

from nliattn import synth
from nliattn.data import CharVocabulary, Vocabulary, pairs_to_batch, random_embeddings
from nliattn.encoder import Encoder, EncoderConfig, POOLING_METHODS, bilstm, inner_attention, pool

examples = synth.synthetic_examples(50, seed=3)
vocab = Vocabulary.from_examples(examples, dim=16)
chars = CharVocabulary.from_examples(examples, dim=4)

rng = np.random.default_rng(0)
config = EncoderConfig(use_chars=True, word_dim=16, char_dim=4, char_hidden=6, hidden_per_dir=8)
encoder = Encoder(config, random_embeddings(vocab, rng, scale=0.3), n_chars=len(chars), rng=rng)

sentence = examples[0].premise_tokens
print("sentence:", " ".join(sentence))

# the model's one input format is a padded Batch of pairs; take its premise row
batch = pairs_to_batch([sentence], [sentence], vocab, chars)
ids, char_ids, char_mask = batch.premise_ids[0], batch.premise_char_ids[0], batch.premise_char_mask[0]

x = encoder.embed_tokens(ids, None, char_ids, char_mask)
print(f"embedded input: {x.shape}  (word {config.word_dim} + char {config.char_hidden})")

seq = bilstm(x, None, encoder.forward_cell, encoder.backward_cell)
print(f"context vectors: {seq.H.shape}  (2 x {config.hidden_per_dir} per position)")

for method in POOLING_METHODS:
    raw = pool(seq, method)
    refined, alpha = inner_attention(seq, raw, encoder.attention_w, encoder.attention_v)
    weights = " ".join(f"{a:.2f}" for a in alpha.data)
    print(f"{method:>5s} pooling -> refined norm {np.linalg.norm(refined.data):.3f}, attention [{weights}]")

rep = encoder.encode_sentence(ids, "mean", char_ids=char_ids, char_mask=char_mask)
print(f"\nfull encode_sentence: refined representation has {rep.refined.shape[0]} components")
print("attention sums to", rep.attention_weights.data.sum())
