"""Encode a batch of sentences step by step: embedding, BiLSTM context
vectors, the four pooling strategies, and attention-based refinement.

Every step runs on all sentences at once.  A batch holds no padding: its
tokens are packed into one [L x d] block, sentence after sentence, and
``lengths`` says how many belong to each sentence.

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

pair = examples[0]
print("premise:   ", " ".join(pair.premise_tokens))
print("hypothesis:", " ".join(pair.hypothesis_tokens))

# the model's one input format is a packed Batch of pairs; its premises and
# hypotheses form one set of 2B sentences, and its distinct words form a
# table that the char-LSTM reads once
batch = pairs_to_batch([pair.premise_tokens], [pair.hypothesis_tokens], vocab, chars)
lengths = batch.lengths
words = batch.word_index, batch.char_ids, batch.char_lengths
print(f"\n{len(lengths)} sentences of lengths {lengths.tolist()}: {len(batch.word_ids)} tokens, "
      f"W = {len(batch.char_lengths)} distinct words")

x = encoder.embed_tokens(batch.word_ids, *words)
print(f"embedded input: blocks {' + '.join(str(block.shape) for block in x)}  "
      f"(frozen word {config.word_dim}, learned char {config.char_hidden} per token)")

seq = bilstm(x, lengths, encoder.forward_cell, encoder.backward_cell)
print(f"context vectors: {seq.H.shape}  (2 x {config.hidden_per_dir} per token)")

starts = np.cumsum(lengths) - lengths
for method in POOLING_METHODS:
    raw = pool(seq, method)
    refined, alpha = inner_attention(seq, raw, encoder.attention_w, encoder.attention_v)
    weights = " | ".join(
        " ".join(f"{a:.2f}" for a in alpha.data[start : start + n])
        for start, n in zip(starts, lengths)
    )
    print(f"{method:>5s} pooling -> refined {refined.shape}, attention [{weights}]")

rep = encoder.encode(batch.word_ids, lengths, "mean", *words)
print(f"\nfull encode: refined representations {rep.refined.shape}")
print("attention sums per sentence:", np.add.reduceat(rep.attention_weights.data, starts))
