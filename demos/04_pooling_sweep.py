"""Run the pooling-strategy sweep at toy scale: every (method x chars) cell
is trained over several seeds, then summarized as mean +- 95% CI and as a
per-cell best, mirroring the two standard result tables.

Run:  python demos/04_pooling_sweep.py   (about ten seconds)
"""

from nliattn import synth
from nliattn.encoder import EncoderConfig
from nliattn.evaluation import pooling_sweep, summarize_runs, write_sweep_records
from nliattn.model import ModelConfig
from nliattn.training import TrainConfig

train_examples = synth.synthetic_examples(240, seed=11)
dev_examples = synth.synthetic_examples(60, seed=12)

base = ModelConfig(
    encoder=EncoderConfig(use_chars=False, word_dim=12, char_dim=3, char_hidden=3,
                          hidden_per_dir=5),
    pooling="mean",
    mlp_widths=(12, 12, 12),
    dropout=0.1,
)
config = TrainConfig(learning_rate=0.002, batch_size=8, max_epochs=3, seed=0)

runs, summary = pooling_sweep(
    train_examples, dev_examples, base, config,
    seeds=[0, 1], embedding_scale=0.5, jobs=2,
)

write_sweep_records(runs, "sweep_runs.log")
print(f"{len(runs)} runs over {len(summary.cells)} cells (records in sweep_runs.log)\n")
print("mean +- 95% CI per cell:")
print(summary.format_mean_table())
print("\nbest per cell:")
print(summary.format_best_table())

# The summaries are a pure function of the stored run records:
print("\nre-summarized from the record file:")
from nliattn.evaluation import read_sweep_records

print(summarize_runs(read_sweep_records("sweep_runs.log")).format_mean_table())
