"""
Training a model from scratch
=============================

Fit joint embeddings on one snapshot: every epoch shuffles the training
triples, draws one corrupted negative per triple for a whole minibatch at
once, and applies one SGD step per minibatch under the margin ranking loss.
"""
from pathlib import Path

from dkge import TrainConfig, load_snapshot_dir, train_from_scratch

data = Path(__file__).parent / "data"
sd = load_snapshot_dir(data / "t2")

# desk-scale settings; defaults target real datasets (d=100, 800 epochs)
config = TrainConfig(
    dim=16,
    learning_rate=0.02,
    batch_size=8,
    margin=2.0,
    max_epochs=60,
    eval_every=10,
    patience=3,
    seed=7,
)

# valid.txt drives early stopping: training keeps the parameters from the
# epoch with the best filtered Hits@10 and stops after `patience` flat evals
valid = {sd.train.resolve(t) for t in sd.valid}
store, report = train_from_scratch(sd.train, valid, config)

print("\nmode:", report.mode)
print("epochs run:", report.epochs_run)
print("first epoch loss:", round(report.epoch_losses[0], 4))
print("last epoch loss:", round(report.epoch_losses[-1], 4))
print("best valid Hits@10:", report.best_valid_hits10, "at epoch", report.best_epoch)
print("trained parameters:", report.updated_parameters)

# the store owns everything the model learned: two embedding tables per
# object kind, two encoder stacks, and the two gate vectors
print("entity knowledge table:", store.ent_know.shape)
print("entity context table:", store.ent_ctx.shape)
print("gate vector (first 4):", store.ent_gate_pre[:4].round(3))
