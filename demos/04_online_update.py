"""
Updating a model after the graph changes
========================================

Instead of retraining everything when a snapshot grows, online learning
retrains only the triples whose objects emerged or whose contexts
changed, and freezes every other parameter bit for bit.
"""
from pathlib import Path

from dkge import TrainConfig, load_snapshot_dir, train_from_scratch, train_online

data = Path(__file__).parent / "data"
old = load_snapshot_dir(data / "t1").train
new = load_snapshot_dir(data / "t2").train

config = TrainConfig(dim=16, learning_rate=0.02, batch_size=8, margin=2.0,
                     max_epochs=40, eval_every=10, patience=3, seed=7)

# fit the old snapshot first
store, _ = train_from_scratch(old, set(), config, log=None)
frozen_gate = store.ent_gate_pre.copy()
frozen_e2 = store.ent_know[old.entity_id("e2")].copy()

# the update matches the two snapshots' objects by name once, migrates the
# tables through that id map (dropping removed objects, initializing
# emerging ones), hashes the new contexts of the few objects the change can
# reach, compares them with the signature rows stored at training time, and
# runs masked SGD over the small retrain set
print("updating from t1 to t2")
store, report = train_online(old, new, store, set(), config)

print("\nmode:", report.mode)
print("retrained triples:", report.retrained_triples, "of", len(new.triples))
print("updated parameters:", report.updated_parameters)
print("frozen parameters:", report.frozen_parameters)

# frozen really means frozen: the encoder, the gates, and every embedding
# row outside the retrain set come back bit-identical
same_gate = (store.ent_gate_pre == frozen_gate).all()
same_e2 = (store.ent_know[new.entity_id("e2")] == frozen_e2).all()
print("gate unchanged:", bool(same_gate))
print("e2 knowledge row unchanged:", bool(same_e2))

# emerging objects exist only in the new table
print("e7 row present:", "e7" in new.entity_ids
      and store.ent_know.shape[0] == new.num_entities)
