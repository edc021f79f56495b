"""
Loading snapshots and diffing them
==================================

Two snapshots of a small graph, one update apart: load both, reconcile
them by name, and list what an incremental retrain would have to touch.
"""
from pathlib import Path

from dkge import changed_context_objects, diff_snapshots, load_snapshot_dir
from dkge.contexts import ENTITY, context_changes
from dkge.training import collect_retrain_set

data = Path(__file__).parent / "data"

# a snapshot directory holds train.txt plus optional valid.txt / test.txt
old = load_snapshot_dir(data / "t1").train
new = load_snapshot_dir(data / "t2").train
print(f"old snapshot: {old.num_entities} entities, "
      f"{old.num_relations} relations, {len(old.triple_ids)} triples")
print(f"new snapshot: {new.num_entities} entities, "
      f"{new.num_relations} relations, {len(new.triple_ids)} triples")

# the diff matches objects by name, so file order never matters
diff = diff_snapshots(old, new)
print("added:", sorted(new.triple_names(t) for t in diff.added_triples))
print("deleted:", sorted(old.triple_names(t) for t in diff.deleted_triples))
print("emerging entities:", sorted(new.entity_names[e] for e in diff.emerging_entities))
print("emerging relations:", sorted(new.relation_names[r] for r in diff.emerging_relations))

# comparing contexts spots every existing object whose surroundings moved,
# including second-order effects: a new edge between two neighbors of e1
# changes e1's context even though e1 is on neither end of it
for kind, obj in sorted(changed_context_objects(old, new)):
    name = (new.entity_names[obj] if kind == ENTITY
            else new.relation_names[obj])
    print("changed context:", kind, name)

# the commands find the same objects without building an entity context:
# an entity's context changes exactly when a link changes at it or between
# two of its neighbours; only the relations a changed triple can reach have
# their contexts built on both snapshots and compared as arrays.  The
# changed objects come back as entity and relation id arrays
changed = context_changes(old, new, diff)
print("changed ids:", changed[0].tolist(), changed[1].tolist())

# an online update only revisits triples touching emerging or changed
# objects; the retrain set is an (n, 3) array of id rows in (h, r, t) order
retrain = collect_retrain_set(new, diff, changed)
print(f"triples to retrain: {len(retrain)} of {len(new.triple_ids)}")
for t in sorted(new.triple_names(row) for row in retrain):
    print("  ", *t)
