"""
Context subgraphs for entities and relations
============================================

Every object gets a context: entities the induced subgraph over their
neighborhood, relations a graph of the one- and two-step relation paths
that connect the same entity pairs.
"""
from pathlib import Path

from dkge import (ContextTable, context_signature, entity_context,
                  load_snapshot_dir, relation_context)

data = Path(__file__).parent / "data"
g = load_snapshot_dir(data / "t1").train

# the entity context of e1: e1 itself, its neighbors, and every edge the
# snapshot has between those vertices, including neighbor-neighbor edges;
# edges are vertex index pairs (i, j) with i <= j, sorted
sub_e1 = entity_context(g, g.entity_id("e1"))
names = [g.entity_names[v.members[0]] for v in sub_e1.vertices]
print("entity context of e1:", names)
print("edges:", sub_e1.edges.tolist())
for i, j in sub_e1.edges.tolist():
    print(f"  edge {names[i]} - {names[j]}")

# the relation context of r1: vertex 0 is r1, the others are relation
# paths (length 1 or 2) linking at least one head-tail pair of r1
sub = relation_context(g, g.relation_id("r1"))
labels = ["-".join(g.relation_names[m] for m in v.members)
          for v in sub.vertices]
print("\nrelation context of r1:", labels)
for i, j in sub.edges.tolist():
    print(f"  edge {labels[i]} - {labels[j]}")

# contexts are capped before entering the encoder: a context table keeps at
# most `cap` vertices (the owner always does), sampled with an rng derived
# from the run seed and the owner's name
table = ContextTable(g, cap=3, seed=0)
capped = table.entity(g.entity_id("e1"))
kept = [g.entity_names[v.members[0]] for v in capped.vertices]
print("\ncapped to 3 of 5 vertices:", kept)

# the signature, the reference definition of a context change, hashes the
# uncapped context by name; equal surroundings give equal signatures no
# matter how the triple file was ordered
print("signature:", hex(context_signature(sub_e1, g)))
