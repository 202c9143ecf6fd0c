"""Structure that decides long-run behavior: decisive links and cohesion.

A link (i, j) is decisive when some subset of i's other neighbors has total
weight just below 1/2 and adding w_ij tips it over -- j's opinion can then
actually swing i's update.  Low-weight links on high-weight rows are
"indecisive": they never matter, and pruning them exposes the network's
skeleton.  A cohesive set is a group whose members each keep at least half
their weight inside the group; such groups can sustain dissent forever.
"""

from fractions import Fraction as F

from median_consensus import (
    InfluenceNetwork,
    cohesive_expansion,
    enumerate_maximal_cohesive_sets,
    fixtures,
)
from median_consensus.network import (
    decisive_subgraph,
    has_globally_reachable_node,
    is_decisive,
    network_to_dot,
)

# a two-link row: the 3/5 link can tip node 1's update, the 2/5 link never
# can (no co-neighbor subset lands in the window just below 1/2)
tiny = InfluenceNetwork.from_rows([[F("3/5"), F("2/5")], [F(0), F(1)]])
print("row (3/5, 2/5): self-link decisive:", is_decisive(tiny, 0, 0),
      "| 2/5 link decisive:", is_decisive(tiny, 0, 1))
print()

net = fixtures.bridged_cliques(clique_size=3, cross="1/3")
print(f"bridged cliques: {net.n} nodes, {net.edge_count} links")

sub = decisive_subgraph(net)
print(f"decisive links: {len(sub.edges)}, indecisive: {len(sub.indecisive_edges)}")

exists, witness = has_globally_reachable_node(sub)
print(f"globally reachable node in the decisive subgraph: {exists}"
      + (f" (node {witness + 1})" if exists else ""))
print()

print("maximal cohesive sets:")
for s in enumerate_maximal_cohesive_sets(net):
    print("  ", sorted(i + 1 for i in s))
print()

# cohesive expansion grows a seed group by admitting any outsider that puts
# a strict majority of its weight on the group; the result never depends on
# admission order
trace = cohesive_expansion(net, {0, 1})
print("expansion of {1, 2}:", sorted(i + 1 for i in trace.result),
      "admitted:", [(i + 1, step) for i, step in trace.additions])
print()

# contrast: the fully mixed graph has no substructure to hide in
complete = fixtures.complete_uniform(6)
print("complete uniform n=6 maximal cohesive sets:",
      [sorted(i + 1 for i in s) for s in enumerate_maximal_cohesive_sets(complete)])
print()

print("DOT export (first lines):")
print("\n".join(network_to_dot(net).splitlines()[:6]))
