// Synthetic strongly-connected digraph families.
//
// The paper has no system evaluation, so these families are the workloads our
// experiment harness runs the schemes on.  They are chosen to stress the
// quantities the theory cares about:
//
//  * random_strongly_connected -- Erdos-Renyi-style digraphs on a random
//    Hamiltonian backbone; the "typical" case.
//  * one_way_grid              -- planar grid with alternating one-way rows /
//    columns (Manhattan streets): large asymmetry d(u,v) != d(v,u), the
//    regime roundtrip routing exists for.
//  * ring_with_chords          -- one-way ring plus random chords: extreme
//    asymmetry, d(v,u) can be ~n while d(u,v) = 1.
//  * scale_free                -- preferential-attachment digraph over a ring
//    backbone: heavy-tailed degrees stress table-size accounting.
//  * bidirected_random         -- every edge paired with its reverse at equal
//    weight, so d(u,v) = d(v,u); the Section 5 lower-bound regime (the
//    Gavoille-Gengler construction is a bidirected network).
//  * complete_digraph          -- small dense sanity-check family.
//
// All generators return GraphBuilders whose graphs are strongly connected by
// construction and use integer weights in [1, max_weight].  Callers let the
// Section 1.1.3 adversary relabel ports on the builder, then freeze() it
// into the immutable CSR Digraph everything downstream consumes.
#ifndef RTR_GRAPH_GENERATORS_H
#define RTR_GRAPH_GENERATORS_H

#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/rng.h"

namespace rtr {

/// Random digraph: random Hamiltonian cycle (guarantees strong connectivity)
/// plus extra random arcs until average out-degree ~ avg_out_degree.
[[nodiscard]] GraphBuilder random_strongly_connected(NodeId n, double avg_out_degree,
                                                Weight max_weight, Rng& rng);

/// rows x cols one-way torus where row r cycles left-to-right iff r is even
/// and column c cycles top-to-bottom iff c is even (a Manhattan Street
/// Network; odd dimensions are bumped up by one to keep adjacent streets
/// counter-directed).
[[nodiscard]] GraphBuilder one_way_grid(NodeId rows, NodeId cols, Weight max_weight,
                                   Rng& rng);

/// One-way cycle 0 -> 1 -> ... -> n-1 -> 0 plus `chords` random forward arcs.
[[nodiscard]] GraphBuilder ring_with_chords(NodeId n, NodeId chords, Weight max_weight,
                                       Rng& rng);

/// Preferential attachment: ring backbone, then each node adds `attach`
/// out-arcs to endpoints chosen proportionally to current in-degree + 1.
[[nodiscard]] GraphBuilder scale_free(NodeId n, NodeId attach, Weight max_weight,
                                 Rng& rng);

/// Connected random undirected multigraph skeleton (spanning tree + extra
/// edges), each undirected edge emitted as two opposite arcs of equal weight.
/// Guarantees d(u,v) == d(v,u) for all pairs -- the Section 5 regime.
[[nodiscard]] GraphBuilder bidirected_random(NodeId n, double avg_degree,
                                        Weight max_weight, Rng& rng);

/// Dense bidirected gadget in the spirit of the Gavoille-Gengler lower-bound
/// graphs: a bipartite core (n/2 x n/2 random bipartite adjacency, weight-1
/// bidirected edges) plus a weight-2 bidirected matching that keeps the graph
/// connected.  Distances between core vertices are 1 or >= 2 depending on the
/// adjacency bit -- the information-theoretic payload of Theorem 15.
[[nodiscard]] GraphBuilder lower_bound_gadget(NodeId n, double density, Rng& rng);

/// Complete digraph with random weights.
[[nodiscard]] GraphBuilder complete_digraph(NodeId n, Weight max_weight, Rng& rng);

/// Named family dispatch used by parameterized tests and benches.
enum class Family {
  kRandom,
  kGrid,
  kRing,
  kScaleFree,
  kBidirected,
};

[[nodiscard]] std::string family_name(Family f);

/// Inverse of family_name, also accepting the short spellings the tools'
/// command lines take ("ring", "scalefree", "scale_free", "power-law").
/// Throws std::invalid_argument for any other name.
[[nodiscard]] Family parse_family(const std::string& name);

/// Builds a member of the family with roughly n nodes (grids round to the
/// nearest even dimensions).
[[nodiscard]] GraphBuilder make_family(Family f, NodeId n, Weight max_weight, Rng& rng);

/// All families, for sweep loops.
[[nodiscard]] const std::vector<Family>& all_families();

}  // namespace rtr

#endif  // RTR_GRAPH_GENERATORS_H
