// Algorithm ExStretch: the generalized TINN scheme with an exponential
// stretch/space tradeoff (paper Section 3, pseudocode Figs. 4 and 6).
//
// Names are written in base q = ceil(n^{1/k}); blocks group names by their
// (k-1)-digit prefix; Lemma 4 distributes O(log n) blocks per node so that
// every neighborhood N_i(v) holds every realizable i-digit prefix.  Each node
// u stores, per held block and per (level i, next digit tau), the *nearest*
// node (by roundtrip distance) holding a block whose prefix extends the
// match, together with the handshake label R2(u, that node); plus R2(u, v)
// for its immediate neighborhood N_1(u).
//
// A packet for t visits waypoints s = v_0, v_1, ..., v_k = t whose held
// blocks match ever longer prefixes of t, pushing each leg's R2 label onto a
// header stack; the acknowledgment pops the stack to retrace waypoints
// (Fig. 4's second loop).  Lemma 8: r(v_i, v_{i+1}) <= 2^i r(s, t); with our
// R2 legs costing at most beta(k) = 4(2k-1) times their pair's roundtrip
// distance (our substitution for the paper's 2k+eps spanner), the
// total roundtrip is <= beta(k) (2^k - 1) r(s,t).
#ifndef RTR_CORE_EXSTRETCH_H
#define RTR_CORE_EXSTRETCH_H

#include <memory>
#include <string>
#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "dict/block_assignment.h"
#include "net/simulator.h"
#include "rtz/handshake.h"

namespace rtr {

class ExStretchScheme {
 public:
  struct Options {
    int k = 3;  // tradeoff parameter (>= 2)
    BlockAssignmentOptions blocks;
    /// Construction fan-out (cover trees, neighborhoods, per-node tables);
    /// <= 0 resolves the process default.  Bit-identical for any value.
    int threads = 0;
  };

  ExStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                  const NameAssignment& names, Rng& rng, Options options);
  ExStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                  const NameAssignment& names, Rng& rng)
      : ExStretchScheme(g, metric, names, rng, Options{}) {}

  /// Appends every table, and the cover hierarchy under prefix + "h/", as
  /// typed arena sections under `prefix`.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena.
  /// `names` is the snapshot's own name assignment; forwarding never
  /// consults the graph.
  [[nodiscard]] static ExStretchScheme from_arena(const ArenaView& a,
                                                  const std::string& prefix,
                                                  const NameAssignment& names);

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  /// One pushed leg: enough to retrace it backwards (Fig. 4's pop loop).
  struct StackEntry {
    TreeRef tree;
    TreeLabel back_label;  // label of the leg's tail in that tree
  };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    NodeName src = kNoNode;
    std::int32_t hop = 0;          // index i of the current waypoint v_i
    NodeName waypoint = kNoNode;   // head of the in-flight leg
    std::vector<StackEntry> stack; // WaypointStack of Fig. 6
    DtLeg leg;
  };

  [[nodiscard]] Header make_packet(NodeName dest) const {
    Header h;
    h.dest = dest;
    return h;
  }
  void prepare_return(Header& h) const { h.mode = Mode::kReturn; }
  [[nodiscard]] Decision forward(NodeId at, Header& h) const;
  [[nodiscard]] std::int64_t header_bits(const Header& h) const;

  [[nodiscard]] TableStats table_stats() const;
  [[nodiscard]] std::string name() const {
    return "exstretch(k=" + std::to_string(alphabet_.k()) + ")";
  }

  /// The end-to-end stretch bound with our substituted R2 provider:
  /// beta(k) * (2^k - 1).
  [[nodiscard]] double stretch_bound() const;

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  [[nodiscard]] const CoverHierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] const BlockAssignment& block_assignment() const {
    return assignment_;
  }

  /// Auditable: delegates to the naming, alphabet, cover hierarchy, and
  /// block assignment, then checks the per-node dictionaries: one own label
  /// per tree membership, CSR offsets framing parallel arrays, sorted unique
  /// keys per row, every dictionary key decoding to a valid (level, prefix)
  /// pair, and in-range names.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  ExStretchScheme(NameAssignment names, Alphabet alphabet)
      : names_(std::move(names)), alphabet_(std::move(alphabet)) {}

  /// R2(at, .)'s label_u half: at's own label in `tree` (an R2 tree of
  /// at's always contains at).  An empty label for the tree-less entry of a
  /// waypoint that is `at` itself.
  [[nodiscard]] TreeLabel own_label(TreeRef tree, NodeId at) const;

  /// Pushes R2(at, v)'s retrace entry and launches its forward leg.
  [[nodiscard]] Decision launch(NodeId at, TreeRef tree, TreeLabel target,
                                Header& h) const;

  [[nodiscard]] std::int64_t pack(int i, PrefixValue p) const {
    return static_cast<std::int64_t>(i) * alphabet_.power(alphabet_.k()) + p;
  }

  /// Local waypoint advancement at the current waypoint node; either sets up
  /// the next leg (returns its first port) or concludes delivery.
  [[nodiscard]] Decision advance(NodeId at, Header& h) const;

  NameAssignment names_;
  Alphabet alphabet_;
  std::shared_ptr<const CoverHierarchy> hierarchy_;
  BlockAssignment assignment_;
  // Every R2(u, v) label u stores names a tree containing u and u's own
  // label in it; u keeps that label once per tree, indexed by membership
  // slot (CoverHierarchy::membership_slot), and each entry below keeps
  // only the tree and v's label.
  TreeLabelTable own_label_;
  // (2): R2(u, v) for v in N_1(u), CSR over nodes: row u's sorted names are
  // nbr_key_[nbr_off_[u] .. nbr_off_[u+1]); entry e's R2 tree is
  // nbr_tree_[e] and v's label nbr_label_.at(e).
  FlatVec<std::int64_t> nbr_off_;  // n + 1
  FlatVec<NodeName> nbr_key_;
  FlatVec<TreeRef> nbr_tree_;
  TreeLabelTable nbr_label_;
  // (3a)+(3b), CSR over nodes: keys pack(level i, value of the (i+1)-digit
  // target prefix), sorted per row; entry e names the nearest holder of a
  // matching block (dict_node_[e]) and the R2 label to it (tree
  // dict_tree_[e], the holder's label dict_label_.at(e)).
  FlatVec<std::int64_t> dict_off_;  // n + 1
  FlatVec<std::int64_t> dict_key_;
  FlatVec<NodeName> dict_node_;
  FlatVec<TreeRef> dict_tree_;
  TreeLabelTable dict_label_;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_CORE_EXSTRETCH_H
