#include "cover/double_tree.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "audit/audit.h"

namespace rtr {

DoubleTree::DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
                       std::vector<NodeId> members, DijkstraWorkspace& ws) {
  if (std::adjacent_find(members.begin(), members.end(),
                         std::greater_equal<>{}) != members.end()) {
    throw std::invalid_argument("DoubleTree: members not sorted and unique");
  }
  if (!std::binary_search(members.begin(), members.end(), center)) {
    throw std::invalid_argument("DoubleTree: center not among members");
  }
  MemberTree out;
  MemberTree in;
  dijkstra_out_tree_members(g, center, members, ws, out);
  dijkstra_in_tree_members(g, reversed, center, members, ws, in);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (out.dist[i] >= kInfDist || in.dist[i] >= kInfDist) {
      throw std::invalid_argument(
          "DoubleTree: induced subgraph is not strongly connected");
    }
    rt_height_ = std::max(rt_height_, out.dist[i] + in.dist[i]);
  }
  up_port_ = std::move(in.port);
  up_dist_ = std::move(in.dist);
  down_dist_ = std::move(out.dist);
  out_router_ = TreeRouter(center, std::move(members), std::move(out.link),
                           std::move(out.port));
}

std::size_t DoubleTree::stored_slots() const {
  return std::max({up_port_.size(), up_dist_.size(), down_dist_.size(),
                   out_router_.stored_slots()});
}

void DoubleTree::audit(AuditReport& report) const {
  auto scope = report.scope("double-tree");
  const auto m = static_cast<std::size_t>(member_count());

  const bool sized = up_port_.size() == m && up_dist_.size() == m &&
                     down_dist_.size() == m;
  report.check("arrays-sized", sized,
               "up ports and distances must hold exactly member_count() "
               "entries");
  if (!sized) return;

  const std::int32_t center_index = index_of(center());
  report.check("center-is-member", center_index >= 0,
               "center " + std::to_string(center()));

  bool reach_ok = true;
  std::string reach_detail;
  Dist recomputed_height = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId v = members()[i];
    if (down_dist_[i] >= kInfDist || up_dist_[i] >= kInfDist) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) +
                     " unreachable inside the induced subgraph";
      break;
    }
    if (v != center() && up_port_[i] == kNoPort) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) + " has no up port";
      break;
    }
    recomputed_height = std::max(recomputed_height, down_dist_[i] + up_dist_[i]);
  }
  report.check("members-reach-center", reach_ok, std::move(reach_detail));
  if (reach_ok) {
    report.check("rt-height-cached", recomputed_height == rt_height_,
                 "cached " + std::to_string(rt_height_) + ", recomputed " +
                     std::to_string(recomputed_height));
  }
  out_router_.audit(report);
}

DoubleTree::DoubleTree(Dist rt_height, FlatVec<Port> up_port,
                       FlatVec<Dist> up_dist, FlatVec<Dist> down_dist,
                       TreeRouter out_router)
    : rt_height_(rt_height),
      up_port_(std::move(up_port)),
      up_dist_(std::move(up_dist)),
      down_dist_(std::move(down_dist)),
      out_router_(std::move(out_router)) {
  const auto m = static_cast<std::size_t>(out_router_.member_count());
  if (up_port_.size() != m || up_dist_.size() != m || down_dist_.size() != m) {
    throw std::invalid_argument(
        "DoubleTree: adopted arrays disagree with the member count");
  }
}

}  // namespace rtr
