#ifndef DSSP_CLUSTER_RING_H_
#define DSSP_CLUSTER_RING_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

namespace dssp::cluster {

// Seeded consistent-hash ring with virtual nodes: routes each cache key to
// an owner node plus R-1 distinct replicas, and remaps only ~1/N of the key
// space when a node joins or leaves (the property that makes membership
// churn survivable with warm caches).
//
// Placement is a pure function of (seed, member set): every router replica
// computing over the same membership view agrees on owners without any
// coordination. Virtual nodes smooth the per-node key-space share; 64 per
// node keeps the max/min load ratio within ~1.3 for small clusters.
//
// OwnersWhere() places over a subset of the members without rebuilding: it
// walks the full ring and skips the excluded members' virtual nodes, which
// is exactly the placement of a ring holding only the included ones. The
// ClusterRouter builds one ring over every member at construction and reads
// it immutably, filtering by live membership health.
//
// Not thread-safe for mutation; const methods may run concurrently.
class HashRing {
 public:
  static constexpr int kDefaultVnodes = 64;

  explicit HashRing(uint64_t seed, int vnodes_per_node = kDefaultVnodes);

  // Adding an existing node or removing a missing one is a no-op, so the
  // router can reconcile toward a membership view idempotently.
  void AddNode(int node);
  void RemoveNode(int node);
  bool HasNode(int node) const { return nodes_.contains(node); }
  size_t num_nodes() const { return nodes_.size(); }

  // The nodes responsible for `key`, owner first, then up to replicas-1
  // distinct fallbacks in ring (preference) order. Returns fewer when the
  // ring has fewer members; empty on an empty ring.
  std::vector<int> Owners(std::string_view key, size_t replicas) const {
    return OwnersWhere(key, replicas, [](int) { return true; });
  }

  // Owners() of the ring holding only the members for which
  // `included(node)` is true.
  template <typename Included>
  std::vector<int> OwnersWhere(std::string_view key, size_t replicas,
                               Included&& included) const;

  // Owners(key, 1), or -1 on an empty ring.
  int OwnerOf(std::string_view key) const;

  // Fraction of `probes` sampled keys owned by each node (diagnostics: the
  // cluster ablation reports placement balance).
  std::vector<double> LoadShares(size_t probes) const;

 private:
  struct Point {
    uint64_t position;
    int node;
  };

  uint64_t KeyPoint(std::string_view key) const;
  // Index of the first point at or after `position` (points_.size() when
  // none).
  size_t FirstPointAtOrAfter(uint64_t position) const;

  uint64_t seed_;
  int vnodes_;
  // Every member's virtual nodes, sorted by (position, node). On the
  // astronomically unlikely 64-bit collision both points are kept and the
  // smaller included node wins the position, keeping placement a pure
  // function of the member set.
  std::vector<Point> points_;
  std::set<int> nodes_;
};

template <typename Included>
std::vector<int> HashRing::OwnersWhere(std::string_view key, size_t replicas,
                                       Included&& included) const {
  std::vector<int> owners;
  if (points_.empty() || replicas == 0) return owners;
  const size_t want = std::min(replicas, nodes_.size());
  owners.reserve(want);
  // Walk clockwise from the key's position, collecting distinct nodes.
  size_t i = FirstPointAtOrAfter(KeyPoint(key));
  bool claimed = false;
  uint64_t claimed_position = 0;
  for (size_t step = 0; step < points_.size() && owners.size() < want;
       ++step, ++i) {
    if (i == points_.size()) i = 0;
    const Point& point = points_[i];
    if (claimed && point.position == claimed_position) continue;
    if (!included(point.node)) continue;
    claimed = true;
    claimed_position = point.position;
    bool seen = false;
    for (int node : owners) seen = seen || node == point.node;
    if (!seen) owners.push_back(point.node);
  }
  return owners;
}

}  // namespace dssp::cluster

#endif  // DSSP_CLUSTER_RING_H_
