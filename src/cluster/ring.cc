#include "cluster/ring.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/hash.h"
#include "common/macros.h"

namespace dssp::cluster {

namespace {

// Distinct SipHash key halves for ring positions vs. cache keys, so a cache
// key can never be engineered to collide with a virtual-node position.
constexpr uint64_t kVnodeK1 = 0x72696e672d766e64ULL;  // "ring-vnd"
constexpr uint64_t kKeyK1 = 0x72696e672d6b6579ULL;    // "ring-key"

uint64_t VnodePoint(uint64_t seed, int node, int vnode) {
  char buf[8];
  const uint32_t n = static_cast<uint32_t>(node);
  const uint32_t v = static_cast<uint32_t>(vnode);
  std::memcpy(buf, &n, 4);
  std::memcpy(buf + 4, &v, 4);
  return SipHash24(seed, kVnodeK1, std::string_view(buf, sizeof(buf)));
}

}  // namespace

HashRing::HashRing(uint64_t seed, int vnodes_per_node)
    : seed_(seed), vnodes_(vnodes_per_node) {
  DSSP_CHECK(vnodes_ > 0);
}

void HashRing::AddNode(int node) {
  DSSP_CHECK(node >= 0);
  if (!nodes_.insert(node).second) return;
  points_.reserve(points_.size() + static_cast<size_t>(vnodes_));
  for (int v = 0; v < vnodes_; ++v) {
    points_.push_back(Point{VnodePoint(seed_, node, v), node});
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.position != b.position ? a.position < b.position
                                              : a.node < b.node;
            });
}

void HashRing::RemoveNode(int node) {
  if (nodes_.erase(node) == 0) return;
  std::erase_if(points_, [node](const Point& p) { return p.node == node; });
}

uint64_t HashRing::KeyPoint(std::string_view key) const {
  return SipHash24(seed_, kKeyK1, key);
}

size_t HashRing::FirstPointAtOrAfter(uint64_t position) const {
  return static_cast<size_t>(
      std::partition_point(points_.begin(), points_.end(),
                           [position](const Point& p) {
                             return p.position < position;
                           }) -
      points_.begin());
}

int HashRing::OwnerOf(std::string_view key) const {
  const std::vector<int> owners = Owners(key, 1);
  return owners.empty() ? -1 : owners[0];
}

std::vector<double> HashRing::LoadShares(size_t probes) const {
  const int max_node = nodes_.empty() ? -1 : *nodes_.rbegin();
  std::vector<double> shares(static_cast<size_t>(max_node + 1), 0.0);
  if (points_.empty() || probes == 0) return shares;
  for (size_t i = 0; i < probes; ++i) {
    const int owner = OwnerOf("probe:" + std::to_string(i));
    shares[static_cast<size_t>(owner)] += 1.0 / static_cast<double>(probes);
  }
  return shares;
}

}  // namespace dssp::cluster
