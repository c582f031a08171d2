#ifndef DSSP_CLUSTER_MEMBERSHIP_H_
#define DSSP_CLUSTER_MEMBERSHIP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"

namespace dssp::cluster {

// A member's health as seen by the router, driven by consecutive wire
// failures (there is no gossip layer: in the paper's topology the router
// front-ends every node, so its own wire observations are the failure
// detector).
//
//   kAlive ---failures >= suspect_after---> kSuspect
//   kSuspect --failures >= down_after-----> kDown
//   kSuspect --any wire success-----------> kAlive
//   kDown ----explicit Rejoin-------------> kAlive
//
// A suspect node still serves (its last observation might have been a
// transient drop) but the router prefers healthier replicas for stores. A
// down node is excluded from the ring until the invalidation bus has
// drained its pending-notice queue and Rejoin is called — serving from a
// node that missed invalidations would violate the staleness bound.
enum class NodeHealth { kAlive, kSuspect, kDown };

const char* NodeHealthName(NodeHealth health);

struct MembershipPolicy {
  int suspect_after = 2;  // Consecutive wire failures -> kSuspect.
  int down_after = 4;     // Consecutive wire failures -> kDown.
};

// Lifetime transition counters for one member.
struct MemberCounters {
  uint64_t suspect_transitions = 0;
  uint64_t down_transitions = 0;
  uint64_t rejoins = 0;
};

// Health registry for a fixed member set: add every member before the
// table is shared between threads. Thread-safe afterwards; health reads
// (health, Servable, ServableNodes) are lock-free atomic loads, so the
// router's per-lookup checks never wait on a transition. Transitions
// serialize on one mutex and bump a global epoch so the router can tell
// that placement changed without polling each member.
class MembershipTable {
 public:
  explicit MembershipTable(MembershipPolicy policy = MembershipPolicy{});

  void AddNode(int node);

  NodeHealth health(int node) const;
  bool Servable(int node) const;  // health != kDown.

  // Wire observations. Each returns true when the member's health changed
  // (the caller should then rebuild routing state). A success clears the
  // consecutive-failure streak and recovers a suspect, but never revives a
  // down node: that requires Rejoin, gated on bus-queue drain.
  bool ReportFailure(int node);
  bool ReportSuccess(int node);

  // kDown -> kAlive with a cleared failure streak. No-op unless down.
  bool Rejoin(int node);

  // Bumped on every health transition; reading it is lock-free.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  std::vector<int> ServableNodes() const;
  MemberCounters counters(int node) const;
  const MembershipPolicy& policy() const { return policy_; }

 private:
  struct Member {
    // Written under mu_; read lock-free.
    std::atomic<NodeHealth> health{NodeHealth::kAlive};
    std::atomic<int> consecutive_failures{0};
    MemberCounters counters;  // Guarded by mu_.
  };

  Member& At(int node) const;

  MembershipPolicy policy_;
  mutable Mutex mu_;
  // Indexed by node id (null: no such member). Grows only in AddNode.
  std::vector<std::unique_ptr<Member>> members_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace dssp::cluster

#endif  // DSSP_CLUSTER_MEMBERSHIP_H_
