#include "cluster/membership.h"

#include "common/macros.h"

namespace dssp::cluster {

const char* NodeHealthName(NodeHealth health) {
  switch (health) {
    case NodeHealth::kAlive:
      return "alive";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDown:
      return "down";
  }
  DSSP_UNREACHABLE("bad NodeHealth");
}

MembershipTable::MembershipTable(MembershipPolicy policy) : policy_(policy) {
  DSSP_CHECK(policy_.suspect_after > 0 &&
             policy_.down_after >= policy_.suspect_after);
}

void MembershipTable::AddNode(int node) {
  DSSP_CHECK(node >= 0);
  const size_t index = static_cast<size_t>(node);
  if (index >= members_.size()) members_.resize(index + 1);
  if (members_[index] == nullptr) members_[index] = std::make_unique<Member>();
}

MembershipTable::Member& MembershipTable::At(int node) const {
  DSSP_CHECK(node >= 0 && static_cast<size_t>(node) < members_.size() &&
             members_[static_cast<size_t>(node)] != nullptr);
  return *members_[static_cast<size_t>(node)];
}

NodeHealth MembershipTable::health(int node) const {
  return At(node).health.load(std::memory_order_acquire);
}

bool MembershipTable::Servable(int node) const {
  return health(node) != NodeHealth::kDown;
}

bool MembershipTable::ReportFailure(int node) {
  Member& member = At(node);
  MutexLock lock(mu_);
  const NodeHealth health = member.health.load(std::memory_order_relaxed);
  if (health == NodeHealth::kDown) return false;
  const int failures =
      member.consecutive_failures.load(std::memory_order_relaxed) + 1;
  member.consecutive_failures.store(failures, std::memory_order_relaxed);
  NodeHealth next = health;
  if (failures >= policy_.down_after) {
    next = NodeHealth::kDown;
  } else if (failures >= policy_.suspect_after) {
    next = NodeHealth::kSuspect;
  }
  if (next == health) return false;
  member.health.store(next, std::memory_order_release);
  if (next == NodeHealth::kSuspect) ++member.counters.suspect_transitions;
  if (next == NodeHealth::kDown) ++member.counters.down_transitions;
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

bool MembershipTable::ReportSuccess(int node) {
  Member& member = At(node);
  // Every bus delivery reports a success; on a healthy member it changes
  // nothing, so it need not lock. (A failure racing with this read is
  // simply ordered after it.)
  if (member.health.load(std::memory_order_acquire) == NodeHealth::kAlive &&
      member.consecutive_failures.load(std::memory_order_acquire) == 0) {
    return false;
  }
  MutexLock lock(mu_);
  member.consecutive_failures.store(0, std::memory_order_relaxed);
  if (member.health.load(std::memory_order_relaxed) != NodeHealth::kSuspect) {
    return false;
  }
  member.health.store(NodeHealth::kAlive, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

bool MembershipTable::Rejoin(int node) {
  Member& member = At(node);
  MutexLock lock(mu_);
  if (member.health.load(std::memory_order_relaxed) != NodeHealth::kDown) {
    return false;
  }
  member.consecutive_failures.store(0, std::memory_order_relaxed);
  member.health.store(NodeHealth::kAlive, std::memory_order_release);
  ++member.counters.rejoins;
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

std::vector<int> MembershipTable::ServableNodes() const {
  std::vector<int> nodes;
  nodes.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] != nullptr &&
        members_[i]->health.load(std::memory_order_acquire) !=
            NodeHealth::kDown) {
      nodes.push_back(static_cast<int>(i));
    }
  }
  return nodes;
}

MemberCounters MembershipTable::counters(int node) const {
  const Member& member = At(node);
  MutexLock lock(mu_);
  return member.counters;
}

}  // namespace dssp::cluster
