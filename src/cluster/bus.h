#ifndef DSSP_CLUSTER_BUS_H_
#define DSSP_CLUSTER_BUS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "dssp/channel.h"
#include "dssp/node.h"
#include "dssp/retry.h"

namespace dssp::cluster {

// In-process wire endpoint of one cluster member: the DirectChannel
// equivalent for the node<->node invalidation wire. Accepts sealed
// kInvalidateRequest frames, applies them to the member's DsspNode, and
// answers with a sealed kInvalidateResponse — so the publishing side can run
// the ordinary RetryingClient (and, wrapped in a FaultInjectingChannel, the
// ordinary fault model) against it.
//
// At-most-once: each frame carries a nonce; a retried or transport-
// duplicated frame whose nonce was already applied returns the stored
// invalidation count without touching the node — re-running would not break
// cache correctness (invalidation is idempotent on entries) but WOULD
// advance the staleness epoch twice, silently tightening every k-staleness
// bound derived from it.
//
// Tenant isolation: notices apply under a lock of their own app, so one
// tenant's invalidation never waits on another's. The nonce map is locked
// only while it is read or written; a concurrent duplicate of a nonce
// carries the same app, waits on that app's lock, and is then suppressed.
//
// Kill() simulates a crash or partition of this member: every frame is
// dropped undelivered until Revive(). The node object itself stays intact,
// exactly like a process that lost its network: its (possibly stale) cache
// survives to the rejoin, which is why the rejoin path must drain the
// pending queue before the member serves again.
class NodeChannel : public service::Channel {
 public:
  static constexpr size_t kDedupWindow = 65536;

  explicit NodeChannel(service::DsspNode& node) : node_(node) {}

  service::ChannelOutcome RoundTrip(std::string_view frame) override;

  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  uint64_t notices_applied() const {
    return notices_applied_.load(std::memory_order_relaxed);
  }
  uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }
  uint64_t batches_received() const {
    return batches_received_.load(std::memory_order_relaxed);
  }

 private:
  // Decodes, validates, nonce-dedups, and applies one kInvalidateRequest
  // frame under its app's apply lock. Returns the entries invalidated, or
  // the (deterministic) refusal status.
  StatusOr<uint64_t> ApplyNotice(std::string_view inner);

  // The lock notices of `app_id` apply under. Only apps registered on the
  // node get their own; frames for unknown apps share one, so a peer cannot
  // grow this state without bound.
  Mutex& ApplyLockFor(const std::string& app_id);

  // Handles an unsealed kInvalidateBatchRequest; returns the unsealed
  // response frame (kInvalidateBatchResponse, or kError for a malformed
  // envelope).
  std::string HandleBatch(std::string_view inner);

  service::DsspNode& node_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> notices_applied_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};
  std::atomic<uint64_t> batches_received_{0};

  Mutex apply_locks_mu_;
  std::map<std::string, std::unique_ptr<Mutex>, std::less<>> apply_locks_
      DSSP_GUARDED_BY(apply_locks_mu_);
  Mutex unknown_app_apply_mu_;

  // Nonce -> entries invalidated, bounded FIFO (mirrors HomeServer's update
  // dedup).
  Mutex dedup_mu_;
  std::unordered_map<uint64_t, uint64_t> applied_nonces_
      DSSP_GUARDED_BY(dedup_mu_);
  std::deque<uint64_t> dedup_fifo_ DSSP_GUARDED_BY(dedup_mu_);

  // Batch envelopes get their own dedup map (nonce -> full encoded
  // response) so a retried batch whose response was lost replays the stored
  // acks verbatim; the per-notice map stays the authoritative guard — a
  // notice that already arrived via a singleton frame is suppressed even
  // when it reappears inside a batch.
  Mutex batch_mu_;
  std::unordered_map<uint64_t, std::string> applied_batches_
      DSSP_GUARDED_BY(batch_mu_);
  std::deque<uint64_t> batch_fifo_ DSSP_GUARDED_BY(batch_mu_);
};

struct BusOptions {
  // Staleness bound: the most undelivered notices a reachable member may
  // accumulate before Publish synchronously drains it. 0 (default) delivers
  // on every publish — the strongest bound, and what the consistency oracle
  // runs under. A member lagging beyond the bound must not serve lookups
  // (the router enforces this via Pending()). The bound counts NOTICES, not
  // wire frames, so it is identical under batched and unbatched fan-out.
  size_t bus_lag = 0;
  // Most notices coalesced into one sealed kInvalidateBatchRequest frame
  // when a drain finds more than one queued. 1 (default) = legacy
  // frame-per-notice wire, byte-identical to the pre-batching bus. Under
  // update storms, a batch of N amortizes one seal/retry round trip over N
  // notices; per-member FIFO order and the invalidation set are unchanged.
  size_t max_batch = 1;
  service::RetryPolicy retry;
  uint64_t seed = 0xB05B05B0;
};

// Per-publish outcome, aggregated over members.
struct PublishOutcome {
  uint64_t entries_invalidated = 0;  // Summed over members delivered to now.
  int delivered_members = 0;
  int deferred_members = 0;  // Queued within the lag bound or marked down.
  int failed_members = 0;    // Wire retry budget exhausted; notice kept.
};

// Cumulative bus counters (relaxed-atomic snapshot). Permanent drops and
// transient unreachability are deliberately separate: a dropped frame
// vanished from its queue (the member refused it — deterministic, never
// retried), while an unreachable failure keeps the frame queued for the
// next drain. Conflating them would let silently-vanished notices hide
// inside ordinary wire noise.
struct BusStats {
  uint64_t published = 0;           // Publish calls (one notice each).
  uint64_t delivered_notices = 0;   // Notices acknowledged by a member.
  uint64_t batches_sent = 0;        // Multi-notice frames put on the wire.
  uint64_t batched_notices = 0;     // Notices that rode those frames.
  uint64_t dropped_frames = 0;      // Refused notices, removed from queues.
  uint64_t unreachable_failures = 0;  // Wire budget exhausted; frames kept.
  uint64_t wire_retries = 0;        // RetryingClient retries, all members.
  // Seal-valid acks that did not decode, or batch acks whose count differs
  // from the batch; their notices are counted in dropped_frames.
  uint64_t malformed_acks = 0;
};

// Fans each exposure-gated UpdateNotice out to every member node over the
// hardened wire path (sealed frames, bounded-backoff retries, nonce dedup —
// all inherited from the PR-2 machinery, so a lossy inter-node wire gets
// fault tolerance for free). Every member has one FIFO lane per app; a frame
// leaves its lane only once its delivery is acknowledged, so an unreachable
// member accumulates exactly the notices it missed and replays them, in
// order per app, when the router drains it at rejoin. Notices of different
// apps need no order between them: they touch disjoint per-app caches and
// update epochs.
//
// Thread-safe. A publish locks only its own app's lane on each member, so
// neither a slow member nor another tenant's invalidation blocks fan-out.
// Pending() and Dropped() read the member's *settled* backlog: per-member
// atomics every lane updates just before it releases its lock. A notice
// whose Publish is still in flight is not counted: its update has not
// returned, so a concurrent lookup may be ordered before it.
class InvalidationBus {
 public:
  explicit InvalidationBus(BusOptions options = BusOptions{});

  InvalidationBus(const InvalidationBus&) = delete;
  InvalidationBus& operator=(const InvalidationBus&) = delete;

  // Registers a member reachable over `channel` (not owned; must outlive
  // the bus). Members must be added before the first Publish.
  void AddMember(int node, service::Channel* channel);

  // Observer invoked after every completed wire call to a member:
  // (node, ok). The router wires this into the MembershipTable, making bus
  // deliveries the failure detector's primary signal source. It runs under
  // a lane lock and must not call back into the bus.
  void SetWireObserver(std::function<void(int node, bool ok)> observer);

  // Marks a member deferred: Publish only queues for it, never attempts
  // delivery (the router defers members it has declared down, so a dead
  // node does not cost a retry storm on every update).
  void SetDeferred(int node, bool deferred);

  // Encodes the notice once and enqueues it on its app's lane of every
  // member. A non-deferred member whose backlog, counted across all of its
  // lanes, then exceeds the lag bound is drained: this app's lane first,
  // then the member's other lanes, one lane lock at a time.
  PublishOutcome Publish(const std::string& app_id,
                         const service::UpdateNotice& notice);

  // Drains every lane of one member, each in FIFO order — coalescing up to
  // max_batch notices per wire frame — stopping at the first frame whose
  // delivery fails (that frame and everything behind it stay queued).
  // Returns the notices replayed, or the wire error.
  StatusOr<uint64_t> Flush(int node);

  // The member's settled backlog: queued notices over all its lanes.
  size_t Pending(int node) const;

  // Notices this member refused (deterministically) and the bus therefore
  // dropped. A member with dropped notices is permanently behind by that
  // many updates with nothing left to replay — the router must treat it as
  // backlog-unsafe for k-staleness reads.
  uint64_t Dropped(int node) const;

  BusStats stats() const;

 private:
  // One member's FIFO queue of one app's encoded notices.
  struct Lane {
    Mutex mu;
    std::deque<std::string> queue DSSP_GUARDED_BY(mu);
    // queue.size() as last folded into Member::pending (written under mu).
    std::atomic<size_t> settled{0};
    // Refusals not yet folded into Member::dropped.
    uint64_t unsettled_dropped DSSP_GUARDED_BY(mu) = 0;
  };

  struct Member {
    int node = 0;
    size_t slot = 0;  // Index into AppLanes::lanes.
    service::Channel* channel = nullptr;
    std::unique_ptr<service::RetryingClient> client;
    std::atomic<bool> deferred{false};
    std::atomic<size_t> pending{0};    // Sum of the lanes' settled sizes.
    std::atomic<uint64_t> dropped{0};  // Settled refusals.
  };

  // One app's lane on every member, indexed by Member::slot.
  struct AppLanes {
    std::vector<std::unique_ptr<Lane>> lanes;
  };

  struct DrainResult {
    uint64_t frames = 0;   // Notices acknowledged (applied or deduped).
    uint64_t entries = 0;  // Cache entries those notices invalidated.
  };

  Member& MemberAt(int node) const;

  // The lanes of `app_id`, created on its first publish.
  AppLanes& LanesFor(const std::string& app_id);
  // Every app's lanes, in app id order.
  std::vector<AppLanes*> AllLanes() const;

  // Folds the lane's queue size and refusals into the member's atomics.
  static void Settle(Member& member, Lane& lane) DSSP_REQUIRES(lane.mu);

  // Drains lane.queue.
  StatusOr<DrainResult> DrainLocked(Member& member, Lane& lane)
      DSSP_REQUIRES(lane.mu);

  // Drains the member's lanes other than `skip`, one lane lock at a time;
  // `only_settled` skips lanes with no settled backlog (their in-flight
  // notices belong to the publishers holding them).
  StatusOr<DrainResult> DrainLanes(Member& member, const Lane* skip,
                                   bool only_settled);

  // One singleton / one batched wire exchange.
  StatusOr<DrainResult> SendSingleLocked(Member& member, Lane& lane)
      DSSP_REQUIRES(lane.mu);
  StatusOr<DrainResult> SendBatchLocked(Member& member, Lane& lane,
                                        size_t count) DSSP_REQUIRES(lane.mu);

  BusOptions options_;
  std::map<int, std::unique_ptr<Member>> members_;
  std::function<void(int, bool)> observer_;

  // App id -> lanes; insert-only, so handed-out pointers stay valid.
  mutable Mutex lanes_mu_;
  std::map<std::string, std::unique_ptr<AppLanes>, std::less<>> apps_
      DSSP_GUARDED_BY(lanes_mu_);

  std::atomic<uint64_t> next_nonce_{1};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> delivered_notices_{0};
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> batched_notices_{0};
  std::atomic<uint64_t> dropped_frames_{0};
  std::atomic<uint64_t> unreachable_failures_{0};
  std::atomic<uint64_t> wire_retries_{0};
  std::atomic<uint64_t> malformed_acks_{0};
};

}  // namespace dssp::cluster

#endif  // DSSP_CLUSTER_BUS_H_
