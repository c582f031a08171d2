#include "cluster/bus.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>

#include "dssp/protocol.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace dssp::cluster {

using service::ChannelOutcome;
using service::ErrorResponse;
using service::InvalidateBatchRequest;
using service::InvalidateBatchResponse;
using service::InvalidateRequest;
using service::InvalidateResponse;
using service::MessageType;
using service::Seal;
using service::Unseal;
using service::UpdateNotice;

namespace {

constexpr uint64_t kNoTemplateWire = static_cast<uint64_t>(-1);

std::string SealedError(StatusCode code, std::string message) {
  return Seal(service::Encode(ErrorResponse{code, std::move(message)}));
}

}  // namespace

Mutex& NodeChannel::ApplyLockFor(const std::string& app_id) {
  MutexLock lock(apply_locks_mu_);
  const auto it = apply_locks_.find(app_id);
  if (it != apply_locks_.end()) return *it->second;
  if (!node_.HasApp(app_id)) return unknown_app_apply_mu_;
  return *apply_locks_.emplace(app_id, std::make_unique<Mutex>())
              .first->second;
}

StatusOr<uint64_t> NodeChannel::ApplyNotice(std::string_view inner) {
  DSSP_ASSIGN_OR_RETURN(InvalidateRequest request,
                        service::DecodeInvalidateRequest(inner));

  // Refuse a level byte outside the legal update range before force-casting
  // it into the enum; the node re-validates, but an arbitrary byte must not
  // reach enum-typed code at all.
  if (request.level > static_cast<uint8_t>(analysis::ExposureLevel::kStmt)) {
    return Status(StatusCode::kInvalidArgument,
                  "invalidate request exposure level out of range");
  }

  UpdateNotice notice;
  notice.level = static_cast<analysis::ExposureLevel>(request.level);
  notice.template_index =
      request.template_index == kNoTemplateWire
          ? service::CacheEntry::kNoTemplate
          : static_cast<size_t>(request.template_index);
  if (!request.statement_sql.empty()) {
    DSSP_ASSIGN_OR_RETURN(notice.statement, sql::Parse(request.statement_sql));
  }

  // Reject malformed/misrouted notices (e.g. a template index out of range
  // for this app) instead of applying them. Rejected notices are
  // deliberately NOT recorded in the nonce map: they applied nothing, so a
  // later corrected frame with the same nonce must not be suppressed as a
  // duplicate.
  DSSP_RETURN_IF_ERROR(node_.ValidateNotice(request.app_id, notice));

  // The app lock spans check, apply and record, so a concurrent duplicate
  // of this nonce (same app) cannot slip between them.
  MutexLock apply_lock(ApplyLockFor(request.app_id));
  {
    MutexLock lock(dedup_mu_);
    const auto it = applied_nonces_.find(request.nonce);
    if (it != applied_nonces_.end()) {
      duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  const uint64_t invalidated = node_.OnUpdate(request.app_id, notice);
  notices_applied_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(dedup_mu_);
  applied_nonces_.emplace(request.nonce, invalidated);
  dedup_fifo_.push_back(request.nonce);
  if (dedup_fifo_.size() > kDedupWindow) {
    applied_nonces_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  return invalidated;
}

std::string NodeChannel::HandleBatch(std::string_view inner) {
  auto batch = service::DecodeInvalidateBatchRequest(inner);
  if (!batch.ok()) {
    return service::Encode(
        ErrorResponse{batch.status().code(), batch.status().message()});
  }
  batches_received_.fetch_add(1, std::memory_order_relaxed);

  // At-most-once for the whole envelope: a retried batch (response lost on
  // the wire) replays the stored acks byte for byte instead of touching the
  // node again. The per-notice nonce check in ApplyNotice would suppress
  // re-applies anyway, but replaying the acks keeps duplicate accounting
  // exact.
  {
    MutexLock lock(batch_mu_);
    const auto it = applied_batches_.find(batch->nonce);
    if (it != applied_batches_.end()) {
      duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }

  InvalidateBatchResponse response;
  response.acks.reserve(batch->notices.size());
  for (const std::string& notice_frame : batch->notices) {
    InvalidateBatchResponse::Ack ack;
    auto applied = ApplyNotice(notice_frame);
    if (applied.ok()) {
      ack.accepted = true;
      ack.entries_invalidated = *applied;
    } else {
      ack.accepted = false;
      ack.code = applied.status().code();
    }
    response.acks.push_back(ack);
  }
  std::string encoded = service::Encode(response);
  MutexLock lock(batch_mu_);
  if (applied_batches_.emplace(batch->nonce, encoded).second) {
    batch_fifo_.push_back(batch->nonce);
    if (batch_fifo_.size() > kDedupWindow) {
      applied_batches_.erase(batch_fifo_.front());
      batch_fifo_.pop_front();
    }
  }
  return encoded;
}

ChannelOutcome NodeChannel::RoundTrip(std::string_view frame) {
  ChannelOutcome outcome;
  if (!alive()) return outcome;  // Crashed/partitioned: frame on the floor.

  outcome.home_deliveries = 1;
  outcome.delivered = true;

  auto inner = Unseal(frame);
  if (!inner.ok()) {
    outcome.response =
        SealedError(inner.status().code(), inner.status().message());
    return outcome;
  }

  if (service::PeekType(*inner) == MessageType::kInvalidateBatchRequest) {
    outcome.response = Seal(HandleBatch(*inner));
    return outcome;
  }

  const StatusOr<uint64_t> invalidated = ApplyNotice(*inner);
  if (!invalidated.ok()) {
    outcome.response = SealedError(invalidated.status().code(),
                                   invalidated.status().message());
    return outcome;
  }
  outcome.response = Seal(service::Encode(InvalidateResponse{*invalidated}));
  return outcome;
}

InvalidationBus::InvalidationBus(BusOptions options)
    : options_(std::move(options)) {}

void InvalidationBus::AddMember(int node, service::Channel* channel) {
  DSSP_CHECK(channel != nullptr);
  {
    MutexLock lock(lanes_mu_);
    DSSP_CHECK(apps_.empty());  // Lanes are sized to the member set.
  }
  auto member = std::make_unique<Member>();
  member->node = node;
  member->slot = members_.size();
  member->channel = channel;
  member->client = std::make_unique<service::RetryingClient>(
      channel, options_.retry,
      options_.seed ^ (static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  const bool inserted = members_.emplace(node, std::move(member)).second;
  DSSP_CHECK(inserted);
}

void InvalidationBus::SetWireObserver(
    std::function<void(int node, bool ok)> observer) {
  observer_ = std::move(observer);
}

InvalidationBus::Member& InvalidationBus::MemberAt(int node) const {
  const auto it = members_.find(node);
  DSSP_CHECK(it != members_.end());
  return *it->second;
}

void InvalidationBus::SetDeferred(int node, bool deferred) {
  MemberAt(node).deferred.store(deferred, std::memory_order_release);
}

InvalidationBus::AppLanes& InvalidationBus::LanesFor(
    const std::string& app_id) {
  MutexLock lock(lanes_mu_);
  const auto it = apps_.find(app_id);
  if (it != apps_.end()) return *it->second;
  auto lanes = std::make_unique<AppLanes>();
  lanes->lanes.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    lanes->lanes.push_back(std::make_unique<Lane>());
  }
  return *apps_.emplace(app_id, std::move(lanes)).first->second;
}

std::vector<InvalidationBus::AppLanes*> InvalidationBus::AllLanes() const {
  MutexLock lock(lanes_mu_);
  std::vector<AppLanes*> all;
  all.reserve(apps_.size());
  for (const auto& [app_id, lanes] : apps_) all.push_back(lanes.get());
  return all;
}

void InvalidationBus::Settle(Member& member, Lane& lane) {
  const size_t now = lane.queue.size();
  const size_t before = lane.settled.load(std::memory_order_relaxed);
  if (now > before) {
    member.pending.fetch_add(now - before, std::memory_order_release);
  } else if (now < before) {
    member.pending.fetch_sub(before - now, std::memory_order_release);
  }
  lane.settled.store(now, std::memory_order_relaxed);
  if (lane.unsettled_dropped > 0) {
    member.dropped.fetch_add(lane.unsettled_dropped,
                             std::memory_order_release);
    lane.unsettled_dropped = 0;
  }
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::SendSingleLocked(
    Member& member, Lane& lane) {
  DrainResult result;
  service::WireStats ws;
  auto response = member.client->Call(lane.queue.front(), &ws);
  wire_retries_.fetch_add(ws.retries, std::memory_order_relaxed);
  if (!response.ok()) {
    // Unreachable through the whole retry budget: the frame (and everything
    // queued behind it, order preserved) waits for the next drain.
    // Invalidations already applied by earlier frames stand.
    unreachable_failures_.fetch_add(1, std::memory_order_relaxed);
    if (observer_) observer_(member.node, false);
    return response.status();
  }
  if (observer_) observer_(member.node, true);
  bool delivered = false;
  if (service::PeekType(*response) == MessageType::kInvalidateResponse) {
    auto ack = service::DecodeInvalidateResponse(*response);
    if (ack.ok()) {
      delivered = true;
      ++result.frames;
      result.entries += ack->entries_invalidated;
      delivered_notices_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // A seal-valid ack that does not decode comes from a buggy or
      // version-skewed peer, not the wire: settle it like a refusal.
      malformed_acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!delivered) {
    // The member answered but rejected the frame (kError), or its ack was
    // unreadable: deterministic, so retrying is pointless — drop it and
    // keep the queue moving. The member is now permanently behind by this
    // notice; Dropped() exposes that to the router so stale reads stop
    // trusting its backlog count.
    dropped_frames_.fetch_add(1, std::memory_order_relaxed);
    ++lane.unsettled_dropped;
  }
  lane.queue.pop_front();
  return result;
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::SendBatchLocked(
    Member& member, Lane& lane, size_t count) {
  InvalidateBatchRequest batch;
  batch.nonce = next_nonce_.fetch_add(1, std::memory_order_relaxed);
  batch.notices.reserve(count);
  for (size_t i = 0; i < count; ++i) batch.notices.push_back(lane.queue[i]);

  service::WireStats ws;
  auto response = member.client->Call(service::Encode(batch), &ws);
  wire_retries_.fetch_add(ws.retries, std::memory_order_relaxed);
  if (!response.ok()) {
    // The whole envelope failed on the wire; every notice stays queued, in
    // order, exactly as under the unbatched path. One unreachable_failure
    // per wire exchange (not per notice) — the counter tracks wire events.
    unreachable_failures_.fetch_add(1, std::memory_order_relaxed);
    if (observer_) observer_(member.node, false);
    return response.status();
  }
  if (observer_) observer_(member.node, true);
  batches_sent_.fetch_add(1, std::memory_order_relaxed);
  batched_notices_.fetch_add(count, std::memory_order_relaxed);

  DrainResult result;
  std::optional<InvalidateBatchResponse> acks;
  if (service::PeekType(*response) == MessageType::kInvalidateBatchResponse) {
    auto decoded = service::DecodeInvalidateBatchResponse(*response);
    if (decoded.ok() && decoded->acks.size() == count) {
      acks = std::move(*decoded);
    } else {
      // An undecodable ack list, or one that does not settle exactly the
      // notices sent, comes from a buggy or version-skewed peer: which
      // notices it applied is unknowable, so the whole batch is dropped.
      malformed_acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (acks.has_value()) {
    // Partial-ack: each notice settles on its own — an accepted one counts
    // as delivered, a refused one as dropped (deterministic refusal, never
    // retried) — so one bad notice cannot poison the batch around it.
    for (const auto& ack : acks->acks) {
      if (ack.accepted) {
        ++result.frames;
        result.entries += ack.entries_invalidated;
        delivered_notices_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dropped_frames_.fetch_add(1, std::memory_order_relaxed);
        ++lane.unsettled_dropped;
      }
    }
  } else {
    // The member refused the whole envelope (malformed batch — defensive;
    // we built it ourselves) or answered with a malformed ack list.
    // Deterministic, so drop all of it.
    dropped_frames_.fetch_add(count, std::memory_order_relaxed);
    lane.unsettled_dropped += count;
  }
  lane.queue.erase(lane.queue.begin(),
                   lane.queue.begin() + static_cast<ptrdiff_t>(count));
  return result;
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::DrainLocked(
    Member& member, Lane& lane) {
  const size_t max_batch = options_.max_batch > 0 ? options_.max_batch : 1;
  DrainResult total;
  while (!lane.queue.empty()) {
    const size_t count = std::min(max_batch, lane.queue.size());
    auto sent = count > 1 ? SendBatchLocked(member, lane, count)
                          : SendSingleLocked(member, lane);
    if (!sent.ok()) return sent.status();
    total.frames += sent->frames;
    total.entries += sent->entries;
  }
  return total;
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::DrainLanes(
    Member& member, const Lane* skip, bool only_settled) {
  DrainResult total;
  for (AppLanes* app : AllLanes()) {
    Lane& lane = *app->lanes[member.slot];
    if (&lane == skip) continue;
    if (only_settled && lane.settled.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    MutexLock lock(lane.mu);
    auto drained = DrainLocked(member, lane);
    Settle(member, lane);
    if (!drained.ok()) return drained.status();
    total.frames += drained->frames;
    total.entries += drained->entries;
  }
  return total;
}

PublishOutcome InvalidationBus::Publish(const std::string& app_id,
                                        const UpdateNotice& notice) {
  published_.fetch_add(1, std::memory_order_relaxed);

  InvalidateRequest request;
  request.app_id = app_id;
  request.level = static_cast<uint8_t>(notice.level);
  request.template_index =
      notice.template_index == service::CacheEntry::kNoTemplate
          ? kNoTemplateWire
          : static_cast<uint64_t>(notice.template_index);
  if (notice.statement.has_value()) {
    request.statement_sql = sql::ToSql(*notice.statement);
  }
  request.nonce = next_nonce_.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = service::Encode(request);

  AppLanes& app = LanesFor(app_id);
  PublishOutcome outcome;
  for (auto& [node, member] : members_) {
    Lane& lane = *app.lanes[member->slot];
    {
      MutexLock lock(lane.mu);
      lane.queue.push_back(frame);
      // The member's backlog over all lanes: the others' settled sizes plus
      // this lane's actual queue.
      const size_t backlog =
          member->pending.load(std::memory_order_acquire) +
          lane.queue.size() - lane.settled.load(std::memory_order_relaxed);
      if (member->deferred.load(std::memory_order_acquire) ||
          backlog <= options_.bus_lag) {
        Settle(*member, lane);
        ++outcome.deferred_members;
        continue;
      }
      auto drained = DrainLocked(*member, lane);
      Settle(*member, lane);
      if (!drained.ok()) {
        ++outcome.failed_members;
        continue;
      }
      outcome.entries_invalidated += drained->entries;
    }
    // Over the bound: the member's other lanes catch up too.
    auto rest = DrainLanes(*member, &lane, /*only_settled=*/true);
    if (rest.ok()) {
      outcome.entries_invalidated += rest->entries;
      ++outcome.delivered_members;
    } else {
      ++outcome.failed_members;
    }
  }
  return outcome;
}

StatusOr<uint64_t> InvalidationBus::Flush(int node) {
  DSSP_ASSIGN_OR_RETURN(
      const DrainResult drained,
      DrainLanes(MemberAt(node), /*skip=*/nullptr, /*only_settled=*/false));
  return drained.frames;
}

size_t InvalidationBus::Pending(int node) const {
  return MemberAt(node).pending.load(std::memory_order_acquire);
}

uint64_t InvalidationBus::Dropped(int node) const {
  return MemberAt(node).dropped.load(std::memory_order_acquire);
}

BusStats InvalidationBus::stats() const {
  BusStats out;
  out.published = published_.load(std::memory_order_relaxed);
  out.delivered_notices = delivered_notices_.load(std::memory_order_relaxed);
  out.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  out.batched_notices = batched_notices_.load(std::memory_order_relaxed);
  out.dropped_frames = dropped_frames_.load(std::memory_order_relaxed);
  out.unreachable_failures =
      unreachable_failures_.load(std::memory_order_relaxed);
  out.wire_retries = wire_retries_.load(std::memory_order_relaxed);
  out.malformed_acks = malformed_acks_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dssp::cluster
