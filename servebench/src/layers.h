#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

// Per-layer tracing for the serving benchmark.
//
// Spans are recorded from the benchmark's own files only, around the calls
// into each layer, through the stack's existing public seams:
//   - TracedCacheBackend wraps the CacheBackend handed to ScalableApp;
//   - TracedChannel wraps the Channel installed with ScalableApp::SetChannel;
//   - TracedHomeBackend wraps the HomeBackend handed to DirectChannel.
// Each decorator forwards every call unchanged. A span is recorded only
// while the calling thread has a SpanBuffer attached (see ScopedSpanBuffer),
// so set-up traffic through a traced stack leaves no spans.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "backend/home_backend.h"
#include "dssp/channel.h"
#include "dssp/node.h"

namespace servebench {

// Span names, one per layer boundary the benchmark crosses.
enum class SpanName : uint8_t {
  kQueryOp,         // ScalableApp::Query (client layer root).
  kUpdateOp,        // ScalableApp::Update (client layer root).
  kCacheLookup,     // CacheBackend::Lookup / LookupStale.
  kCacheStore,      // CacheBackend::Store.
  kCacheInvalidate,  // CacheBackend::OnUpdate (incl. cluster bus fan-out).
  kCacheOther,      // Register / ClearCache / SetStaleRetention.
  kWire,            // Channel::RoundTrip.
  kHomeQuery,       // HomeBackend::HandleQuery.
  kHomeUpdate,      // HomeBackend::HandleUpdate.
  kHomeOther,       // Ping / metadata / Tick.
  kCount,
};

std::string_view SpanNameString(SpanName name);

inline constexpr uint32_t kNoParent = ~0u;

// One recorded span. `parent` indexes the same thread's buffer; all spans of
// one client operation carry that operation's `op` id.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  uint32_t parent = kNoParent;
  SpanName name = SpanName::kQueryOp;
};

// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's in-memory span log. Not thread-safe: each tenant thread owns
// its buffer and attaches it for the duration of its timed phase.
class SpanBuffer {
 public:
  // Opens a span under the innermost open one.
  void Begin(SpanName name) {
    Span span;
    span.name = name;
    span.op = op_;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<uint32_t>(spans_.size() - 1));
  }
  void End() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  // Id stamped on spans begun from now on.
  void SetOp(uint64_t op) { op_ = op; }
  void Reserve(size_t n) { spans_.reserve(n); }

  // Frame bytes put on / taken off the DSSP<->home wire.
  void AddWireBytes(size_t request, size_t response) {
    wire_request_bytes_ += request;
    wire_response_bytes_ += response;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t wire_request_bytes() const { return wire_request_bytes_; }
  uint64_t wire_response_bytes() const { return wire_response_bytes_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t op_ = 0;
  uint64_t wire_request_bytes_ = 0;
  uint64_t wire_response_bytes_ = 0;
};

// Attaches `buffer` to the calling thread for this object's lifetime
// (nullptr attaches nothing, so untraced runs share the same code).
class ScopedSpanBuffer {
 public:
  explicit ScopedSpanBuffer(SpanBuffer* buffer);
  ~ScopedSpanBuffer();
  ScopedSpanBuffer(const ScopedSpanBuffer&) = delete;
  ScopedSpanBuffer& operator=(const ScopedSpanBuffer&) = delete;

 private:
  SpanBuffer* previous_;
};

// The buffer attached to the calling thread, or nullptr.
SpanBuffer* CurrentSpanBuffer();

// RAII span on the calling thread's attached buffer; a no-op when none is
// attached.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
};

class TracedCacheBackend : public dssp::service::CacheBackend {
 public:
  explicit TracedCacheBackend(dssp::service::CacheBackend& inner)
      : inner_(inner) {}

  dssp::Status RegisterApp(
      std::string app_id, const dssp::catalog::Catalog* catalog,
      const dssp::templates::TemplateSet* templates) override;
  std::optional<dssp::service::CacheEntry> Lookup(
      const std::string& app_id, const std::string& key) override;
  std::optional<dssp::service::CacheEntry> LookupStale(
      const std::string& app_id, const std::string& key,
      uint64_t max_updates_behind) override;
  void Store(const std::string& app_id,
             dssp::service::CacheEntry entry) override;
  size_t OnUpdate(const std::string& app_id,
                  const dssp::service::UpdateNotice& notice) override;
  size_t ClearCache(const std::string& app_id) override;
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override;

 private:
  dssp::service::CacheBackend& inner_;
};

class TracedChannel : public dssp::service::Channel {
 public:
  explicit TracedChannel(std::unique_ptr<dssp::service::Channel> inner)
      : inner_(std::move(inner)) {}
  dssp::service::ChannelOutcome RoundTrip(
      std::string_view request_frame) override;

 private:
  std::unique_ptr<dssp::service::Channel> inner_;
};

class TracedHomeBackend : public dssp::backend::HomeBackend {
 public:
  explicit TracedHomeBackend(dssp::backend::HomeBackend& inner)
      : inner_(inner) {}

  const std::string& app_id() const override { return inner_.app_id(); }
  dssp::StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                          bool plaintext_result) override;
  dssp::StatusOr<dssp::engine::UpdateEffect> HandleUpdate(
      std::string_view ciphertext, uint64_t nonce) override;
  dssp::Status Ping() override;
  std::vector<std::string> TableNames() const override {
    return inner_.TableNames();
  }
  dssp::StatusOr<dssp::backend::TableMetadata> DescribeTable(
      std::string_view table) override;
  void Tick(double now_s) override;
  dssp::backend::HomeBackendStats Stats() const override {
    return inner_.Stats();
  }

 private:
  dssp::backend::HomeBackend& inner_;
};

// Self time and call count of each span name, summed over buffers. A span's
// self time is its duration minus the durations of its direct children
// (children are strictly nested: every layer call is synchronous).
struct LayerTimes {
  int64_t self_ns[static_cast<int>(SpanName::kCount)] = {};
  int64_t total_ns[static_cast<int>(SpanName::kCount)] = {};
  uint64_t calls[static_cast<int>(SpanName::kCount)] = {};
  uint64_t wire_request_bytes = 0;
  uint64_t wire_response_bytes = 0;

  void Add(const SpanBuffer& buffer);
  void Add(const LayerTimes& other);

  int64_t self(SpanName n) const { return self_ns[static_cast<int>(n)]; }
  int64_t total(SpanName n) const { return total_ns[static_cast<int>(n)]; }
  uint64_t count(SpanName n) const { return calls[static_cast<int>(n)]; }
  // Mean self time per call in microseconds (0 when never called).
  double SelfUsPerCall(SpanName n) const;
  // Time outside any span's parent: the sum of root spans' durations.
  int64_t RootNs() const;
};

// Writes every span of `buffers` as CSV (buffer,index,name,parent,op,
// start_ns,end_ns). Returns false on I/O failure.
bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanBuffer*>& buffers);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
