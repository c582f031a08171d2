#include "src/layers.h"

#include <cstdio>

namespace servebench {

namespace {

thread_local SpanBuffer* tls_buffer = nullptr;

}  // namespace

std::string_view SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQueryOp:
      return "client.query";
    case SpanName::kUpdateOp:
      return "client.update";
    case SpanName::kCacheLookup:
      return "cache.lookup";
    case SpanName::kCacheStore:
      return "cache.store";
    case SpanName::kCacheInvalidate:
      return "cache.invalidate";
    case SpanName::kCacheOther:
      return "cache.other";
    case SpanName::kWire:
      return "wire.round_trip";
    case SpanName::kHomeQuery:
      return "home.query";
    case SpanName::kHomeUpdate:
      return "home.update";
    case SpanName::kHomeOther:
      return "home.other";
    case SpanName::kCount:
      break;
  }
  return "?";
}

ScopedSpanBuffer::ScopedSpanBuffer(SpanBuffer* buffer)
    : previous_(tls_buffer) {
  tls_buffer = buffer;
}

ScopedSpanBuffer::~ScopedSpanBuffer() { tls_buffer = previous_; }

SpanBuffer* CurrentSpanBuffer() { return tls_buffer; }

ScopedSpan::ScopedSpan(SpanName name) : buffer_(tls_buffer) {
  if (buffer_ != nullptr) buffer_->Begin(name);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) buffer_->End();
}

// ----- TracedCacheBackend -----

dssp::Status TracedCacheBackend::RegisterApp(
    std::string app_id, const dssp::catalog::Catalog* catalog,
    const dssp::templates::TemplateSet* templates) {
  ScopedSpan span(SpanName::kCacheOther);
  return inner_.RegisterApp(std::move(app_id), catalog, templates);
}

std::optional<dssp::service::CacheEntry> TracedCacheBackend::Lookup(
    const std::string& app_id, const std::string& key) {
  ScopedSpan span(SpanName::kCacheLookup);
  return inner_.Lookup(app_id, key);
}

std::optional<dssp::service::CacheEntry> TracedCacheBackend::LookupStale(
    const std::string& app_id, const std::string& key,
    uint64_t max_updates_behind) {
  ScopedSpan span(SpanName::kCacheLookup);
  return inner_.LookupStale(app_id, key, max_updates_behind);
}

void TracedCacheBackend::Store(const std::string& app_id,
                               dssp::service::CacheEntry entry) {
  ScopedSpan span(SpanName::kCacheStore);
  inner_.Store(app_id, std::move(entry));
}

size_t TracedCacheBackend::OnUpdate(
    const std::string& app_id, const dssp::service::UpdateNotice& notice) {
  ScopedSpan span(SpanName::kCacheInvalidate);
  return inner_.OnUpdate(app_id, notice);
}

size_t TracedCacheBackend::ClearCache(const std::string& app_id) {
  ScopedSpan span(SpanName::kCacheOther);
  return inner_.ClearCache(app_id);
}

void TracedCacheBackend::SetStaleRetention(const std::string& app_id,
                                           size_t max_entries) {
  ScopedSpan span(SpanName::kCacheOther);
  inner_.SetStaleRetention(app_id, max_entries);
}

// ----- TracedChannel -----

dssp::service::ChannelOutcome TracedChannel::RoundTrip(
    std::string_view request_frame) {
  ScopedSpan span(SpanName::kWire);
  dssp::service::ChannelOutcome outcome = inner_->RoundTrip(request_frame);
  if (SpanBuffer* buffer = CurrentSpanBuffer()) {
    buffer->AddWireBytes(request_frame.size(),
                         outcome.delivered ? outcome.response.size() : 0);
  }
  return outcome;
}

// ----- TracedHomeBackend -----

dssp::StatusOr<std::string> TracedHomeBackend::HandleQuery(
    std::string_view ciphertext, bool plaintext_result) {
  ScopedSpan span(SpanName::kHomeQuery);
  return inner_.HandleQuery(ciphertext, plaintext_result);
}

dssp::StatusOr<dssp::engine::UpdateEffect> TracedHomeBackend::HandleUpdate(
    std::string_view ciphertext, uint64_t nonce) {
  ScopedSpan span(SpanName::kHomeUpdate);
  return inner_.HandleUpdate(ciphertext, nonce);
}

dssp::Status TracedHomeBackend::Ping() {
  ScopedSpan span(SpanName::kHomeOther);
  return inner_.Ping();
}

dssp::StatusOr<dssp::backend::TableMetadata> TracedHomeBackend::DescribeTable(
    std::string_view table) {
  ScopedSpan span(SpanName::kHomeOther);
  return inner_.DescribeTable(table);
}

void TracedHomeBackend::Tick(double now_s) {
  ScopedSpan span(SpanName::kHomeOther);
  inner_.Tick(now_s);
}

// ----- Derivation -----

void LayerTimes::Add(const SpanBuffer& buffer) {
  wire_request_bytes += buffer.wire_request_bytes();
  wire_response_bytes += buffer.wire_response_bytes();
  const std::vector<Span>& spans = buffer.spans();
  for (const Span& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    const int name = static_cast<int>(span.name);
    total_ns[name] += duration;
    self_ns[name] += duration;
    ++calls[name];
    if (span.parent != kNoParent) {
      self_ns[static_cast<int>(spans[span.parent].name)] -= duration;
    }
  }
}

void LayerTimes::Add(const LayerTimes& other) {
  wire_request_bytes += other.wire_request_bytes;
  wire_response_bytes += other.wire_response_bytes;
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
    self_ns[i] += other.self_ns[i];
    total_ns[i] += other.total_ns[i];
    calls[i] += other.calls[i];
  }
}

double LayerTimes::SelfUsPerCall(SpanName n) const {
  const uint64_t c = count(n);
  return c == 0 ? 0.0 : static_cast<double>(self(n)) / 1e3 /
                            static_cast<double>(c);
}

int64_t LayerTimes::RootNs() const {
  // Client op spans are the only roots in a closed-loop run; in a simulator
  // run (no op spans) the layer spans themselves are the roots, and no layer
  // nests inside another except wire -> home.
  const int64_t ops =
      total(SpanName::kQueryOp) + total(SpanName::kUpdateOp);
  if (ops > 0) return ops;
  int64_t roots = 0;
  for (SpanName n : {SpanName::kCacheLookup, SpanName::kCacheStore,
                     SpanName::kCacheInvalidate, SpanName::kCacheOther,
                     SpanName::kWire}) {
    roots += total(n);
  }
  return roots;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "buffer,index,name,parent,op,start_ns,end_ns\n");
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%lld,%llu,%lld,%lld\n", b, i,
                   std::string(SpanNameString(s.name)).c_str(),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
