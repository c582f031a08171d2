// Tests of the serving benchmark's own machinery: the tracing decorators
// must be transparent (forward every call unchanged, and leave a run's
// digests and exact counts untouched), and the self-time derivation must
// subtract exactly the nested child spans.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/layers.h"
#include "src/workload.h"

namespace servebench {
namespace {

using dssp::Status;
using dssp::StatusOr;

// ----- Recording fakes for each seam. -----

class FakeCacheBackend : public dssp::service::CacheBackend {
 public:
  std::vector<std::string> calls;

  Status RegisterApp(std::string app_id, const dssp::catalog::Catalog*,
                     const dssp::templates::TemplateSet*) override {
    calls.push_back("register " + app_id);
    return dssp::InvalidArgumentError("register-result");
  }
  std::optional<dssp::service::CacheEntry> Lookup(
      const std::string& app_id, const std::string& key) override {
    calls.push_back("lookup " + app_id + " " + key);
    dssp::service::CacheEntry entry;
    entry.key = key;
    entry.blob = "blob-" + key;
    return entry;
  }
  std::optional<dssp::service::CacheEntry> LookupStale(
      const std::string& app_id, const std::string& key,
      uint64_t behind) override {
    calls.push_back("stale " + app_id + " " + key + " " +
                    std::to_string(behind));
    return std::nullopt;
  }
  void Store(const std::string& app_id,
             dssp::service::CacheEntry entry) override {
    calls.push_back("store " + app_id + " " + entry.key + " " + entry.blob);
  }
  size_t OnUpdate(const std::string& app_id,
                  const dssp::service::UpdateNotice& notice) override {
    calls.push_back("update " + app_id + " " +
                    std::to_string(notice.template_index));
    return 7;
  }
  size_t ClearCache(const std::string& app_id) override {
    calls.push_back("clear " + app_id);
    return 3;
  }
  void SetStaleRetention(const std::string& app_id, size_t n) override {
    calls.push_back("retain " + app_id + " " + std::to_string(n));
  }
};

class FakeChannel : public dssp::service::Channel {
 public:
  explicit FakeChannel(std::vector<std::string>* calls) : calls_(calls) {}
  dssp::service::ChannelOutcome RoundTrip(std::string_view frame) override {
    calls_->push_back("round_trip " + std::string(frame));
    dssp::service::ChannelOutcome outcome;
    outcome.delivered = true;
    outcome.response = "reply-" + std::string(frame);
    outcome.home_deliveries = 2;
    outcome.delay_s = 0.5;
    outcome.response_corrupted = true;
    return outcome;
  }

 private:
  std::vector<std::string>* calls_;
};

class FakeHome : public dssp::backend::HomeBackend {
 public:
  std::vector<std::string> calls;
  std::string id = "fake-app";

  const std::string& app_id() const override { return id; }
  StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                    bool plaintext) override {
    calls.push_back("query " + std::string(ciphertext) +
                    (plaintext ? " plain" : " sealed"));
    return std::string("rows-") + std::string(ciphertext);
  }
  StatusOr<dssp::engine::UpdateEffect> HandleUpdate(std::string_view c,
                                                    uint64_t nonce) override {
    calls.push_back("update " + std::string(c) + " " + std::to_string(nonce));
    return dssp::engine::UpdateEffect{11};
  }
  Status Ping() override {
    calls.push_back("ping");
    return dssp::UnavailableError("down");
  }
  std::vector<std::string> TableNames() const override { return {"t1", "t2"}; }
  StatusOr<dssp::backend::TableMetadata> DescribeTable(
      std::string_view table) override {
    calls.push_back("describe " + std::string(table));
    dssp::backend::TableMetadata meta;
    meta.table = std::string(table);
    meta.row_count = 42;
    return meta;
  }
  void Tick(double now_s) override {
    calls.push_back("tick " + std::to_string(now_s));
  }
  dssp::backend::HomeBackendStats Stats() const override {
    dssp::backend::HomeBackendStats s;
    s.queries_executed = 5;
    return s;
  }
};

// Drives every CacheBackend call through `backend`.
std::vector<std::string> DriveCache(dssp::service::CacheBackend& backend) {
  std::vector<std::string> results;
  results.push_back(backend.RegisterApp("a", nullptr, nullptr).ToString());
  auto hit = backend.Lookup("a", "k1");
  results.push_back(hit.has_value() ? hit->blob : "miss");
  results.push_back(backend.LookupStale("a", "k2", 9).has_value() ? "stale"
                                                                   : "none");
  dssp::service::CacheEntry entry;
  entry.key = "k3";
  entry.blob = "v3";
  backend.Store("a", entry);
  dssp::service::UpdateNotice notice;
  notice.template_index = 4;
  results.push_back(std::to_string(backend.OnUpdate("a", notice)));
  results.push_back(std::to_string(backend.ClearCache("a")));
  backend.SetStaleRetention("a", 12);
  return results;
}

TEST(TracedCacheBackend, ForwardsEveryCallUnchanged) {
  FakeCacheBackend direct;
  const std::vector<std::string> expected = DriveCache(direct);

  for (bool attach : {false, true}) {
    FakeCacheBackend inner;
    TracedCacheBackend traced(inner);
    SpanBuffer buffer;
    std::vector<std::string> results;
    {
      ScopedSpanBuffer scope(attach ? &buffer : nullptr);
      results = DriveCache(traced);
    }
    EXPECT_EQ(results, expected);
    EXPECT_EQ(inner.calls, direct.calls);
    EXPECT_EQ(buffer.spans().size(), attach ? 7u : 0u);
  }
}

TEST(TracedChannel, ForwardsFramesAndOutcomesUnchanged) {
  std::vector<std::string> calls;
  TracedChannel traced(std::make_unique<FakeChannel>(&calls));
  SpanBuffer buffer;
  dssp::service::ChannelOutcome outcome;
  {
    ScopedSpanBuffer scope(&buffer);
    outcome = traced.RoundTrip("frame");
  }
  EXPECT_EQ(calls, std::vector<std::string>{"round_trip frame"});
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.response, "reply-frame");
  EXPECT_EQ(outcome.home_deliveries, 2);
  EXPECT_DOUBLE_EQ(outcome.delay_s, 0.5);
  EXPECT_TRUE(outcome.response_corrupted);
  ASSERT_EQ(buffer.spans().size(), 1u);
  EXPECT_EQ(buffer.wire_request_bytes(), 5u);
  EXPECT_EQ(buffer.wire_response_bytes(), 11u);
}

TEST(TracedHomeBackend, ForwardsEveryCallUnchanged) {
  FakeHome inner;
  TracedHomeBackend traced(inner);
  SpanBuffer buffer;
  ScopedSpanBuffer scope(&buffer);
  EXPECT_EQ(traced.app_id(), "fake-app");
  EXPECT_EQ(*traced.HandleQuery("q", true), "rows-q");
  EXPECT_EQ(traced.HandleUpdate("u", 99)->rows_affected, 11u);
  EXPECT_EQ(traced.Ping().code(), dssp::StatusCode::kUnavailable);
  EXPECT_EQ(traced.TableNames(), (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(traced.DescribeTable("t1")->row_count, 42u);
  traced.Tick(1.5);
  EXPECT_EQ(traced.Stats().queries_executed, 5u);
  EXPECT_EQ(inner.calls,
            (std::vector<std::string>{"query q plain", "update u 99", "ping",
                                      "describe t1", "tick 1.500000"}));
  EXPECT_EQ(buffer.spans().size(), 5u);
}

TEST(LayerTimes, SelfTimeSubtractsDirectChildren) {
  SpanBuffer buffer;
  buffer.SetOp(3);
  {
    ScopedSpanBuffer scope(&buffer);
    ScopedSpan op(SpanName::kQueryOp);
    { ScopedSpan lookup(SpanName::kCacheLookup); }
    {
      ScopedSpan wire(SpanName::kWire);
      ScopedSpan home(SpanName::kHomeQuery);
    }
  }
  const std::vector<Span>& spans = buffer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, kNoParent);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[3].parent, 2u);
  for (const Span& s : spans) EXPECT_EQ(s.op, 3u);

  LayerTimes layers;
  layers.Add(buffer);
  const auto duration = [&](int i) { return spans[i].end_ns - spans[i].start_ns; };
  EXPECT_EQ(layers.self(SpanName::kQueryOp),
            duration(0) - duration(1) - duration(2));
  EXPECT_EQ(layers.self(SpanName::kWire), duration(2) - duration(3));
  EXPECT_EQ(layers.self(SpanName::kHomeQuery), duration(3));
  EXPECT_EQ(layers.RootNs(), duration(0));
  int64_t self_sum = 0;
  for (int64_t ns : layers.self_ns) self_sum += ns;
  EXPECT_EQ(self_sum, duration(0));  // Self times partition the op.
}

// A workload cut down to test size, same shape (ops counts do not apply to
// the simulator phase, which runs at full size).
WorkloadSpec Small(const char* name) {
  WorkloadSpec spec = FindWorkload(name) != nullptr ? *FindWorkload(name)
                                                    : SimulatorSpec();
  spec.ops_per_tenant = 800;  // Two write-probe updates per tenant.
  spec.warm_ops_per_tenant = std::min<size_t>(spec.warm_ops_per_tenant, 800);
  return spec;
}

class Transparency : public ::testing::TestWithParam<const char*> {};

TEST_P(Transparency, TracedAndUntracedRunsAgree) {
  const WorkloadSpec spec = Small(GetParam());
  if (!spec.simulator &&
      std::thread::hardware_concurrency() < spec.apps.size()) {
    GTEST_SKIP() << "fewer processors than tenant threads";
  }
  StatusOr<RunPlan> plan = MakePlan(spec, 17);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  StatusOr<RepResult> plain = RunRepetition(*plan, /*traced=*/false);
  StatusOr<RepResult> traced = RunRepetition(*plan, /*traced=*/true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(plain->failed, 0u);
  EXPECT_EQ(traced->failed, 0u);
  EXPECT_TRUE(plain->counts == traced->counts);
  EXPECT_GT(plain->ops, 0u);
  if (!spec.simulator) {
    for (size_t t = 0; t < plan->tenants.size(); ++t) {
      EXPECT_EQ(plain->counts.digests[t], plan->tenants[t].oracle_digest);
    }
    // One op span per op, and one lookup per query.
    EXPECT_EQ(traced->layers.count(SpanName::kQueryOp) +
                  traced->layers.count(SpanName::kUpdateOp),
              traced->ops);
    EXPECT_EQ(traced->layers.count(SpanName::kCacheLookup),
              traced->counts.queries);
  }
  EXPECT_TRUE(plain->spans.empty());
  EXPECT_FALSE(traced->spans.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Transparency,
                         ::testing::Values("browse_hits", "home_misses",
                                           "update_fanout", "sim_scalability"));

TEST(Plan, SameSeedSameInputs) {
  const WorkloadSpec spec = Small("update_fanout");
  StatusOr<RunPlan> a = MakePlan(spec, 5);
  StatusOr<RunPlan> b = MakePlan(spec, 5);
  StatusOr<RunPlan> c = MakePlan(spec, 6);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  bool differs = false;
  for (size_t t = 0; t < a->tenants.size(); ++t) {
    EXPECT_EQ(a->tenants[t].oracle_digest, b->tenants[t].oracle_digest);
    EXPECT_EQ(a->tenants[t].ops.size(), b->tenants[t].ops.size());
    differs |= a->tenants[t].oracle_digest != c->tenants[t].oracle_digest;
  }
  EXPECT_TRUE(differs);
}

TEST(OpsPerSecond, MedianOverRepetitionsOfSummedThreadRates) {
  RepResult a;
  a.thread_ops = {100, 300};
  a.thread_busy_s = {1.0, 1.0};
  RepResult b;
  b.thread_ops = {100, 100};
  b.thread_busy_s = {1.0, 4.0};  // Thread 1 preempted: only its rate drops.
  RepResult c;
  c.thread_ops = {100, 300};
  c.thread_busy_s = {0.5, 1.0};
  EXPECT_DOUBLE_EQ(OpsPerSecond({&a}), 400.0);
  EXPECT_DOUBLE_EQ(OpsPerSecond({&b}), 125.0);
  EXPECT_DOUBLE_EQ(OpsPerSecond({&a, &b}), (400.0 + 125.0) / 2);
  EXPECT_DOUBLE_EQ(OpsPerSecond({&b, &c, &a}), 400.0);
}

TEST(SimReference, FormatReadsBackExactly) {
  const std::vector<SimOutputs> outputs = {{12345, 0.1 + 0.2, 1.0 / 3.0},
                                           {7, 2.5e-3, 0.987654321}};
  const std::string path = ::testing::TempDir() + "/sim_reference.txt";
  {
    std::ofstream out(path);
    out << "# comment\n"
        << FormatSimReference(3, {"bookstore", "auction"}, outputs);
  }
  StatusOr<SimReference> read = ReadSimReference(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), kSimSeeds);
  EXPECT_TRUE((*read)[3] == outputs);
  EXPECT_TRUE((*read)[0].empty());
}

// The committed reference holds this build's simulator outputs: a simulator
// change that moves any virtual output fails here and in every benchmark run.
TEST(SimReference, CommittedTableMatchesSimulator) {
  StatusOr<SimReference> reference =
      ReadSimReference(SERVEBENCH_SIM_REFERENCE);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (uint64_t seed = 0; seed < kSimSeeds; ++seed) {
    EXPECT_EQ((*reference)[seed].size(), SimulatorSpec().apps.size());
  }
  StatusOr<RunPlan> plan = MakePlan(SimulatorSpec(), 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  StatusOr<RepResult> rep = RunRepetition(*plan, /*traced=*/false);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->counts.sim == (*reference)[0]);
}

}  // namespace
}  // namespace servebench
