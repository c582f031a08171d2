#include <gtest/gtest.h>

#include <tuple>

#include "crypto/keyring.h"
#include "sim/resource.h"
#include "sim/search.h"
#include "sim/simulator.h"
#include "workloads/application.h"

namespace dssp::sim {
namespace {

// ----- QueueingResource -----

TEST(QueueingResourceTest, SingleWorkerFifo) {
  QueueingResource r(1);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0), 1.0);
  // Arrives while busy: queues.
  EXPECT_DOUBLE_EQ(r.Schedule(0.5, 1.0), 2.0);
  // Arrives after idle: starts immediately.
  EXPECT_DOUBLE_EQ(r.Schedule(5.0, 0.5), 5.5);
}

TEST(QueueingResourceTest, MultiWorkerParallelism) {
  QueueingResource r(2);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0), 1.0);  // Second worker.
  EXPECT_DOUBLE_EQ(r.Schedule(0.0, 1.0), 2.0);  // Queues behind one.
}

// ----- Simulator on the real toystore app -----

struct SimHarness {
  SimHarness() : app("toystore", &node, crypto::KeyRing::FromPassphrase("k")) {
    workload = workloads::MakeApplication("toystore");
    DSSP_CHECK_OK(workload->Setup(app, 1.0, 3));
    DSSP_CHECK_OK(app.Finalize());
    generator = workload->NewSession(1);
  }

  service::DsspNode node;
  service::ScalableApp app;
  std::unique_ptr<workloads::Application> workload;
  std::unique_ptr<SessionGenerator> generator;
};

SimConfig FastConfig() {
  SimConfig config;
  config.duration_s = 60.0;
  return config;
}

TEST(SimulatorTest, ProducesPlausibleMetrics) {
  SimHarness h;
  auto result = RunSimulation(h.app, *h.generator, 20, FastConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_clients, 20);
  EXPECT_GT(result->pages_completed, 50u);
  EXPECT_GT(result->db_ops, result->pages_completed / 2);
  EXPECT_GT(result->mean_response_s, 0.0);
  EXPECT_GE(result->p90_response_s, result->mean_response_s * 0.5);
  EXPECT_GE(result->max_response_s, result->p90_response_s);
  EXPECT_GT(result->cache_hit_rate, 0.0);
  EXPECT_LT(result->cache_hit_rate, 1.0);
  EXPECT_FALSE(result->ToString().empty());
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  SimHarness h1;
  SimHarness h2;
  const SimConfig config = FastConfig();
  auto r1 = RunSimulation(h1.app, *h1.generator, 15, config);
  auto r2 = RunSimulation(h2.app, *h2.generator, 15, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->pages_completed, r2->pages_completed);
  EXPECT_EQ(r1->db_ops, r2->db_ops);
  EXPECT_DOUBLE_EQ(r1->p90_response_s, r2->p90_response_s);
  EXPECT_DOUBLE_EQ(r1->cache_hit_rate, r2->cache_hit_rate);
}

TEST(SimulatorTest, MoreClientsMoreWork) {
  SimHarness h1;
  SimHarness h2;
  const SimConfig config = FastConfig();
  auto small = RunSimulation(h1.app, *h1.generator, 5, config);
  auto large = RunSimulation(h2.app, *h2.generator, 50, config);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->pages_completed, small->pages_completed * 3);
}

TEST(SimulatorTest, SaturationRaisesResponseTimes) {
  SimHarness h1;
  SimHarness h2;
  SimConfig config = FastConfig();
  // Make the home server very slow so saturation appears at low user
  // counts even with warm caches.
  config.home_query_base_s = 0.2;
  config.home_update_base_s = 0.2;
  config.home_workers = 1;
  auto light = RunSimulation(h1.app, *h1.generator, 3, config);
  auto heavy = RunSimulation(h2.app, *h2.generator, 300, config);
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_GT(heavy->p90_response_s, light->p90_response_s * 2);
}

TEST(SimulatorTest, MalformedArgumentsAreInvalidArgument) {
  SimHarness h;
  const SimConfig config = FastConfig();
  auto expect_invalid = [](const auto& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };
  expect_invalid(RunSimulation(h.app, *h.generator, 0, config));
  expect_invalid(RunMultiTenantSimulation({}, config));
  expect_invalid(RunMultiTenantSimulation(
      {Tenant{nullptr, h.generator.get(), 5}}, config));
  expect_invalid(
      RunMultiTenantSimulation({Tenant{&h.app, nullptr, 5}}, config));
  SimConfig no_workers = config;
  no_workers.dssp_workers = 0;
  expect_invalid(RunSimulation(h.app, *h.generator, 5, no_workers));
  no_workers = config;
  no_workers.home_workers = -1;
  expect_invalid(RunSimulation(h.app, *h.generator, 5, no_workers));
}

TEST(SimulatorTest, SloPredicate) {
  SimConfig config;
  SimResult result;
  result.p90_response_s = 1.9;
  EXPECT_TRUE(result.MeetsSlo(config));
  result.p90_response_s = 2.1;
  EXPECT_FALSE(result.MeetsSlo(config));
}

// ----- Scalability search (with a synthetic probe). -----

TEST(SearchTest, FindsThresholdOfSyntheticSystem) {
  // Synthetic system: meets the SLO iff users <= 730.
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = users <= 730 ? 1.0 : 3.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 20000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 720);
  EXPECT_LE(result->max_users, 730);
  EXPECT_FALSE(result->probes.empty());
}

TEST(SearchTest, AllPassingReturnsLastRampPoint) {
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = 0.5;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 1000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 640);  // Last doubling <= 1000.
}

TEST(SearchTest, SurvivesColdCacheFailuresAtLowUserCounts) {
  // Cold-cache-bound systems can fail at low user counts and pass at
  // higher ones; the ramp must keep going past early failures.
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = (users >= 50 && users <= 730) ? 1.0 : 3.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 20000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 720);
  EXPECT_LE(result->max_users, 730);
}

TEST(SearchTest, NothingPassingReturnsZero) {
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = 10.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 1000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->max_users, 0);
}

TEST(SearchTest, BadBoundsAreInvalidArgument) {
  const SimConfig config;
  int probes = 0;
  const ProbeFn probe = [&](int) -> StatusOr<SimResult> {
    ++probes;
    return SimResult{};
  };
  for (const auto& [min_users, max_users, tolerance] :
       {std::tuple{10, 5, 20}, std::tuple{0, 100, 10},
        std::tuple{-5, 100, 10}, std::tuple{10, 100, 0}}) {
    auto result = FindMaxUsers(probe, config, min_users, max_users, tolerance);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(probes, 0);
}

TEST(SearchTest, ProbeErrorsPropagate) {
  const SimConfig config;
  const ProbeFn probe = [&](int) -> StatusOr<SimResult> {
    return InvalidArgumentError("boom");
  };
  auto result = FindMaxUsers(probe, config);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace dssp::sim
