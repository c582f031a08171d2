// Race-hunting smoke tests for the sharded DsspNode and QueryCache: mixed
// lookup/store/update/admin traffic from real threads across two tenants,
// and tenant registration racing with that traffic.
// Run under ThreadSanitizer (cmake -DDSSP_TSAN=ON) to hunt races; the
// assertions here only check that counters and indexes stay consistent.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/cache.h"
#include "dssp/node.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using analysis::ExposureLevel;
using sql::Value;

CacheEntry TemplateEntry(const std::string& key, size_t template_index) {
  CacheEntry entry;
  entry.key = key;
  entry.level = ExposureLevel::kTemplate;
  entry.template_index = template_index;
  entry.blob = "blob:" + key;
  return entry;
}

class NodeConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"tenant-a", "tenant-b"}) {
      apps_.push_back(std::make_unique<ScalableApp>(
          name, &node_, crypto::KeyRing::FromPassphrase(name)));
      workloads_.emplace_back();
      ASSERT_TRUE(workloads_.back().Setup(*apps_.back(), 1.0, 7).ok());
      ASSERT_TRUE(apps_.back()->Finalize().ok());
    }
  }

  DsspNode node_;
  std::vector<std::unique_ptr<ScalableApp>> apps_;
  std::vector<workloads::ToystoreApplication> workloads_;
};

TEST_F(NodeConcurrencyTest, MixedTrafficAcrossTenantsIsConsistent) {
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 256;
  const std::vector<std::string> tenants = {"tenant-a", "tenant-b"};

  // Pre-built exposure-gated notices (UpdateNotice is read-only to the
  // node): one template-level per update template, plus a blind one.
  std::vector<UpdateNotice> notices;
  for (size_t i = 0; i < apps_[0]->templates().num_updates(); ++i) {
    UpdateNotice notice;
    notice.level = ExposureLevel::kTemplate;
    notice.template_index = i;
    notices.push_back(std::move(notice));
  }
  notices.push_back(UpdateNotice{});  // Blind.

  std::atomic<uint64_t> lookups_issued{0};
  std::atomic<uint64_t> stores_issued{0};
  std::atomic<uint64_t> updates_issued{0};

  std::vector<std::thread> threads;
  // Per tenant: two mixed lookup/store workers and one updater.
  for (const std::string& tenant : tenants) {
    for (int worker = 0; worker < 2; ++worker) {
      threads.emplace_back([&, tenant, worker] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int k = (i * 31 + worker * 17) % kKeySpace;
          const std::string key =
              tenant + ":k" + std::to_string(k);
          if (i % 4 == 0) {
            node_.Store(tenant, TemplateEntry(key, k % 3));
            stores_issued.fetch_add(1, std::memory_order_relaxed);
          } else {
            node_.Lookup(tenant, key);
            lookups_issued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    threads.emplace_back([&, tenant] {
      for (int i = 0; i < kOpsPerThread / 8; ++i) {
        node_.OnUpdate(tenant, notices[i % notices.size()]);
        updates_issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Admin thread: capacity flapping on one tenant plus a mid-run
  // registration interleaving with the traffic above.
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      node_.SetCacheCapacity("tenant-a", 64 + (i % 3) * 64);
      node_.CacheSize("tenant-a");
      node_.TotalCacheSize();
      node_.stats("tenant-b");
    }
    node_.SetCacheCapacity("tenant-a", 0);
    ASSERT_TRUE(node_
                    .RegisterApp("tenant-c",
                                 &apps_[0]->home().database().catalog(),
                                 &apps_[0]->templates())
                    .ok());
  });
  for (std::thread& t : threads) t.join();

  // Counters: every issued operation was counted exactly once.
  uint64_t lookups = 0, stores = 0, updates = 0;
  for (const std::string& tenant : tenants) {
    const DsspStats stats = node_.stats(tenant);
    lookups += stats.lookups;
    stores += stats.stores;
    updates += stats.updates_observed;
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups) << tenant;
  }
  EXPECT_EQ(lookups, lookups_issued.load());
  EXPECT_EQ(stores, stores_issued.load());
  EXPECT_EQ(updates, updates_issued.load());
  EXPECT_TRUE(node_.HasApp("tenant-c"));

  // Tenant isolation: each surviving entry belongs to its tenant's space.
  for (const std::string& tenant : tenants) {
    EXPECT_LE(node_.CacheSize(tenant),
              static_cast<size_t>(kKeySpace));
    const std::optional<CacheEntry> entry =
        node_.Lookup(tenant, tenant + ":k0");
    if (entry.has_value()) {
      EXPECT_EQ(entry->key.rfind(tenant + ":", 0), 0u);
    }
  }
}

// New tenants register while registered ones serve traffic. Workers also
// hit the late tenants' ids, so a tenant is used as soon as its registry
// snapshot is published (TSan checks that the publication orders the app's
// construction before those uses).
TEST_F(NodeConcurrencyTest, RegistrationRacesWithTraffic) {
  constexpr int kLateTenants = 16;
  constexpr int kOpsPerThread = 3000;
  const std::vector<std::string> tenants = {"tenant-a", "tenant-b"};
  UpdateNotice notice;
  notice.level = ExposureLevel::kTemplate;
  notice.template_index = 0;

  std::atomic<int> registered{0};
  std::vector<std::thread> threads;
  for (const std::string& tenant : tenants) {
    threads.emplace_back([&, tenant] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = tenant + ":k" + std::to_string(i % 64);
        switch (i % 4) {
          case 0:
            node_.Store(tenant, TemplateEntry(key, i % 3));
            break;
          case 1:
            node_.OnUpdate(tenant, notice);
            break;
          default:
            node_.Lookup(tenant, key);
            break;
        }
        // A late tenant, registered or not yet: unknown ids just miss.
        const std::string late =
            "late-" + std::to_string(i % (kLateTenants + 1));
        if (i % 2 == 0) {
          node_.Store(late, TemplateEntry(late + ":k", 0));
        } else {
          node_.Lookup(late, late + ":k");
          node_.OnUpdate(late, notice);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kLateTenants; ++i) {
      EXPECT_TRUE(node_
                      .RegisterApp("late-" + std::to_string(i),
                                   &apps_[0]->home().database().catalog(),
                                   &apps_[0]->templates())
                      .ok());
      registered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(registered.load(), kLateTenants);
  EXPECT_EQ(node_.AppIds().size(), tenants.size() + kLateTenants);
  for (int i = 0; i < kLateTenants; ++i) {
    const std::string late = "late-" + std::to_string(i);
    EXPECT_TRUE(node_.HasApp(late));
    const DsspStats stats = node_.stats(late);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups) << late;
  }
  EXPECT_FALSE(node_.HasApp("late-" + std::to_string(kLateTenants)));
  // Registering an id twice still fails, after the race as before it.
  EXPECT_FALSE(node_
                   .RegisterApp("late-0",
                                &apps_[0]->home().database().catalog(),
                                &apps_[0]->templates())
                   .ok());
  for (const std::string& tenant : tenants) {
    const DsspStats stats = node_.stats(tenant);
    EXPECT_EQ(stats.lookups, static_cast<uint64_t>(kOpsPerThread / 2));
    EXPECT_EQ(stats.stores, static_cast<uint64_t>(kOpsPerThread / 4));
    EXPECT_EQ(stats.updates_observed,
              static_cast<uint64_t>(kOpsPerThread / 4));
  }
}

TEST(QueryCacheConcurrencyTest, ShardedCacheSurvivesMixedMutation) {
  QueryCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  constexpr int kKeySpace = 512;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * 13 + t * 7) % kKeySpace;
        const std::string key = "k" + std::to_string(k);
        switch ((i + t) % 8) {
          case 0:
          case 1:
            cache.Insert(TemplateEntry(key, k % 4));
            break;
          case 2:
            cache.Erase(key);
            break;
          case 3:
            cache.EraseGroup(i % 4);
            break;
          case 4:
            cache.Peek(key);
            break;
          case 5:
            cache.SetCapacity(i % 2 == 0 ? 128 : 0);
            break;
          default:
            cache.Lookup(key);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Quiesced: the group index and entry map must agree exactly.
  cache.SetCapacity(0);
  size_t indexed = 0;
  for (size_t group : cache.GroupKeys()) {
    for (const std::string& key : cache.GroupEntryKeys(group)) {
      const std::optional<CacheEntry> entry = cache.Peek(key);
      ASSERT_TRUE(entry.has_value()) << "indexed key missing: " << key;
      EXPECT_EQ(entry->template_index, group);
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, cache.size());
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeySpace));
}

}  // namespace
}  // namespace dssp::service
