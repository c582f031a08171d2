#include "src/workload.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/methodology.h"
#include "cluster/router.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "sim/simulator.h"
#include "src/oracle.h"
#include "workloads/application.h"

namespace servebench {

namespace {

using dssp::Status;
using dssp::StatusOr;
using dssp::sim::DbOp;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Independent, reproducible seed streams derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t tenant) {
  dssp::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream * 1000 + tenant);
  return rng.Next();
}

enum Stream : uint64_t { kDb = 1, kSession, kPages, kWarm, kSimSession };

// One tenant's live stack: the workload definition, its ScalableApp (which
// owns the home backend) and, when traced, the home-backend decorator the
// app's channel reaches it through.
struct LiveTenant {
  std::unique_ptr<dssp::workloads::Application> workload;
  // Declared before `app`: the app's channel refers to it, so it must be
  // destroyed after the app.
  std::unique_ptr<TracedHomeBackend> traced_home;
  std::unique_ptr<dssp::service::ScalableApp> app;
  std::unique_ptr<dssp::sim::SessionGenerator> generator;  // Simulator only.
};

struct Stack {
  std::unique_ptr<dssp::service::DsspNode> node;
  std::unique_ptr<dssp::cluster::ClusterRouter> router;
  std::unique_ptr<TracedCacheBackend> traced_backend;
  dssp::service::CacheBackend* backend = nullptr;  // What the apps talk to.
  std::vector<LiveTenant> tenants;

  size_t TotalEntries() const {
    size_t total = 0;
    for (const LiveTenant& t : tenants) {
      total += node != nullptr ? node->CacheSize(t.app->app_id())
                               : router->TotalCacheSize(t.app->app_id());
    }
    return total;
  }

  uint64_t TotalEvictions() const {
    uint64_t total = 0;
    for (const LiveTenant& t : tenants) {
      if (node != nullptr) {
        total += node->CacheEvictions(t.app->app_id());
      } else {
        for (int i = 0; i < router->num_nodes(); ++i) {
          total += router->node(i).CacheEvictions(t.app->app_id());
        }
      }
    }
    return total;
  }
};

// Builds the backend and every tenant: schema, population, registration,
// the methodology's exposure, and the per-tenant capacity.
StatusOr<std::unique_ptr<Stack>> BuildStack(const RunPlan& plan,
                                            bool traced) {
  const WorkloadSpec& spec = *plan.spec;
  auto stack = std::make_unique<Stack>();
  if (spec.backend == Backend::kCluster) {
    dssp::cluster::ClusterOptions options;
    options.num_nodes = 4;
    options.replication = 2;
    stack->router = std::make_unique<dssp::cluster::ClusterRouter>(options);
    stack->backend = stack->router.get();
  } else {
    stack->node = std::make_unique<dssp::service::DsspNode>();
    stack->backend = stack->node.get();
  }
  if (traced) {
    stack->traced_backend =
        std::make_unique<TracedCacheBackend>(*stack->backend);
    stack->backend = stack->traced_backend.get();
  }

  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    const TenantPlan& tp = plan.tenants[t];
    LiveTenant live;
    live.workload = dssp::workloads::MakeApplication(tp.app);
    live.app = std::make_unique<dssp::service::ScalableApp>(
        tp.app + "-" + std::to_string(t), stack->backend,
        dssp::crypto::KeyRing::FromPassphrase("servebench-" + tp.app));
    if (traced) {
      live.traced_home = std::make_unique<TracedHomeBackend>(live.app->home());
      live.app->SetChannel(std::make_unique<TracedChannel>(
          std::make_unique<dssp::service::DirectChannel>(*live.traced_home)));
    }
    DSSP_RETURN_IF_ERROR(live.workload->Setup(*live.app, spec.scale,
                                              tp.db_seed));
    DSSP_RETURN_IF_ERROR(live.app->Finalize());
    const dssp::catalog::Catalog& catalog =
        live.app->home().database().catalog();
    DSSP_RETURN_IF_ERROR(live.app->SetExposure(
        dssp::analysis::RunMethodology(
            live.app->templates(), catalog,
            live.workload->CompulsoryEncryption(catalog))
            .final));
    if (spec.capacity > 0) {
      if (stack->node != nullptr) {
        stack->node->SetCacheCapacity(live.app->app_id(), spec.capacity);
      } else {
        stack->router->SetCacheCapacity(live.app->app_id(), spec.capacity);
      }
    }
    if (spec.simulator) {
      live.generator = live.workload->NewSession(tp.session_seed);
    }
    stack->tenants.push_back(std::move(live));
  }
  return stack;
}

// What one tenant thread observed during its timed phase.
struct ThreadOutcome {
  OutcomeDigest digest;
  std::vector<double> query_us;
  std::vector<double> update_us;
  int64_t end_ns = 0;
  int64_t busy_ns = 0;  // Time spent in ReplayTimed.
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint64_t hits = 0;
  uint64_t home_queries = 0;
  uint64_t invalidated = 0;
  uint64_t response_bytes = 0;
  uint64_t home_rows = 0;
};

void RecordFailure(ThreadOutcome& out, const DbOp& op, const Status& status) {
  ++out.failed;
  if (out.errors.size() < 3) {
    out.errors.push_back(op.template_id + ": " + status.ToString());
  }
}

// Replays ops [begin, end) of one tenant, timing each.
void ReplayTimed(dssp::service::ScalableApp& app,
                 const std::vector<DbOp>& ops, size_t begin, size_t end,
                 uint64_t tenant, SpanBuffer* spans, ThreadOutcome& out) {
  ScopedSpanBuffer attach(spans);
  out.query_us.reserve(end - begin);
  const int64_t replay_start = NowNs();
  dssp::service::AccessStats stats;
  for (size_t i = begin; i < end; ++i) {
    const DbOp& op = ops[i];
    if (spans != nullptr) spans->SetOp((tenant << 40) | i);
    const int64_t start = NowNs();
    if (op.is_update) {
      StatusOr<dssp::engine::UpdateEffect> effect = [&] {
        ScopedSpan span(SpanName::kUpdateOp);
        return app.Update(op.template_id, op.params, &stats);
      }();
      const int64_t done = NowNs();
      out.update_us.push_back(static_cast<double>(done - start) / 1e3);
      if (!effect.ok()) {
        RecordFailure(out, op, effect.status());
        continue;
      }
      out.digest.AddUpdate(*effect);
      out.invalidated += stats.entries_invalidated;
    } else {
      StatusOr<dssp::engine::QueryResult> result = [&] {
        ScopedSpan span(SpanName::kQueryOp);
        return app.Query(op.template_id, op.params, &stats);
      }();
      const int64_t done = NowNs();
      out.query_us.push_back(static_cast<double>(done - start) / 1e3);
      if (!result.ok()) {
        RecordFailure(out, op, result.status());
        continue;
      }
      out.digest.AddQuery(*result);
      out.response_bytes += stats.response_bytes;
      if (stats.cache_hit) {
        ++out.hits;
      } else {
        ++out.home_queries;
        out.home_rows += stats.result_rows;
      }
    }
  }
  out.end_ns = NowNs();
  out.busy_ns += out.end_ns - replay_start;
}

// The tenants' home-backend counters, summed.
HomeCounters SumHomeCounters(const Stack& stack) {
  HomeCounters sum;
  for (const LiveTenant& t : stack.tenants) {
    const dssp::backend::HomeBackendStats s = t.app->home().Stats();
    sum.queries += s.queries_executed;
    sum.updates += s.updates_applied;
    sum.program_queries += s.program_queries;
    sum.statement_hits += s.statements.hits;
    sum.statement_misses += s.statements.misses;
    sum.leases_queued += s.pool.leases_queued;
  }
  return sum;
}

// Records the stack's counters after the timed phase; home counters as the
// difference from `before` (the snapshot taken when timing started), so
// set-up and warm-up traffic is excluded.
void CollectStackCounters(const Stack& stack, const HomeCounters& before,
                          RepResult& rep) {
  const HomeCounters after = SumHomeCounters(stack);
  rep.home.queries = after.queries - before.queries;
  rep.home.updates = after.updates - before.updates;
  rep.home.program_queries = after.program_queries - before.program_queries;
  rep.home.statement_hits = after.statement_hits - before.statement_hits;
  rep.home.statement_misses =
      after.statement_misses - before.statement_misses;
  rep.home.leases_queued = after.leases_queued - before.leases_queued;
  rep.cache_entries = stack.TotalEntries();
  rep.cache_evictions = stack.TotalEvictions();
  if (stack.router != nullptr) {
    rep.replica_fallbacks = stack.router->route_stats().replica_fallbacks;
    const dssp::cluster::BusStats bus = stack.router->bus().stats();
    rep.counts.bus_delivered = bus.delivered_notices;
    rep.bus_batches = bus.batches_sent;
    rep.bus_wire_retries = bus.wire_retries;
  }
}

StatusOr<RepResult> RunClosedLoop(const RunPlan& plan, bool traced) {
  RepResult rep;
  rep.traced = traced;
  const int64_t setup_start = NowNs();
  DSSP_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                        BuildStack(plan, traced));

  const size_t n = plan.tenants.size();
  std::vector<ThreadOutcome> outcomes(n);
  if (traced) {
    for (size_t t = 0; t < n; ++t) {
      rep.spans.push_back(std::make_unique<SpanBuffer>());
      // Op span plus at most lookup, round trip, home call and store.
      rep.spans.back()->Reserve(plan.tenants[t].ops.size() * 4);
    }
  }
  std::latch warmed(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  // Write probe: starts once every tenant has finished its reads, and the
  // tenants take turns, so a probe update's latency is its own write and
  // invalidation work, not a wait behind another tenant's reads or writes.
  std::barrier probe(static_cast<std::ptrdiff_t>(n));
  std::vector<uint64_t> warm_failures(n, 0);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      dssp::service::ScalableApp& app = *stack->tenants[t].app;
      for (const DbOp& op : plan.tenants[t].warm) {
        if (!app.Query(op.template_id, op.params).ok()) ++warm_failures[t];
      }
      warmed.count_down();
      go.wait();
      const TenantPlan& tp = plan.tenants[t];
      SpanBuffer* spans = traced ? rep.spans[t].get() : nullptr;
      ReplayTimed(app, tp.ops, 0, tp.probe_begin, t, spans, outcomes[t]);
      if (plan.spec->hold_back_updates) {
        for (size_t turn = 0; turn < n; ++turn) {
          probe.arrive_and_wait();
          if (turn == t) {
            ReplayTimed(app, tp.ops, tp.probe_begin, tp.ops.size(), t, spans,
                        outcomes[t]);
          }
        }
      }
    });
  }
  warmed.wait();
  const HomeCounters home_before = SumHomeCounters(*stack);
  const int64_t start = NowNs();
  rep.setup_s = Seconds(start - setup_start);
  go.count_down();
  for (std::thread& thread : threads) thread.join();

  int64_t end = start;
  for (size_t t = 0; t < n; ++t) {
    ThreadOutcome& out = outcomes[t];
    end = std::max(end, out.end_ns);
    rep.failed += out.failed + warm_failures[t];
    for (std::string& e : out.errors) {
      rep.errors.push_back(plan.tenants[t].app + " " + std::move(e));
    }
    if (warm_failures[t] > 0) {
      rep.errors.push_back(plan.tenants[t].app + " warm-up query failed");
    }
    rep.query_us.insert(rep.query_us.end(), out.query_us.begin(),
                        out.query_us.end());
    rep.update_us.insert(rep.update_us.end(), out.update_us.begin(),
                         out.update_us.end());
    ExactCounts& c = rep.counts;
    c.queries += out.query_us.size();
    c.updates += out.update_us.size();
    c.hits += out.hits;
    c.home_queries += out.home_queries;
    c.entries_invalidated += out.invalidated;
    c.digests.push_back(out.digest.value());
    rep.thread_ops.push_back(out.query_us.size() + out.update_us.size());
    rep.thread_busy_s.push_back(Seconds(out.busy_ns));
    rep.response_bytes += out.response_bytes;
    rep.home_rows += out.home_rows;
  }
  rep.wall_s = Seconds(end - start);
  rep.ops = rep.counts.queries + rep.counts.updates;
  for (const auto& buffer : rep.spans) rep.layers.Add(*buffer);
  CollectStackCounters(*stack, home_before, rep);
  return rep;
}

StatusOr<RepResult> RunSimulator(const RunPlan& plan, bool traced) {
  RepResult rep;
  rep.traced = traced;
  const int64_t setup_start = NowNs();
  DSSP_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                        BuildStack(plan, traced));
  std::vector<dssp::sim::Tenant> tenants;
  for (LiveTenant& t : stack->tenants) {
    tenants.push_back(
        dssp::sim::Tenant{t.app.get(), t.generator.get(), kSimClients});
  }
  dssp::sim::SimConfig config;
  config.duration_s = kSimDurationS;
  config.warmup_s = kSimDurationS / 3.0;
  config.seed = SubSeed(plan.seed, kPages, 0);

  if (traced) rep.spans.push_back(std::make_unique<SpanBuffer>());
  const HomeCounters home_before = SumHomeCounters(*stack);
  const int64_t start = NowNs();
  rep.setup_s = Seconds(start - setup_start);
  StatusOr<std::vector<dssp::sim::SimResult>> results = [&] {
    ScopedSpanBuffer attach(traced ? rep.spans[0].get() : nullptr);
    return dssp::sim::RunMultiTenantSimulation(tenants, config);
  }();
  rep.wall_s = Seconds(NowNs() - start);
  DSSP_RETURN_IF_ERROR(results.status());

  ExactCounts& c = rep.counts;
  for (const dssp::sim::SimResult& r : *results) {
    c.sim.push_back(SimOutputs{r.db_ops, r.p90_response_s, r.cache_hit_rate});
    c.updates += r.home_updates;
    c.queries += r.db_ops - r.home_updates - r.failed_ops;
    c.home_queries += r.home_queries;
    c.entries_invalidated += r.entries_invalidated;
    rep.failed += r.failed_ops;
  }
  c.hits = c.queries - c.home_queries;
  rep.ops = c.queries + c.updates;
  rep.thread_ops = {rep.ops};
  rep.thread_busy_s = {rep.wall_s};
  for (const auto& buffer : rep.spans) rep.layers.Add(*buffer);
  CollectStackCounters(*stack, home_before, rep);
  return rep;
}

// Generates one tenant's op sequences on a private copy of its database,
// which then replays them as the oracle (its id counters match every
// repetition's fresh copy).
Status PlanTenant(const WorkloadSpec& spec, uint64_t seed, size_t t,
                  TenantPlan& tp) {
  tp.app = spec.apps[t];
  tp.db_seed = SubSeed(seed, kDb, t) % 1000000;
  tp.session_seed = SubSeed(seed, kSimSession, t);
  if (spec.simulator) return Status::Ok();  // Pages come from the sim.

  dssp::service::DsspNode scratch;
  dssp::service::ScalableApp app(
      tp.app, &scratch,
      dssp::crypto::KeyRing::FromPassphrase("servebench-oracle"));
  std::unique_ptr<dssp::workloads::Application> workload =
      dssp::workloads::MakeApplication(tp.app);
  DSSP_RETURN_IF_ERROR(workload->Setup(app, spec.scale, tp.db_seed));
  std::unique_ptr<dssp::sim::SessionGenerator> session =
      workload->NewSession(SubSeed(seed, kSession, t));

  dssp::Rng pages(SubSeed(seed, kPages, t));
  std::vector<DbOp> held_back;
  while (tp.ops.size() < spec.ops_per_tenant) {
    for (DbOp& op : session->NextPage(pages)) {
      if (tp.ops.size() >= spec.ops_per_tenant) break;
      if (op.is_update && spec.hold_back_updates) {
        held_back.push_back(std::move(op));
      } else {
        tp.ops.push_back(std::move(op));
      }
    }
  }
  tp.probe_begin = tp.ops.size();
  if (spec.hold_back_updates) {
    // A prefix, so that every update's foreign-key parents (inserted by
    // earlier updates of the stream) are present.
    const size_t probe =
        std::min(held_back.size(), spec.ops_per_tenant / kProbeEvery);
    tp.ops.insert(tp.ops.end(), held_back.begin(),
                  held_back.begin() + static_cast<ptrdiff_t>(probe));
  }
  // Warm-up draws `warm_ops_per_tenant` queries from their own stream and
  // keeps each distinct one once: with an unbounded cache and no updates a
  // repeat is a hit that changes nothing.
  dssp::Rng warm(SubSeed(seed, kWarm, t));
  std::set<std::string> seen;
  for (size_t drawn = 0; drawn < spec.warm_ops_per_tenant;) {
    for (DbOp& op : session->NextPage(warm)) {
      if (op.is_update || drawn >= spec.warm_ops_per_tenant) continue;
      ++drawn;
      if (seen.insert(StatementKey(op)).second) {
        tp.warm.push_back(std::move(op));
      }
    }
  }
  DSSP_ASSIGN_OR_RETURN(
      tp.oracle_digest,
      ReplayOnDatabase(app.home().database(), app.templates(), tp.ops));
  return Status::Ok();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w;
    const std::vector<std::string> four = {"bookstore", "auction", "bboard",
                                           "toystore"};
    WorkloadSpec browse;
    browse.name = "browse_hits";
    browse.why =
        "four tenants on one DsspNode, warmed unbounded cache, reads then a "
        "write probe: hits dominate, so the read path (lookup + client "
        "crypto) is timed";
    browse.apps = four;
    browse.hold_back_updates = true;
    browse.ops_per_tenant = 120000;
    browse.warm_ops_per_tenant = 150000;
    w.push_back(browse);

    WorkloadSpec misses;
    misses.name = "home_misses";
    misses.why =
        "two bookstore tenants at 4x scale capped at 256 entries, full mix: "
        "the working set exceeds the cache, so the home miss path is timed";
    misses.apps = {"bookstore", "bookstore"};
    misses.scale = 4.0;
    misses.capacity = 256;
    misses.ops_per_tenant = 20000;
    w.push_back(misses);

    WorkloadSpec fanout;
    fanout.name = "update_fanout";
    fanout.why =
        "four apps, full paper mixes, 4-member ClusterRouter with "
        "replication 2: write-through stores and bus invalidation are timed";
    fanout.apps = four;
    fanout.backend = Backend::kCluster;
    fanout.ops_per_tenant = 15000;
    fanout.with_simulator = true;
    w.push_back(fanout);
    return w;
  }();
  return workloads;
}

const WorkloadSpec& SimulatorSpec() {
  static const WorkloadSpec sim = [] {
    WorkloadSpec s;
    s.name = "sim_scalability";
    s.why =
        "RunMultiTenantSimulation over the four apps: the simulator's event "
        "loop and its virtual outputs";
    s.apps = {"bookstore", "auction", "bboard", "toystore"};
    s.simulator = true;
    return s;
  }();
  return sim;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

StatusOr<RunPlan> MakePlan(const WorkloadSpec& spec, uint64_t seed) {
  RunPlan plan;
  plan.spec = &spec;
  plan.seed = seed;
  const size_t n = spec.apps.size();
  plan.tenants.resize(n);
  std::vector<Status> status(n, Status::Ok());
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        status[t] = PlanTenant(spec, seed, t, plan.tenants[t]);
      });
    }
  }
  for (const Status& s : status) DSSP_RETURN_IF_ERROR(s);
  return plan;
}

StatusOr<RepResult> RunRepetition(const RunPlan& plan, bool traced) {
  return plan.spec->simulator ? RunSimulator(plan, traced)
                              : RunClosedLoop(plan, traced);
}

double OpsPerSecond(const std::vector<const RepResult*>& reps) {
  std::vector<double> rates;
  for (const RepResult* rep : reps) {
    double rate = 0;
    for (size_t t = 0; t < rep->thread_ops.size(); ++t) {
      if (rep->thread_busy_s[t] > 0) {
        rate += static_cast<double>(rep->thread_ops[t]) /
                rep->thread_busy_s[t];
      }
    }
    rates.push_back(rate);
  }
  if (rates.empty()) return 0;
  std::sort(rates.begin(), rates.end());
  const size_t n = rates.size();
  return n % 2 == 1 ? rates[n / 2] : (rates[n / 2 - 1] + rates[n / 2]) / 2;
}

StatusOr<SimReference> ReadSimReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return dssp::NotFoundError("cannot read " + path);
  SimReference reference(kSimSeeds);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t seed = 0;
    size_t tenant = 0;
    std::string app;
    SimOutputs out;
    if (!(fields >> seed >> tenant >> app >> out.db_ops >> out.p90_s >>
          out.hit_rate) ||
        seed >= kSimSeeds || tenant != reference[seed].size()) {
      return dssp::InvalidArgumentError("bad line in " + path + ": " + line);
    }
    reference[seed].push_back(out);
  }
  return reference;
}

std::string FormatSimReference(uint64_t seed,
                               const std::vector<std::string>& apps,
                               const std::vector<SimOutputs>& outputs) {
  std::string text;
  for (size_t t = 0; t < outputs.size(); ++t) {
    char line[160];
    std::snprintf(line, sizeof(line), "%llu %zu %s %llu %.17g %.17g\n",
                  static_cast<unsigned long long>(seed), t, apps[t].c_str(),
                  static_cast<unsigned long long>(outputs[t].db_ops),
                  outputs[t].p90_s, outputs[t].hit_rate);
    text += line;
  }
  return text;
}

}  // namespace servebench
