// Serving benchmark entry point: runs one workload for a fixed measuring time,
// checks every output, and prints a report followed by one JSON line.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--commit <id>] [--source-digest <hex>] [--spans-dir <dir>]
//              [--sim-reference <file>]
//   servebench --write-sim-reference <file>
//
// --trace 0 measures the unmodified stack and reports end-to-end metrics.
// --trace 1 alternates untraced and traced repetitions and reports
// per-layer metrics from the traced ones, plus the tracing overhead.
// A workload with the simulator phase also runs RunMultiTenantSimulation
// and checks its virtual outputs against the --sim-reference table, which
// --write-sim-reference regenerates from the current sources.
// Exit code 0 only when every output was correct.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <string>
#include <vector>

#include "src/layers.h"
#include "src/workload.h"

namespace servebench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_dir;
  std::string sim_reference;
  std::string write_sim_reference;
};

bool ParseOptions(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--source-digest") {
      o.source_digest = value;
    } else if (flag == "--spans-dir") {
      o.spans_dir = value;
    } else if (flag == "--sim-reference") {
      o.sim_reference = value;
    } else if (flag == "--write-sim-reference") {
      o.write_sim_reference = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "every flag takes a value\n");
    return false;
  }
  return !o.write_sim_reference.empty() ||
         (!o.workload.empty() && o.seconds > 0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (q in (0, 1]); reorders `v`.
double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank == 0 ? 0 : rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Processors this process may run on (its affinity mask, as `nproc`
// counts them).
unsigned AvailableProcessors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// End-to-end metrics over untraced repetitions: set-up time and throughput
// are medians over them, latency percentiles pool every op of every one.
std::vector<Metric> EndToEnd(const std::vector<const RepResult*>& reps) {
  std::vector<double> setup_s;
  std::vector<double> query_us;
  std::vector<double> update_us;
  double ops = 0;
  double home_queries = 0;
  double failed = 0;
  for (const RepResult* rep : reps) {
    setup_s.push_back(rep->setup_s);
    query_us.insert(query_us.end(), rep->query_us.begin(),
                    rep->query_us.end());
    update_us.insert(update_us.end(), rep->update_us.begin(),
                     rep->update_us.end());
    ops += static_cast<double>(rep->ops);
    home_queries += static_cast<double>(rep->counts.home_queries);
    failed += static_cast<double>(rep->failed);
  }
  return {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", OpsPerSecond(reps), "1/s"},
      {"query_p50_us", Percentile(query_us, 0.50), "us"},
      {"query_p90_us", Percentile(query_us, 0.90), "us"},
      {"query_p99_us", Percentile(query_us, 0.99), "us"},
      {"update_p50_us", Percentile(update_us, 0.50), "us"},
      {"update_p90_us", Percentile(update_us, 0.90), "us"},
      {"update_p99_us", Percentile(update_us, 0.99), "us"},
      {"home_queries_per_op", Ratio(home_queries, ops), "ratio"},
      {"failed_op_ratio", Ratio(failed, ops), "ratio"},
  };
}

// Per-layer metrics of one traced repetition.
std::vector<Metric> PerLayer(const RepResult& rep) {
  const LayerTimes& l = rep.layers;
  const ExactCounts& c = rep.counts;
  const double queries = static_cast<double>(c.queries);
  const double updates = static_cast<double>(c.updates);
  const double op_ns = static_cast<double>(l.RootNs());
  const auto share = [&](int64_t ns) {
    return Ratio(100.0 * static_cast<double>(ns), op_ns);
  };
  const int64_t home_ns =
      l.self(SpanName::kHomeQuery) + l.self(SpanName::kHomeUpdate);
  const int64_t cache_ns =
      l.self(SpanName::kCacheLookup) + l.self(SpanName::kCacheStore) +
      l.self(SpanName::kCacheInvalidate) + l.self(SpanName::kCacheOther);
  const int64_t client_ns =
      l.self(SpanName::kQueryOp) + l.self(SpanName::kUpdateOp);
  const HomeCounters& h = rep.home;
  return {
      {"client.query_self_us",
       Ratio(static_cast<double>(l.self(SpanName::kQueryOp)) / 1e3, queries),
       "us"},
      {"client.update_self_us",
       Ratio(static_cast<double>(l.self(SpanName::kUpdateOp)) / 1e3, updates),
       "us"},
      {"client.response_bytes_per_query",
       Ratio(static_cast<double>(rep.response_bytes), queries), "bytes"},
      {"cache.lookup_us", l.SelfUsPerCall(SpanName::kCacheLookup), "us"},
      {"cache.lookups",
       static_cast<double>(l.count(SpanName::kCacheLookup)), "count"},
      {"cache.hit_rate", Ratio(static_cast<double>(c.hits), queries),
       "ratio"},
      {"cache.store_us", l.SelfUsPerCall(SpanName::kCacheStore), "us"},
      {"cache.stores", static_cast<double>(l.count(SpanName::kCacheStore)),
       "count"},
      {"cache.evictions", static_cast<double>(rep.cache_evictions), "count"},
      {"cache.entries", static_cast<double>(rep.cache_entries), "count"},
      {"cache.invalidate_us", l.SelfUsPerCall(SpanName::kCacheInvalidate),
       "us"},
      {"cache.invalidated_per_update",
       Ratio(static_cast<double>(c.entries_invalidated), updates), "ratio"},
      {"cluster.replica_fallbacks", static_cast<double>(rep.replica_fallbacks),
       "count"},
      {"bus.delivered_notices", static_cast<double>(c.bus_delivered),
       "count"},
      {"bus.batches_sent", static_cast<double>(rep.bus_batches), "count"},
      {"bus.wire_retries", static_cast<double>(rep.bus_wire_retries),
       "count"},
      {"wire.self_us", l.SelfUsPerCall(SpanName::kWire), "us"},
      {"wire.round_trips", static_cast<double>(l.count(SpanName::kWire)),
       "count"},
      {"wire.request_bytes", static_cast<double>(l.wire_request_bytes),
       "bytes"},
      {"wire.response_bytes", static_cast<double>(l.wire_response_bytes),
       "bytes"},
      {"home.query_us", l.SelfUsPerCall(SpanName::kHomeQuery), "us"},
      {"home.update_us", l.SelfUsPerCall(SpanName::kHomeUpdate), "us"},
      {"home.queries", static_cast<double>(h.queries), "count"},
      {"home.updates", static_cast<double>(h.updates), "count"},
      {"home.rows_per_query",
       Ratio(static_cast<double>(rep.home_rows),
             static_cast<double>(c.home_queries)),
       "rows"},
      {"home.program_share",
       Ratio(static_cast<double>(h.program_queries),
             static_cast<double>(h.queries)),
       "ratio"},
      {"home.statement_cache_hit_rate",
       Ratio(static_cast<double>(h.statement_hits),
             static_cast<double>(h.statement_hits + h.statement_misses)),
       "ratio"},
      {"home.leases_queued", static_cast<double>(h.leases_queued), "count"},
      {"share.client_pct", share(client_ns), "%"},
      {"share.cache_lookup_pct", share(l.self(SpanName::kCacheLookup)), "%"},
      {"share.cache_store_pct", share(l.self(SpanName::kCacheStore)), "%"},
      {"share.cache_invalidate_pct",
       share(l.self(SpanName::kCacheInvalidate)), "%"},
      {"share.cache_pct", share(cache_ns), "%"},
      {"share.wire_pct", share(l.self(SpanName::kWire)), "%"},
      {"share.home_pct", share(home_ns), "%"},
  };
}

// Median of each metric over repetitions, in first-seen order.
std::vector<Metric> MedianOf(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  if (reps.empty()) return out;
  for (size_t i = 0; i < reps[0].size(); ++i) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[i].value);
    out.push_back({reps[0][i].name, Median(values), reps[0][i].unit});
  }
  return out;
}

const Metric* Find(const std::vector<Metric>& metrics, std::string_view n) {
  for (const Metric& m : metrics) {
    if (m.name == n) return &m;
  }
  return nullptr;
}

std::string JsonMetrics(const std::vector<Metric>& metrics,
                        const std::vector<std::string>& names) {
  std::string out = "{";
  for (const std::string& name : names) {
    const Metric* m = Find(metrics, name);
    if (m == nullptr) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, "
                  "\"unit\": \"%s\"}", out.size() > 1 ? ", " : "",
                  m->name.c_str(), m->value, m->unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Self time of every span name, summed over the traced repetitions.
void PrintSelfTimes(const std::vector<const RepResult*>& reps) {
  LayerTimes sum;
  for (const RepResult* rep : reps) sum.Add(rep->layers);
  const double root = static_cast<double>(sum.RootNs());
  std::printf("  self time by span (all traced repetitions):\n");
  std::printf("    %-18s %12s %12s %12s %8s\n", "span", "calls", "self ms",
              "self us/call", "share");
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
    const SpanName name = static_cast<SpanName>(i);
    if (sum.count(name) == 0) continue;
    std::printf("    %-18s %12llu %12.1f %12.3f %7.1f%%\n",
                std::string(SpanNameString(name)).c_str(),
                static_cast<unsigned long long>(sum.count(name)),
                static_cast<double>(sum.self(name)) / 1e6,
                sum.SelfUsPerCall(name),
                Ratio(100.0 * static_cast<double>(sum.self(name)), root));
  }
}

// Acceptance checks on the traced layer shares: each workload must stress
// the layer it was chosen for.
void PrintLayerChecks(const std::string& workload,
                      const std::vector<Metric>& layer) {
  const auto v = [&](const char* n) { return Find(layer, n)->value; };
  struct Check {
    const char* what;
    bool ok;
  };
  std::vector<Check> checks;
  if (workload == "browse_hits") {
    checks = {
        {"backend <= 25% of op time", v("share.home_pct") <= 25},
        {"cache lookup + client self >= 60% of op time",
         v("share.cache_lookup_pct") + v("share.client_pct") >= 60},
        {"cache invalidate <= 10% of op time",
         v("share.cache_invalidate_pct") <= 10},
    };
  } else if (workload == "home_misses") {
    checks = {{"backend >= 60% of op time", v("share.home_pct") >= 60}};
  } else if (workload == "update_fanout") {
    checks = {{"cache invalidate >= 30% of op time",
               v("share.cache_invalidate_pct") >= 30}};
  }
  for (const Check& c : checks) {
    std::printf("  layer check [%s] %s\n", c.ok ? "PASS" : "MISS", c.what);
  }
}

// The end-to-end metric names the benchmark definition (BENCHMARK.json)
// gates on. p99 latencies are reported but not gated: on a shared host their
// spread across runs exceeds any usable bound (see README.md).
const std::vector<std::string> kEndToEnd = {
    "setup_s",       "ops_per_s",     "query_p50_us",
    "query_p90_us",  "update_p50_us", "update_p90_us",
    "home_queries_per_op", "peak_rss_mb"};

// Outcome of the simulator phase. Its metrics stay 0 on workloads without
// one.
struct SimPhase {
  bool ok = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics = {{"sim.ops_per_s", 0, "1/s"},
                                 {"sim.loop_us_per_op", 0, "us"},
                                 {"sim.db_ops", 0, "count"}};
};

// One repetition of the simulator over seed % kSimSeeds; under --trace 1 a
// second, traced one. Each one's per-tenant virtual outputs must equal the
// reference exactly, and the traced one's exact counts the untraced one's.
SimPhase RunSimulatorPhase(uint64_t seed, bool trace,
                           const SimReference& reference) {
  SimPhase phase;
  const uint64_t sim_seed = seed % kSimSeeds;
  const WorkloadSpec& spec = SimulatorSpec();
  std::printf("\nsimulator phase: %s, seed %% %llu = %llu, %d clients per "
              "tenant, %g virtual s\n",
              spec.name.c_str(), static_cast<unsigned long long>(kSimSeeds),
              static_cast<unsigned long long>(sim_seed), kSimClients,
              kSimDurationS);
  dssp::StatusOr<RunPlan> plan = MakePlan(spec, sim_seed);
  if (!plan.ok()) {
    std::printf("  simulator plan failed: %s\n",
                plan.status().ToString().c_str());
    phase.ok = false;
    return phase;
  }
  std::vector<RepResult> reps;
  for (int i = 0; i < (trace ? 2 : 1); ++i) {
    const bool traced = i == 1;
    dssp::StatusOr<RepResult> rep = RunRepetition(*plan, traced);
    if (!rep.ok()) {
      std::printf("  simulator repetition failed: %s\n",
                  rep.status().ToString().c_str());
      phase.ok = false;
      return phase;
    }
    phase.attempted += rep->ops;
    phase.failed += rep->failed;
    const std::vector<SimOutputs>& want = reference[sim_seed];
    for (size_t t = 0; t < spec.apps.size(); ++t) {
      if (t < want.size() && t < rep->counts.sim.size() &&
          rep->counts.sim[t] == want[t]) {
        continue;
      }
      std::printf("  SIMULATOR REFERENCE MISMATCH: tenant %zu (%s) rep %d\n",
                  t, spec.apps[t].c_str(), i);
      phase.ok = false;
    }
    if (!reps.empty() && !(rep->counts == reps[0].counts)) {
      std::printf("  EXACT-COUNT DRIFT: simulator rep %d differs from rep 0 "
                  "— a race or a nondeterminism\n", i);
      phase.ok = false;
    }
    std::printf("sim rep %d%s: setup %.3f s, %llu db ops in %.3f s (%.0f "
                "ops/s)\n",
                i, traced ? " [traced]" : "", rep->setup_s,
                static_cast<unsigned long long>(rep->ops), rep->wall_s,
                Ratio(static_cast<double>(rep->ops), rep->wall_s));
    reps.push_back(std::move(*rep));
  }
  uint64_t db_ops = 0;
  for (size_t t = 0; t < reps[0].counts.sim.size(); ++t) {
    const SimOutputs& out = reps[0].counts.sim[t];
    db_ops += out.db_ops;
    std::printf("  virtual %-10s db_ops=%llu p90=%.6f s hit_rate=%.6f\n",
                spec.apps[t].c_str(),
                static_cast<unsigned long long>(out.db_ops), out.p90_s,
                out.hit_rate);
  }
  const RepResult& last = reps.back();
  const double loop_us =
      trace ? Ratio((last.wall_s * 1e9 -
                     static_cast<double>(last.layers.RootNs())) / 1e3,
                    static_cast<double>(last.ops))
            : 0;
  phase.metrics = {
      {"sim.ops_per_s", OpsPerSecond({&reps[0]}), "1/s"},
      {"sim.loop_us_per_op", loop_us, "us"},
      {"sim.db_ops", static_cast<double>(db_ops), "count"},
  };
  return phase;
}

// Runs the simulator phase once for every seed in [0, kSimSeeds) and writes
// the per-tenant virtual outputs to `path`.
int WriteSimReference(const std::string& path) {
  const WorkloadSpec& spec = SimulatorSpec();
  std::string text =
      "# Virtual outputs of the servebench simulator phase per seed: "
      "<seed> <tenant> <app> <db_ops> <p90_s> <hit_rate>.\n"
      "# Regenerate: servebench --write-sim-reference <this file>\n";
  for (uint64_t seed = 0; seed < kSimSeeds; ++seed) {
    dssp::StatusOr<RunPlan> plan = MakePlan(spec, seed);
    dssp::StatusOr<RepResult> rep =
        plan.ok() ? RunRepetition(*plan, /*traced=*/false)
                  : dssp::StatusOr<RepResult>(plan.status());
    if (!rep.ok() || rep->failed > 0) {
      std::fprintf(stderr, "simulator seed %llu failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   rep.ok() ? "failed ops" : rep.status().ToString().c_str());
      return 1;
    }
    text += FormatSimReference(seed, spec.apps, rep->counts.sim);
    std::fprintf(stderr, "seed %llu done\n",
                 static_cast<unsigned long long>(seed));
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

int Run(const Options& o) {
  const WorkloadSpec* spec = FindWorkload(o.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s (known:", o.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const unsigned nproc = AvailableProcessors();
  const size_t threads = spec->apps.size();
  if (threads > nproc) {
    std::fprintf(stderr,
                 "refusing to run %zu tenant threads on %u processors\n",
                 threads, nproc);
    return 2;
  }
  SimReference reference;
  if (spec->with_simulator) {
    dssp::StatusOr<SimReference> read = ReadSimReference(o.sim_reference);
    if (!read.ok()) {
      std::fprintf(stderr, "simulator reference: %s\n",
                   read.status().ToString().c_str());
      return 2;
    }
    reference = std::move(*read);
  }

  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("context: nproc=%u build=%s compiler=%s flags=\"%s\"\n", nproc,
              SERVEBENCH_BUILD_TYPE, SERVEBENCH_COMPILER,
              SERVEBENCH_CXX_FLAGS);
  std::printf("context: commit=%s source_digest=%s\n", o.commit.c_str(),
              o.source_digest.c_str());
  std::printf("context: tenants=%zu threads=%zu apps=", spec->apps.size(),
              threads);
  for (const std::string& app : spec->apps) std::printf("%s ", app.c_str());
  std::printf("scale=%g capacity=%zu backend=%s simulator_phase=%s\n",
              spec->scale, spec->capacity,
              spec->backend == Backend::kCluster ? "cluster(4,repl=2)"
                                                 : "node",
              spec->with_simulator ? "yes" : "no");
  std::printf("why: %s\n", spec->why.c_str());
  std::fflush(stdout);

  const int64_t t0 = NowNs();
  dssp::StatusOr<RunPlan> plan = MakePlan(*spec, o.seed);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan: %.3f s (op sequences + oracle replay)\n",
              static_cast<double>(NowNs() - t0) / 1e9);

  // Repetitions until the measuring time is spent (at least three untraced;
  // in trace mode, alternating untraced/traced with at least two traced).
  std::vector<RepResult> reps;
  double peak_rss_mb = 0;
  bool oracle_ok = true;
  bool counts_repeat = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const int64_t measure_start = NowNs();
  const auto elapsed = [&] {
    return static_cast<double>(NowNs() - measure_start) / 1e9;
  };
  const size_t min_reps = o.trace ? 4 : 3;
  while (reps.size() < min_reps || elapsed() < o.seconds) {
    const bool traced = o.trace && reps.size() % 2 == 1;
    dssp::StatusOr<RepResult> rep = RunRepetition(*plan, traced);
    if (!rep.ok()) {
      std::fprintf(stderr, "repetition failed: %s\n",
                   rep.status().ToString().c_str());
      return 1;
    }
    attempted += rep->ops;
    failed += rep->failed;
    for (const std::string& e : rep->errors) {
      std::printf("  FAILED op: %s\n", e.c_str());
    }
    for (size_t t = 0; t < plan->tenants.size(); ++t) {
      if (rep->counts.digests[t] != plan->tenants[t].oracle_digest) {
        std::printf("  ORACLE MISMATCH: tenant %zu (%s) rep %zu\n", t,
                    plan->tenants[t].app.c_str(), reps.size());
        oracle_ok = false;
      }
    }
    if (!reps.empty() && !(rep->counts == reps[0].counts)) {
      std::printf("  EXACT-COUNT DRIFT: rep %zu (%s) differs from rep 0 — "
                  "a race or a nondeterminism\n",
                  reps.size(), rep->traced ? "traced" : "untraced");
      counts_repeat = false;
    }
    std::vector<double> q = rep->query_us;
    std::vector<double> u = rep->update_us;
    std::printf("rep %zu%s: setup %.3f s, %llu ops in %.3f s (%.0f ops/s), "
                "query p99 %.0f us, update p99 %.0f us, "
                "hits %llu, home queries %llu, invalidated %llu\n",
                reps.size(), rep->traced ? " [traced]" : "", rep->setup_s,
                static_cast<unsigned long long>(rep->ops), rep->wall_s,
                OpsPerSecond({&*rep}), Percentile(q, 0.99),
                Percentile(u, 0.99),
                static_cast<unsigned long long>(rep->counts.hits),
                static_cast<unsigned long long>(rep->counts.home_queries),
                static_cast<unsigned long long>(
                    rep->counts.entries_invalidated));
    std::fflush(stdout);
    // Only the last traced repetition's spans are kept for writing out.
    if (rep->traced) {
      for (RepResult& r : reps) r.spans.clear();
    }
    // Peak RSS of the plan plus one repetition's stack; later repetitions
    // only add the allocator's retention from rebuilding the stack.
    if (reps.empty()) peak_rss_mb = PeakRssMb();
    reps.push_back(std::move(*rep));
  }

  SimPhase sim;
  if (spec->with_simulator) {
    sim = RunSimulatorPhase(o.seed, o.trace, reference);
    attempted += sim.attempted;
    failed += sim.failed;
  }

  std::vector<const RepResult*> untraced;
  std::vector<const RepResult*> traced_reps;
  std::vector<std::vector<Metric>> traced;
  for (const RepResult& rep : reps) {
    if (rep.traced) {
      traced_reps.push_back(&rep);
      traced.push_back(PerLayer(rep));
    } else {
      untraced.push_back(&rep);
    }
  }
  std::vector<Metric> e2e = EndToEnd(untraced);
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  std::printf("\n");
  PrintMetrics(
      "end-to-end (untraced repetitions: median set-up and ops/s, pooled "
      "latencies; peak RSS after the first):",
      e2e);
  std::printf("  latency samples per repetition: %llu queries, %llu "
              "updates; %zu untraced repetitions\n",
              static_cast<unsigned long long>(reps[0].counts.queries),
              static_cast<unsigned long long>(reps[0].counts.updates),
              untraced.size());

  std::vector<Metric> layer;
  if (o.trace) {
    layer = MedianOf(traced);
    const double traced_ops_per_s = OpsPerSecond(traced_reps);
    const double untraced_ops_per_s = OpsPerSecond(untraced);
    const double overhead =
        100.0 * (1.0 - Ratio(traced_ops_per_s, untraced_ops_per_s));
    layer.insert(layer.end(), sim.metrics.begin(), sim.metrics.end());
    layer.push_back({"trace.overhead_pct", overhead, "%"});
    std::printf("\n");
    PrintMetrics("per-layer (median of traced repetitions):", layer);
    std::printf("  tracing overhead: traced %.0f ops/s vs untraced %.0f "
                "ops/s\n",
                traced_ops_per_s, untraced_ops_per_s);
    PrintSelfTimes(traced_reps);
    PrintLayerChecks(spec->name, layer);
    if (!o.spans_dir.empty()) {
      for (const RepResult& rep : reps) {
        if (rep.spans.empty()) continue;
        std::vector<const SpanBuffer*> buffers;
        for (const auto& b : rep.spans) buffers.push_back(b.get());
        // One file per workload, replaced by each traced run.
        const std::string path = o.spans_dir + "/" + spec->name + ".csv";
        if (!WriteSpansCsv(path, buffers)) {
          std::fprintf(stderr, "could not write %s\n", path.c_str());
          return 1;
        }
        std::printf("  spans of the last traced repetition: %s\n",
                    path.c_str());
      }
    }
  }

  const bool correct = failed == 0 && oracle_ok && counts_repeat && sim.ok;
  std::printf("\noracle digests match: %s\n", oracle_ok ? "yes" : "NO");
  std::printf("exact counts repeat across %zu repetitions: %s\n",
              reps.size(), counts_repeat ? "yes" : "NO");
  if (spec->with_simulator) {
    std::printf("simulator outputs equal the reference and repeat: %s\n",
                sim.ok ? "yes" : "NO");
  }
  std::printf("verdict: %s (attempted %llu, failed %llu)\n",
              correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::vector<std::string> names;
  if (o.trace) {
    for (const Metric& m : layer) names.push_back(m.name);
  } else {
    names = kEndToEnd;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(o.trace ? layer : e2e, names).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options options;
  if (!servebench::ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--sim-reference <file>]\n"
                 "       servebench --write-sim-reference <file>\n");
    return 2;
  }
  if (!options.write_sim_reference.empty()) {
    return servebench::WriteSimReference(options.write_sim_reference);
  }
  return servebench::Run(options);
}
