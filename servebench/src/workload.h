#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The serving benchmark's workloads and one repetition of each.
//
// A closed-loop workload gives every tenant (one application with its own
// home database) one thread, which replays a pre-generated, seeded
// sequence of that application's pages back to back through the public
// stack:
//
//   ScalableApp -> CacheBackend (DsspNode or ClusterRouter)
//               -> Channel (DirectChannel) -> HomeBackend (InMemoryBackend)
//
// Every repetition builds the whole stack afresh from the same plan, so a
// repetition's exact counts (hits, home queries, invalidations, bus
// notices, result digests) must repeat exactly.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/exposure.h"
#include "common/status.h"
#include "sim/workload.h"
#include "src/layers.h"

namespace servebench {

enum class Backend { kNode, kCluster };

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::vector<std::string> apps;  // One tenant (and one thread) each.
  double scale = 1.0;             // Database scale factor.
  size_t capacity = 0;            // Cache entries per tenant; 0 = unbounded.
  Backend backend = Backend::kNode;
  // Read-mostly shape: the pages' update ops are held back from the read
  // phase and replayed once every tenant has finished its reads, as a write
  // probe of one update per kProbeEvery reads.
  bool hold_back_updates = false;
  size_t ops_per_tenant = 0;       // Timed ops (reads when holding back).
  // Untimed warm-up queries drawn (distinct ones replayed; needs an
  // unbounded cache).
  size_t warm_ops_per_tenant = 0;
  // Also runs the simulator phase (SimulatorSpec) in every run.
  bool with_simulator = false;
  // Simulator: RunMultiTenantSimulation over `apps`, kSimClients clients
  // per tenant for kSimDurationS virtual seconds.
  bool simulator = false;
};

// One update replayed per this many reads in a held-back write probe.
inline constexpr size_t kProbeEvery = 400;

inline constexpr int kSimClients = 500;
inline constexpr double kSimDurationS = 120;

// The closed-loop workloads, by name.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// The simulator phase: RunMultiTenantSimulation over the four applications.
const WorkloadSpec& SimulatorSpec();

// The simulator phase draws its inputs from seed % kSimSeeds, so that its
// virtual outputs can be checked against a committed reference table.
inline constexpr uint64_t kSimSeeds = 32;

// One tenant's inputs, generated once per run from the seed.
struct TenantPlan {
  std::string app;
  uint64_t db_seed = 0;
  uint64_t session_seed = 0;
  std::vector<dssp::sim::DbOp> warm;  // Untimed warm-up (queries only).
  std::vector<dssp::sim::DbOp> ops;   // Timed, in order.
  size_t probe_begin = 0;  // ops[probe_begin..] form the write probe.
  uint64_t oracle_digest = 0;         // ReplayOnDatabase over `ops`.
};

struct RunPlan {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::vector<TenantPlan> tenants;
};

// Generates every tenant's op sequence and its oracle digest.
dssp::StatusOr<RunPlan> MakePlan(const WorkloadSpec& spec, uint64_t seed);

// One simulated tenant's virtual outputs.
struct SimOutputs {
  uint64_t db_ops = 0;
  double p90_s = 0;
  double hit_rate = 0;

  bool operator==(const SimOutputs&) const = default;
};

// Counts that must repeat exactly across repetitions of one plan, traced or
// not (one thread per tenant makes them deterministic).
struct ExactCounts {
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t hits = 0;
  uint64_t home_queries = 0;
  uint64_t entries_invalidated = 0;
  uint64_t bus_delivered = 0;
  std::vector<uint64_t> digests;  // Per tenant (closed loop).
  // Simulator: per-tenant virtual outputs.
  std::vector<SimOutputs> sim;

  bool operator==(const ExactCounts&) const = default;
};

// Home-backend counters of the tenants, summed.
struct HomeCounters {
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t program_queries = 0;
  uint64_t statement_hits = 0;
  uint64_t statement_misses = 0;
  uint64_t leases_queued = 0;
};

struct RepResult {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;  // Timed phase.
  // Per tenant thread: timed ops and the time the thread spent replaying
  // them (barrier waits excluded). The simulator is one thread.
  std::vector<uint64_t> thread_ops;
  std::vector<double> thread_busy_s;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few failure messages.
  std::vector<double> query_us;     // Per-op latencies.
  std::vector<double> update_us;
  ExactCounts counts;

  // Stack counters.
  uint64_t response_bytes = 0;  // Client-visible bytes over all queries.
  uint64_t home_rows = 0;       // Rows returned by home queries.
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t replica_fallbacks = 0;
  uint64_t bus_batches = 0;
  uint64_t bus_wire_retries = 0;
  HomeCounters home;  // Timed phase only.

  // Traced repetitions only.
  LayerTimes layers;
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

// Builds the stack afresh and runs the plan once. `traced` installs the
// layer decorators and records spans.
dssp::StatusOr<RepResult> RunRepetition(const RunPlan& plan, bool traced);

// Ops per second of the given repetitions: the median over repetitions of
// the sum over tenant threads of each thread's ops over its own busy time.
// A thread preempted by the host slows only its own rate, not the others',
// and a repetition hit by a host stall does not move the median.
double OpsPerSecond(const std::vector<const RepResult*>& reps);

// Reference virtual outputs of the simulator phase, per seed % kSimSeeds and
// tenant. Text, one line per tenant:
//   <seed> <tenant> <app> <db_ops> <p90_s> <hit_rate>
// with doubles printed to 17 significant digits (exact round trip).
using SimReference = std::vector<std::vector<SimOutputs>>;
dssp::StatusOr<SimReference> ReadSimReference(const std::string& path);
std::string FormatSimReference(uint64_t seed,
                               const std::vector<std::string>& apps,
                               const std::vector<SimOutputs>& outputs);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
