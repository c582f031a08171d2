// Ablation: vectorized columnar engine + compiled query programs vs. the
// row-at-a-time reference interpreter.
//
// For every application, each registered query template is compiled once
// (QueryProgram::Compile) and driven with data-derived parameter bindings
// through both paths; results are checked bit-identical (serialized bytes)
// before anything is timed. Per-template throughput is reported along with
// an access-path classification:
//
//   point     every FROM slot is served by an equality index probe
//   index-join  a join whose every slot is served by an index probe or an
//             index join edge (no slot is scanned)
//   scan      single-table full scan, no aggregation, >= kScanFloor rows
//   scan-sm   full scan over a table too small for kernels to matter
//   scan-join multi-table full scan (the join loop dominates both paths)
//   scan-agg  full scan feeding GROUP BY / aggregation
//
// Two synthetic gate templates per application (a selective range scan and
// an equality point probe over the largest base table) anchor the release
// gates, independent of each workload's template mix. The gate scan uses a
// high-percentile parameter so it measures the filter kernel, not result
// materialization (which both paths pay identically):
//
//   GATE 1  the gate scan reaches >= 5x interpreter throughput;
//   GATE 2  `point` gate templates do not regress (program >= 0.8x
//           interpreter; probes were already O(matches), so parity is the
//           expectation).
//   GATE 3  bookstore Q2 (a PK probe on item joined to author on its PK)
//           at scale 4, whatever --scale says, reaches >= 3x interpreter
//           throughput: the index nested loop probes author's PK index
//           instead of hashing the whole author table per query.
//
// Workload templates are swept for coverage and reported with their class;
// their selectivity is data-dependent, so they inform but do not gate.
//
// Flags: --json <path> machine-readable results; --min-time <s> per-side
// measurement time (default 0.3; CI smoke uses a smaller value); --scale
// <f> database scale (default 1.0).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/program.h"
#include "engine/table.h"
#include "sql/parser.h"
#include "templates/template.h"

namespace {

using dssp::Rng;
using dssp::engine::Database;
using dssp::engine::QueryProgram;
using dssp::engine::Table;
using dssp::sql::Value;

using Clock = std::chrono::steady_clock;

constexpr size_t kScanFloor = 500;  // Min base rows for the 5x scan gate.
constexpr double kScanGate = 5.0;
constexpr double kPointGate = 0.8;
constexpr double kIndexJoinGate = 3.0;
constexpr double kIndexJoinScale = 4.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// A value sampled from the live data of `table.col` (NULL if empty).
Value SampleColumn(const Table& table, size_t col, Rng& rng) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (table.slot_count() == 0) break;
    const size_t slot = rng.NextBelow(table.slot_count());
    if (table.IsLive(slot)) return table.RowAt(slot)[col];
  }
  return Value::Null();
}

// For each parameter of `stmt`, the (table, column) it is compared with.
struct ParamSpec {
  bool is_limit = false;
  std::string table;
  size_t col = 0;
};

std::vector<ParamSpec> ParamSpecs(const dssp::sql::Statement& stmt,
                                  const dssp::catalog::Catalog& catalog) {
  std::vector<ParamSpec> specs(static_cast<size_t>(stmt.num_params));
  const dssp::sql::SelectStatement& select = stmt.select();
  for (const dssp::sql::Comparison& cmp : select.where) {
    for (const auto& [param_op, other_op] :
         {std::pair(&cmp.lhs, &cmp.rhs), std::pair(&cmp.rhs, &cmp.lhs)}) {
      if (!dssp::sql::IsParameter(*param_op) || !dssp::sql::IsColumn(*other_op)) {
        continue;
      }
      ParamSpec& spec = specs[static_cast<size_t>(
          std::get<dssp::sql::Parameter>(*param_op).index)];
      if (!spec.table.empty()) continue;
      const auto& ref = std::get<dssp::sql::ColumnRef>(*other_op);
      for (const dssp::sql::TableRef& from : select.from) {
        if (!ref.table.empty() && ref.table != from.effective_name()) continue;
        const dssp::catalog::TableSchema* schema = catalog.FindTable(from.table);
        if (schema == nullptr) continue;
        const std::optional<size_t> idx = schema->ColumnIndex(ref.column);
        if (!idx.has_value()) continue;
        spec.table = from.table;
        spec.col = *idx;
        break;
      }
    }
  }
  if (select.limit.has_value() && dssp::sql::IsParameter(*select.limit)) {
    specs[static_cast<size_t>(
              std::get<dssp::sql::Parameter>(*select.limit).index)]
        .is_limit = true;
  }
  return specs;
}

struct Measurement {
  std::string id;
  std::string cls;
  uint64_t rows_per_query = 0;
  double interp_qps = 0;
  double program_qps = 0;
  double speedup = 0;
};

// Times both paths over `bindings` (all verified bit-identical first).
// Returns nullopt if no binding executes successfully.
std::optional<Measurement> Measure(const Database& db,
                                   const dssp::sql::Statement& stmt,
                                   const QueryProgram& program,
                                   const std::vector<std::vector<Value>>& all,
                                   double min_time) {
  std::vector<dssp::sql::Statement> bound;
  std::vector<std::vector<Value>> bindings;
  uint64_t rows = 0;
  for (const std::vector<Value>& params : all) {
    dssp::sql::Statement instance = dssp::sql::BindParameters(stmt, params);
    const auto via_interp = db.ExecuteQuery(instance);
    const auto via_program = program.Execute(db, params);
    DSSP_CHECK(via_interp.ok() == via_program.ok());
    if (!via_interp.ok()) continue;
    DSSP_CHECK(via_interp->Serialize() == via_program->Serialize());
    rows += via_interp->num_rows();
    bound.push_back(std::move(instance));
    bindings.push_back(params);
  }
  if (bound.empty()) return std::nullopt;

  Measurement m;
  m.rows_per_query = rows / bound.size();
  for (const bool compiled : {false, true}) {
    uint64_t execs = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed < min_time) {
      for (size_t i = 0; i < bound.size(); ++i) {
        if (compiled) {
          auto result = program.Execute(db, bindings[i]);
          DSSP_CHECK(result.ok());
        } else {
          auto result = db.ExecuteQuery(bound[i]);
          DSSP_CHECK(result.ok());
        }
      }
      execs += bound.size();
      elapsed = Seconds(Clock::now() - start);
    }
    const double qps = static_cast<double>(execs) / elapsed;
    (compiled ? m.program_qps : m.interp_qps) = qps;
  }
  m.speedup = m.interp_qps > 0 ? m.program_qps / m.interp_qps : 0;
  return m;
}

// Data-derived bindings for `stmt`'s parameters, appended to `bindings`
// until there are eight.
std::vector<std::vector<Value>> MakeBindings(
    const Database& db, const dssp::sql::Statement& stmt, Rng& rng,
    std::vector<std::vector<Value>> bindings = {}) {
  const std::vector<ParamSpec> specs = ParamSpecs(stmt, db.catalog());
  while (bindings.size() < 8) {
    std::vector<Value> params;
    for (const ParamSpec& spec : specs) {
      if (spec.is_limit) {
        params.push_back(Value(static_cast<int64_t>(1 + rng.NextBelow(20))));
      } else if (!spec.table.empty()) {
        params.push_back(SampleColumn(db.GetTable(spec.table), spec.col, rng));
      } else {
        params.push_back(Value(static_cast<int64_t>(rng.NextBelow(100))));
      }
    }
    bindings.push_back(std::move(params));
  }
  return bindings;
}

std::string Classify(const QueryProgram& program,
                     const dssp::sql::SelectStatement& select,
                     const Database& db) {
  if (!program.uses_full_scan()) {
    return program.uses_index_join() ? "index-join" : "point";
  }
  if (select.from.size() > 1) return "scan-join";
  if (select.has_aggregate()) return "scan-agg";
  const size_t rows = db.GetTable(select.from[0].table).num_rows();
  return rows >= kScanFloor ? "scan" : "scan-sm";
}

// The largest base table and a numeric non-key column of it, for the
// synthetic gate templates.
struct GateTarget {
  std::string table;
  std::string key_col;    // First column (equality probe target).
  std::string range_col;  // A numeric column for the `>= ?` scan.
};

std::optional<GateTarget> PickGateTarget(const Database& db) {
  GateTarget best;
  size_t best_rows = 0;
  for (const std::string& name : db.catalog().TableNames()) {
    const Table& table = db.GetTable(name);
    const auto& schema = table.schema();
    std::string range_col;
    for (const auto& col : schema.columns()) {
      if (col.type == dssp::catalog::ColumnType::kString) continue;
      if (schema.IsPrimaryKeyColumn(col.name)) continue;
      range_col = col.name;
      break;
    }
    if (range_col.empty()) continue;
    if (table.num_rows() > best_rows) {
      best_rows = table.num_rows();
      best = GateTarget{name, schema.columns()[0].name, range_col};
    }
  }
  if (best_rows == 0) return std::nullopt;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = dssp::bench::FlagValue(argc, argv, "--json");
  const char* min_time_flag = dssp::bench::FlagValue(argc, argv, "--min-time");
  const char* scale_flag = dssp::bench::FlagValue(argc, argv, "--scale");
  const double min_time = min_time_flag != nullptr ? std::atof(min_time_flag) : 0.3;
  const double scale = scale_flag != nullptr ? std::atof(scale_flag) : 1.0;

  std::printf(
      "Ablation — vectorized engine + compiled programs vs. interpreter\n"
      "(per-template throughput; results verified bit-identical before\n"
      " timing; scale %.2f, %.2fs per measurement)\n\n",
      scale, min_time);

  bool scan_gate_ok = true;
  bool point_gate_ok = true;
  double worst_scan = 1e9;
  double worst_point = 1e9;
  std::string json_apps;

  for (const char* name : {"toystore", "auction", "bboard", "bookstore"}) {
    auto system = dssp::bench::BuildSystem(name, scale, 17);
    const Database& db = system->app->home().database();
    Rng rng(4242);

    std::printf("%s\n", name);
    std::printf("  %-10s %-10s %7s %12s %12s %9s\n", "template", "class",
                "rows/q", "interp q/s", "program q/s", "speedup");

    std::vector<Measurement> measurements;
    const auto run_one = [&](const std::string& id,
                             const dssp::sql::Statement& stmt, bool is_gate,
                             std::vector<std::vector<Value>> bindings = {}) {
      const auto program = QueryProgram::Compile(db.catalog(), stmt.select());
      DSSP_CHECK(program.ok());
      std::optional<Measurement> m =
          Measure(db, stmt, *program,
                  MakeBindings(db, stmt, rng, std::move(bindings)), min_time);
      if (!m.has_value()) return;
      m->id = id;
      m->cls = Classify(*program, stmt.select(), db);
      std::printf("  %-10s %-10s %7llu %12.0f %12.0f %8.1fx\n", m->id.c_str(),
                  m->cls.c_str(),
                  static_cast<unsigned long long>(m->rows_per_query),
                  m->interp_qps, m->program_qps, m->speedup);
      if (m->cls == "scan" && is_gate) {
        worst_scan = std::min(worst_scan, m->speedup);
        if (m->speedup < kScanGate) scan_gate_ok = false;
      }
      if (m->cls == "point" && is_gate) {
        worst_point = std::min(worst_point, m->speedup);
        if (m->speedup < kPointGate) point_gate_ok = false;
      }
      measurements.push_back(std::move(*m));
    };

    // Synthetic gate templates over the largest base table. The scan's
    // `>= ?` parameter is the max of a data sample, so it selects a thin
    // tail: the measurement is the filter over all rows, not the (shared)
    // cost of materializing half the table into the result.
    const std::optional<GateTarget> gate = PickGateTarget(db);
    DSSP_CHECK(gate.has_value());
    const Table& gate_table = db.GetTable(gate->table);
    const size_t range_idx =
        *gate_table.schema().ColumnIndex(gate->range_col);
    std::vector<std::vector<Value>> selective;
    for (int b = 0; b < 8; ++b) {
      Value best;
      for (int s = 0; s < 64; ++s) {
        Value v = SampleColumn(gate_table, range_idx, rng);
        if (v.is_null()) continue;
        if (best.is_null() || best < v) best = v;
      }
      selective.push_back({best});
    }
    run_one("gate-scan",
            dssp::sql::ParseOrDie("SELECT " + gate->key_col + " FROM " +
                                  gate->table + " WHERE " + gate->range_col +
                                  " >= ?"),
            /*is_gate=*/true, std::move(selective));
    run_one("gate-point",
            dssp::sql::ParseOrDie("SELECT " + gate->key_col + " FROM " +
                                  gate->table + " WHERE " + gate->key_col +
                                  " = ?"),
            /*is_gate=*/true);

    // Every registered workload template.
    for (const auto& tmpl : system->app->templates().queries()) {
      run_one(tmpl.id(), tmpl.statement(), /*is_gate=*/false);
    }

    if (json_path != nullptr) {
      std::string rows;
      for (const Measurement& m : measurements) {
        dssp::bench::JsonObject row;
        row.Set("id", m.id);
        row.Set("class", m.cls);
        row.Set("rows_per_query", m.rows_per_query);
        row.Set("interp_qps", m.interp_qps);
        row.Set("program_qps", m.program_qps);
        row.Set("speedup", m.speedup);
        if (!rows.empty()) rows += ",";
        rows += row.ToString();
      }
      dssp::bench::JsonObject app;
      app.Set("app", name);
      app.SetRaw("templates", "[" + rows + "]");
      if (!json_apps.empty()) json_apps += ",";
      json_apps += app.ToString();
    }
    std::printf("\n");
  }

  // GATE 3 runs on its own bookstore instance at kIndexJoinScale, so the
  // CI smoke enforces it at the default --scale too.
  double index_join_speedup = 0;
  {
    auto system = dssp::bench::BuildSystem("bookstore", kIndexJoinScale, 17);
    const Database& db = system->app->home().database();
    Rng rng(4242);
    const dssp::templates::QueryTemplate* q2 = nullptr;
    for (const auto& tmpl : system->app->templates().queries()) {
      if (tmpl.id() == "Q2") q2 = &tmpl;
    }
    DSSP_CHECK(q2 != nullptr);
    const dssp::sql::Statement& stmt = q2->statement();
    const auto program = QueryProgram::Compile(db.catalog(), stmt.select());
    DSSP_CHECK(program.ok());
    DSSP_CHECK(Classify(*program, stmt.select(), db) == "index-join");
    const std::optional<Measurement> m = Measure(
        db, stmt, *program, MakeBindings(db, stmt, rng), min_time);
    DSSP_CHECK(m.has_value());
    index_join_speedup = m->speedup;
    std::printf(
        "bookstore Q2 at scale %.0f: interp %.0f q/s, program %.0f q/s, "
        "%.1fx\n\n",
        kIndexJoinScale, m->interp_qps, m->program_qps, m->speedup);
  }
  const bool index_join_gate_ok = index_join_speedup >= kIndexJoinGate;

  std::printf(
      "Interpretation: `scan` templates stream the columnar sidecar through\n"
      "typed kernels instead of resolving names and copying sql::Value per\n"
      "row, so they gain the most; `point` templates were already served by\n"
      "the hash index and only shed the per-query binder, so parity is the\n"
      "expectation there. `index-join` templates probe a unique column's\n"
      "index per outer row where the interpreter hashes the whole inner\n"
      "table, so they gain with the size of that table. Aggregation\n"
      "(scan-agg) shares its grouping cost between both paths and lands in\n"
      "between.\n\n");
  std::printf("gate: scan speedup >= %.1fx   %s (worst %.1fx)\n", kScanGate,
              scan_gate_ok ? "PASS" : "FAIL",
              worst_scan == 1e9 ? 0.0 : worst_scan);
  std::printf("gate: point ratio  >= %.1fx   %s (worst %.1fx)\n", kPointGate,
              point_gate_ok ? "PASS" : "FAIL",
              worst_point == 1e9 ? 0.0 : worst_point);
  std::printf("gate: Q2 index join >= %.1fx %s (%.1fx)\n", kIndexJoinGate,
              index_join_gate_ok ? "PASS" : "FAIL", index_join_speedup);

  if (json_path != nullptr) {
    dssp::bench::JsonObject doc;
    doc.Set("experiment", "engine_vectorized");
    doc.Set("scale", scale);
    doc.Set("min_time_s", min_time);
    doc.Set("scan_gate", kScanGate);
    doc.Set("point_gate", kPointGate);
    doc.Set("scan_gate_pass", scan_gate_ok);
    doc.Set("point_gate_pass", point_gate_ok);
    doc.Set("index_join_gate", kIndexJoinGate);
    doc.Set("index_join_scale", kIndexJoinScale);
    doc.Set("index_join_speedup", index_join_speedup);
    doc.Set("index_join_gate_pass", index_join_gate_ok);
    doc.SetRaw("apps", "[" + json_apps + "]");
    dssp::bench::WriteJsonFile(json_path, doc);
  }
  return scan_gate_ok && point_gate_ok && index_join_gate_ok ? 0 : 1;
}
