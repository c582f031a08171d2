#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

// Output oracle: a per-tenant digest over the outcome of every operation,
// in order, computed once through the serving stack and once by replaying
// the same operations directly on a cache-less copy of the tenant's
// database. The two must be equal.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "sim/workload.h"
#include "templates/template_set.h"

namespace servebench {

class OutcomeDigest {
 public:
  void AddQuery(const dssp::engine::QueryResult& result);
  void AddUpdate(const dssp::engine::UpdateEffect& effect);
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0x5e5ebe5c;
};

// Identity of an operation's statement: template id plus encoded params.
std::string StatementKey(const dssp::sim::DbOp& op);

// Replays `ops` in order on `db` through the reference engine (no cache, no
// wire, no encryption) and returns their digest. Fails on the first
// operation error: the benchmark's workloads contain none.
dssp::StatusOr<uint64_t> ReplayOnDatabase(
    dssp::engine::Database& db, const dssp::templates::TemplateSet& templates,
    const std::vector<dssp::sim::DbOp>& ops);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
