#include "src/oracle.h"

#include <string>
#include <unordered_map>

#include "common/hash.h"

namespace servebench {

void OutcomeDigest::AddQuery(const dssp::engine::QueryResult& result) {
  value_ = dssp::HashCombine(value_, result.Fingerprint());
}

void OutcomeDigest::AddUpdate(const dssp::engine::UpdateEffect& effect) {
  value_ = dssp::HashCombine(value_, ~uint64_t{effect.rows_affected});
}

std::string StatementKey(const dssp::sim::DbOp& op) {
  std::string key = op.template_id;
  for (const dssp::sql::Value& v : op.params) key += v.EncodeForKey();
  return key;
}

dssp::StatusOr<uint64_t> ReplayOnDatabase(
    dssp::engine::Database& db, const dssp::templates::TemplateSet& templates,
    const std::vector<dssp::sim::DbOp>& ops) {
  OutcomeDigest digest;
  // Results of the distinct queries since the last update: a repeat reads
  // the same database state, so it has the same result.
  std::unordered_map<std::string, dssp::engine::QueryResult> since_update;
  for (const dssp::sim::DbOp& op : ops) {
    if (op.is_update) {
      since_update.clear();
      const size_t index = templates.UpdateIndex(op.template_id);
      if (index == dssp::templates::TemplateSet::kNpos) {
        return dssp::NotFoundError("update template " + op.template_id);
      }
      DSSP_ASSIGN_OR_RETURN(
          dssp::engine::UpdateEffect effect,
          db.ExecuteUpdate(templates.updates()[index].Bind(op.params)));
      digest.AddUpdate(effect);
    } else {
      std::string key = StatementKey(op);
      auto it = since_update.find(key);
      if (it == since_update.end()) {
        const size_t index = templates.QueryIndex(op.template_id);
        if (index == dssp::templates::TemplateSet::kNpos) {
          return dssp::NotFoundError("query template " + op.template_id);
        }
        DSSP_ASSIGN_OR_RETURN(
            dssp::engine::QueryResult result,
            db.ExecuteQuery(templates.queries()[index].Bind(op.params)));
        it = since_update.emplace(std::move(key), std::move(result)).first;
      }
      digest.AddQuery(it->second);
    }
  }
  return digest.value();
}

}  // namespace servebench
