#include "invalidation/strategies.h"

#include "analysis/ipm.h"
#include "analysis/query_slots.h"
#include "engine/eval.h"
#include "invalidation/independence.h"

namespace dssp::invalidation {

Decision BlindStrategy::Decide(const UpdateView& update,
                               const CachedQueryView& query) const {
  (void)update;
  (void)query;
  return Decision::kInvalidate;
}

namespace {

// True when both views carry the TemplateSet coordinates a compiled plan is
// indexed by.
bool HasPlanIndices(const UpdateView& update, const CachedQueryView& query) {
  return update.template_index != kNoTemplateIndex &&
         query.template_index != kNoTemplateIndex;
}

}  // namespace

Decision TemplateInspectionStrategy::Decide(
    const UpdateView& update, const CachedQueryView& query) const {
  if (update.tmpl == nullptr || query.tmpl == nullptr) {
    return Decision::kInvalidate;
  }
  if (plan_ != nullptr && HasPlanIndices(update, query)) {
    // Compiled A-cell decision: never_invalidate captures exactly the
    // Lemma-1 / Section 4.5 template checks below.
    return plan_->pair(update.template_index, query.template_index)
                   .never_invalidate
               ? Decision::kDoNotInvalidate
               : Decision::kInvalidate;
  }
  if (templates::IsIgnorable(*update.tmpl, *query.tmpl)) {
    return Decision::kDoNotInvalidate;
  }
  if (use_integrity_constraints_ &&
      analysis::InsertionIrrelevantByConstraints(*update.tmpl, *query.tmpl,
                                                 catalog_)) {
    return Decision::kDoNotInvalidate;
  }
  return Decision::kInvalidate;
}

Decision StatementInspectionStrategy::Decide(
    const UpdateView& update, const CachedQueryView& query) const {
  if (update.tmpl == nullptr || query.tmpl == nullptr) {
    return Decision::kInvalidate;
  }
  if (plan_ != nullptr && HasPlanIndices(update, query)) {
    const analysis::PairPlan& pair =
        plan_->pair(update.template_index, query.template_index);
    if (pair.never_invalidate) return Decision::kDoNotInvalidate;
    if (use_independence_solver_ && update.statement != nullptr &&
        query.statement != nullptr) {
      switch (analysis::EvaluatePairPlan(pair, *update.statement,
                                         *query.statement)) {
        case analysis::StmtDecision::kIndependent:
          return Decision::kDoNotInvalidate;
        case analysis::StmtDecision::kInvalidate:
          return Decision::kInvalidate;
        case analysis::StmtDecision::kRunSolver:
          return ProvablyIndependent(*update.tmpl, *update.statement,
                                     *query.tmpl, *query.statement, catalog_,
                                     use_integrity_constraints_)
                     ? Decision::kDoNotInvalidate
                     : Decision::kInvalidate;
      }
    }
    return Decision::kInvalidate;
  }
  if (templates::IsIgnorable(*update.tmpl, *query.tmpl)) {
    return Decision::kDoNotInvalidate;
  }
  if (use_integrity_constraints_ &&
      analysis::InsertionIrrelevantByConstraints(*update.tmpl, *query.tmpl,
                                                 catalog_)) {
    return Decision::kDoNotInvalidate;
  }
  if (use_independence_solver_ && update.statement != nullptr &&
      query.statement != nullptr &&
      ProvablyIndependent(*update.tmpl, *update.statement, *query.tmpl,
                          *query.statement, catalog_,
                          use_integrity_constraints_)) {
    return Decision::kDoNotInvalidate;
  }
  return Decision::kInvalidate;
}

void ViewInspectionStrategy::BuildGroup(
    const templates::QueryTemplate& query_template,
    const sql::SelectStatement& select, const std::string& table,
    const catalog::TableSchema& schema,
    const std::vector<sql::Comparison>& predicate,
    ViewInspectionMemo::Group* group) {
  const std::vector<templates::QueryTemplate::OutputColumn>& outputs =
      query_template.output_columns();
  group->slots.clear();
  const analysis::QuerySlots slots(select);
  for (size_t s = 0; s < slots.physical.size(); ++s) {
    if (slots.physical[s] != table) continue;
    // Map each predicate-referenced column to the result column that
    // preserves it from slot s.
    ViewInspectionMemo::Slot& slot = group->slots.emplace_back();
    for (const sql::Comparison& cmp : predicate) {
      for (const sql::Operand* op : {&cmp.lhs, &cmp.rhs}) {
        if (!sql::IsColumn(*op)) continue;
        const std::string& col = std::get<sql::ColumnRef>(*op).column;
        const std::optional<size_t> index = schema.ColumnIndex(col);
        if (!index.has_value()) {
          slot.preserved = false;  // Not a column of the updated table.
          continue;
        }
        const size_t column = *index;
        bool mapped = false;
        for (const auto& [schema_column, k] : slot.columns) {
          mapped = mapped || schema_column == column;
        }
        if (mapped) continue;
        bool found = false;
        for (size_t k = 0; k < outputs.size(); ++k) {
          if (outputs[k].slot == s && outputs[k].attribute.has_value() &&
              outputs[k].attribute->column == col) {
            slot.columns.emplace_back(column, k);
            found = true;
            break;
          }
        }
        slot.preserved = slot.preserved && found;
      }
    }
  }
  group->ready = true;
}

Decision ViewInspectionStrategy::Decide(const UpdateView& update,
                                        const CachedQueryView& query) const {
  // Start from the statement-level decision; the view can only refine it.
  if (sis_.Decide(update, query) == Decision::kDoNotInvalidate) {
    return Decision::kDoNotInvalidate;
  }
  if (update.tmpl == nullptr || update.statement == nullptr ||
      query.tmpl == nullptr || query.statement == nullptr ||
      query.result == nullptr) {
    return Decision::kInvalidate;
  }

  const templates::UpdateTemplate& u = *update.tmpl;
  const catalog::TableSchema* schema = catalog_.FindTable(u.table());
  if (schema == nullptr) return Decision::kInvalidate;

  const std::vector<sql::Comparison>* predicate = nullptr;
  switch (u.update_class()) {
    case templates::UpdateClass::kInsertion:
      // Documented deviation: insertions keep the MSIS decision. For
      // queries in E ∩ N this is exactly minimal (Section 4.4 proves
      // C = B); outside E/N it is merely conservative.
      return Decision::kInvalidate;
    case templates::UpdateClass::kDeletion:
      predicate = &update.statement->del().where;
      break;
    case templates::UpdateClass::kModification:
      predicate = &update.statement->update().where;
      // The modified rows might newly enter the result; the view cannot
      // rule that out, only the statement test can.
      if (!ModificationCannotEnter(u, *update.statement, *query.statement,
                                   catalog_)) {
        return Decision::kInvalidate;
      }
      break;
  }

  // Without a caller's memo, derive everything for this call alone.
  ViewInspectionMemo local;
  ViewInspectionMemo& memo = update.memo != nullptr ? *update.memo : local;
  ViewInspectionMemo::Group* group = nullptr;
  if (query.template_index != kNoTemplateIndex && &memo != &local) {
    if (memo.groups_.size() <= query.template_index) {
      memo.groups_.resize(query.template_index + 1);
    }
    group = &memo.groups_[query.template_index];
  } else {
    local.groups_.resize(1);
    group = &local.groups_[0];
  }
  if (!group->ready) {
    BuildGroup(*query.tmpl, query.statement->select(), u.table(), *schema,
               *predicate, group);
  }

  // The update touches only rows matching `predicate`. If, for every FROM
  // slot over the updated table, no cached result row derives from such a
  // row, the cached result cannot change. A slot that does not preserve
  // every predicate attribute cannot be tested: fall back to the
  // statement-level decision.
  if (group->slots.empty()) return Decision::kDoNotInvalidate;
  const engine::QueryResult& result = *query.result;
  if (query.tmpl->output_columns().size() != result.num_columns()) {
    return Decision::kInvalidate;
  }
  for (const ViewInspectionMemo::Slot& slot : group->slots) {
    if (!slot.preserved) return Decision::kInvalidate;
  }
  if (!memo.bound_.has_value()) {
    // Bound once per update; Matches() surfaces errors per row at exactly
    // the points EvalPredicateOnRow would (errors conservatively count as a
    // match below).
    memo.bound_ = engine::BoundPredicate::Bind(*schema, *predicate);
    memo.row_.assign(schema->num_columns(), sql::Value());
  }
  for (const ViewInspectionMemo::Slot& slot : group->slots) {
    for (const engine::Row& result_row : result.rows()) {
      // Rebuild the contributing base row. Only predicate-referenced
      // columns matter, and every slot writes exactly those, so the
      // buffer's other columns are never read.
      for (const auto& [column, k] : slot.columns) {
        memo.row_[column] = result_row[k];
      }
      const StatusOr<bool> matches = memo.bound_->Matches(memo.row_);
      if (!matches.ok() || *matches) return Decision::kInvalidate;
    }
  }
  return Decision::kDoNotInvalidate;
}

Decision MixedStrategy::Decide(const UpdateView& update,
                               const CachedQueryView& query) const {
  switch (analysis::SymbolFor(update.level, query.level)) {
    case analysis::IpmSymbol::kOne:
      return blind_.Decide(update, query);
    case analysis::IpmSymbol::kA:
      return tis_.Decide(update, query);
    case analysis::IpmSymbol::kB:
      return sis_.Decide(update, query);
    case analysis::IpmSymbol::kC:
      return vis_.Decide(update, query);
  }
  DSSP_UNREACHABLE("bad IpmSymbol");
}

}  // namespace dssp::invalidation
