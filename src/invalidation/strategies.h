#ifndef DSSP_INVALIDATION_STRATEGIES_H_
#define DSSP_INVALIDATION_STRATEGIES_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "engine/eval.h"
#include "invalidation/strategy.h"

namespace dssp::invalidation {

// All strategies below optionally take a compiled analysis::InvalidationPlan.
// When one is supplied AND both views carry their TemplateSet indices, the
// strategy answers from the plan — an O(1) pair lookup plus (for MSIS) a
// compiled parameter program — instead of re-deriving the Section 4 analysis
// per call; the general solver runs only for kSolverFallback pairs. The plan
// must have been compiled from the same TemplateSet/Catalog the views refer
// to, with Options matching the strategy's use_integrity_constraints flag.
// Decisions are bit-identical either way (tests/plan_differential_test.cc).

// Minimal blind strategy (MBS): with nothing exposed, correctness forces
// invalidating every cached result on every update.
class BlindStrategy : public InvalidationStrategy {
 public:
  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MBS"; }
};

// Minimal template-inspection strategy (MTIS): uses only the templates.
// DNI exactly when the static analysis proves A = 0 — the pair is ignorable
// (Lemma 1) or ruled out by PK/FK integrity constraints (Section 4.5).
class TemplateInspectionStrategy : public InvalidationStrategy {
 public:
  explicit TemplateInspectionStrategy(
      const catalog::Catalog& catalog, bool use_integrity_constraints = true,
      const analysis::InvalidationPlan* plan = nullptr)
      : catalog_(catalog),
        use_integrity_constraints_(use_integrity_constraints),
        plan_(plan) {}

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MTIS"; }

 private:
  const catalog::Catalog& catalog_;
  bool use_integrity_constraints_;
  const analysis::InvalidationPlan* plan_;
};

// Minimal statement-inspection strategy (MSIS): additionally sees bound
// parameters and runs the statement-level independence test (Levy-Sagiv
// style satisfiability over the shared attributes).
class StatementInspectionStrategy : public InvalidationStrategy {
 public:
  explicit StatementInspectionStrategy(
      const catalog::Catalog& catalog, bool use_independence_solver = true,
      bool use_integrity_constraints = true,
      const analysis::InvalidationPlan* plan = nullptr)
      : catalog_(catalog),
        use_independence_solver_(use_independence_solver),
        use_integrity_constraints_(use_integrity_constraints),
        plan_(plan) {}

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MSIS"; }

 private:
  const catalog::Catalog& catalog_;
  bool use_independence_solver_;
  bool use_integrity_constraints_;
  const analysis::InvalidationPlan* plan_;
};

// Scratch for ViewInspectionStrategy across the entries one update visits:
// the update's bound predicate, and per query template the result columns
// that rebuild each updated-table slot's base row, plus one reused row
// buffer. Serves one update of one application on one thread; Reset()
// before the next update.
class ViewInspectionMemo {
 public:
  void Reset() {
    bound_.reset();
    for (Group& group : groups_) group.ready = false;
  }

 private:
  friend class ViewInspectionStrategy;

  // One FROM slot over the updated table.
  struct Slot {
    // False when some predicate column is not an output of the slot.
    bool preserved = true;
    // (schema column, result column) per predicate-referenced column.
    std::vector<std::pair<size_t, size_t>> columns;
  };
  struct Group {
    bool ready = false;
    std::vector<Slot> slots;
  };

  std::optional<engine::BoundPredicate> bound_;
  std::vector<Group> groups_;  // By query template index.
  engine::Row row_;
};

// View-inspection strategy (VIS): additionally inspects the cached result.
// For deletions and modifications it checks whether any result row derives
// from a row the update touches; for insertions it coincides with MSIS (a
// deliberate, documented deviation from strict minimality for queries
// outside E/N, which is rare and affects only precision, never correctness).
class ViewInspectionStrategy : public InvalidationStrategy {
 public:
  explicit ViewInspectionStrategy(
      const catalog::Catalog& catalog, bool use_integrity_constraints = true,
      const analysis::InvalidationPlan* plan = nullptr)
      : catalog_(catalog),
        sis_(catalog, /*use_independence_solver=*/true,
             use_integrity_constraints, plan) {}

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MVIS"; }

 private:
  // Fills `group` for a query template reading `select`, against an update
  // of `table` whose WHERE is `predicate`.
  static void BuildGroup(const templates::QueryTemplate& query_template,
                         const sql::SelectStatement& select,
                         const std::string& table,
                         const catalog::TableSchema& schema,
                         const std::vector<sql::Comparison>& predicate,
                         ViewInspectionMemo::Group* group);

  const catalog::Catalog& catalog_;
  StatementInspectionStrategy sis_;
};

// Mixed strategy (Section 2.3): dispatches each (update, query) pair to the
// strategy class its exposure levels select (Figure 6's shaded cells).
class MixedStrategy : public InvalidationStrategy {
 public:
  explicit MixedStrategy(const catalog::Catalog& catalog,
                         const analysis::InvalidationPlan* plan = nullptr)
      : blind_(),
        tis_(catalog, /*use_integrity_constraints=*/true, plan),
        sis_(catalog, /*use_independence_solver=*/true,
             /*use_integrity_constraints=*/true, plan),
        vis_(catalog, /*use_integrity_constraints=*/true, plan) {}

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "mixed"; }

 private:
  BlindStrategy blind_;
  TemplateInspectionStrategy tis_;
  StatementInspectionStrategy sis_;
  ViewInspectionStrategy vis_;
};

}  // namespace dssp::invalidation

#endif  // DSSP_INVALIDATION_STRATEGIES_H_
