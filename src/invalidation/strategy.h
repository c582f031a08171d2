#ifndef DSSP_INVALIDATION_STRATEGY_H_
#define DSSP_INVALIDATION_STRATEGY_H_

#include <optional>
#include <string_view>

#include "analysis/exposure.h"
#include "engine/query_result.h"
#include "sql/ast.h"
#include "templates/template.h"

namespace dssp::invalidation {

enum class Decision {
  kInvalidate,       // I
  kDoNotInvalidate,  // DNI
};

// Sentinel for "template index unknown" in the views below; equals
// CacheEntry::kNoTemplate. Strategies that hold a compiled InvalidationPlan
// need the TemplateSet index of both templates to look up the pair's plan;
// views built from ad-hoc templates (tests) leave the index unset and take
// the legacy re-derivation path.
inline constexpr size_t kNoTemplateIndex = static_cast<size_t>(-1);

class ViewInspectionMemo;  // strategies.h

// What the DSSP can see about a completed update, as limited by the update
// template's exposure level:
//   blind    -> nothing (tmpl/statement unset)
//   template -> tmpl set
//   stmt     -> tmpl + bound statement set
struct UpdateView {
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;
  const templates::UpdateTemplate* tmpl = nullptr;
  const sql::Statement* statement = nullptr;  // Fully bound.
  size_t template_index = kNoTemplateIndex;   // Index of tmpl, if known.
  // Optional per-update scratch in which the view-inspection strategy keeps
  // what it derives once per (update, query template); null derives it per
  // call. Not part of what the update exposes.
  ViewInspectionMemo* memo = nullptr;
};

// What the DSSP can see about a cached query result, as limited by the
// query template's exposure level:
//   blind    -> nothing
//   template -> tmpl set
//   stmt     -> tmpl + bound statement set
//   view     -> tmpl + statement + plaintext result set
struct CachedQueryView {
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;
  const templates::QueryTemplate* tmpl = nullptr;
  const sql::Statement* statement = nullptr;  // Fully bound.
  const engine::QueryResult* result = nullptr;
  size_t template_index = kNoTemplateIndex;  // Index of tmpl, if known.
};

// A view invalidation strategy (Section 2.2): invoked for every cached
// entry whenever an update completes. Correctness requirement: whenever the
// entry's underlying result would change, the strategy must return
// kInvalidate. Implementations must only consult the fields their class is
// allowed to see.
class InvalidationStrategy {
 public:
  virtual ~InvalidationStrategy() = default;

  virtual Decision Decide(const UpdateView& update,
                          const CachedQueryView& query) const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace dssp::invalidation

#endif  // DSSP_INVALIDATION_STRATEGY_H_
