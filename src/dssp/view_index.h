#ifndef DSSP_DSSP_VIEW_INDEX_H_
#define DSSP_DSSP_VIEW_INDEX_H_

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "sql/ast.h"
#include "templates/template_set.h"

namespace dssp::service {

// ---------------------------------------------------------------------------
// Predicate-indexed view registry (compiled side).
//
// PR 3 made each (update, query) pair decision O(1), but OnUpdate still
// visits every cached entry of every non-DNI template group, so the
// per-update invalidation cost is linear in the number of cached views.
// This plan makes it sublinear: for each query template it picks one WHERE
// conjunct `column op ?` — the *discriminator* — and QueryCache keys every
// statement-exposed entry of that template under the literal bound at that
// conjunct, in an ordered per-group map (one structure serves both equality
// point probes and range probes). At update time, BuildGroupProbe turns the
// pair's compiled ParamProgram into a constraint on the discriminator bound;
// the cache then visits only entries whose bound can satisfy it, plus the
// group's unindexed rest.
//
// Soundness contract: an indexed entry may be skipped ONLY when
// EvaluatePairPlan would return kIndependent for it. The derivation below
// guarantees this:
//  - a kProbe pair's program mentions the discriminator coordinate in every
//    check, alongside an update-side operand on the same column;
//  - a check can fire (contribute kInvalidate) only if the discriminator's
//    interval intersects the update operand's interval (sat checks), or the
//    inserted/assigned point lies inside the discriminator's interval
//    (insert / entry set tests);
//  - probe ranges are conservative (inclusive on ties, whole type class
//    where the pair of ops cannot constrain the bound), so every entry a
//    check could fire for is visited and re-decided by the ordinary
//    strategy — the index prunes candidates, it never decides.
// Any shape this derivation cannot cover degrades to scanning the whole
// group (kScanAll), and entries whose statements do not expose the needed
// literals land in the group's rest set, which every probe visits. The
// fallback ladder therefore is: blind/template entry -> rest set; template
// without a `column op ?` conjunct -> rest set; pair whose program is not
// probeable -> group scan; malformed bound update -> group scan.
//
// Exposure: the index stores only what the entry's exposure level already
// reveals (the bound literal of a statement-exposed entry); blind and
// template-level entries contribute nothing to it.
// ---------------------------------------------------------------------------

// Orders sql::Values for index keys: total order by type class
// (null < numeric < string), Value::Compare within a class. Within the
// numeric and string classes this coincides exactly with the comparisons
// the satisfiability interval solver performs.
struct ValueLess {
  static int ClassOf(const sql::Value& v) {
    if (v.is_null()) return 0;
    return v.is_numeric() ? 1 : 2;
  }
  bool operator()(const sql::Value& a, const sql::Value& b) const {
    const int ca = ClassOf(a);
    const int cb = ClassOf(b);
    if (ca != cb) return ca < cb;
    if (ca == 0) return false;  // Nulls compare equal.
    return a.Compare(b) < 0;
  }
};

// The per-group ordered index: discriminator bound -> entry keys.
using ValueKeyMap = std::map<sql::Value, std::set<std::string>, ValueLess>;

// The discriminator chosen for one query template (Section "bucket/interval
// layout" in DESIGN.md): the first WHERE conjunct of the form `column op ?`
// (equality preferred over range ops) whose column resolves unambiguously.
struct TemplateIndexSpec {
  bool indexable = false;
  size_t where_index = 0;  // Conjunct position in the SELECT's WHERE.
  bool rhs = true;         // Side of the conjunct holding the parameter.
  sql::CompareOp op = sql::CompareOp::kEq;  // Column on the left.
  std::string table;   // Physical table of the discriminator column.
  std::string column;  // Resolved column name.
  // Every query-side WHERE coordinate (index, rhs) some kProbe pair's
  // program fetches. An entry is indexable only if all of them hold
  // literals: EvaluatePairPlan invalidates on any failed query-side fetch,
  // and such an entry must never be skipped.
  std::vector<std::pair<size_t, bool>> required_literals;
};

// One probe constraint on the discriminator bound `b` of candidate entries:
// visit the entry iff interval(spec.op, b) can intersect interval(op, value
// fetched from the bound update).
struct ProbeRef {
  sql::CompareOp op = sql::CompareOp::kEq;
  analysis::ValueRef value;  // Const or update-side coordinate.
};

// How OnUpdate may visit one (update template, query template) group.
struct PairProbe {
  enum class Kind {
    // The program has no checks (independent for every binding): indexed
    // entries are provably DNI; only the rest set needs visiting.
    kSkipIndexed,
    // Every check constrains the discriminator: probe the value index.
    kProbe,
    // Not probeable (kAlwaysInvalidate / kViewTest / kSolverFallback, or a
    // program with a non-discriminating check): scan the whole group.
    kScan,
  };

  Kind kind = Kind::kScan;
  std::vector<ProbeRef> probes;  // One per check; kProbe only.
  // Every update-side coordinate the pair's program fetches. If any fails
  // to fetch from the bound update, EvaluatePairPlan invalidates every
  // entry, so the probe must degrade to a scan.
  std::vector<analysis::ValueRef> update_refs;
};

// A fully resolved probe for one group, built once per (update, group).
struct GroupProbe {
  enum class Mode {
    kScanAll,      // Visit every entry (legacy behavior).
    kScanRest,     // Visit only unindexed entries; indexed are provably DNI.
    kProbe,        // Visit rest + candidates selected by `probes`.
  };

  Mode mode = Mode::kScanAll;
  sql::CompareOp spec_op = sql::CompareOp::kEq;  // Discriminator operator.
  std::vector<std::pair<sql::CompareOp, sql::Value>> probes;

  // Appends pointers to the candidate entry keys the probes select from a
  // group's value index to `out`, unordered and possibly repeated (probes
  // may overlap). Only meaningful for kProbe. The pointers alias the keys
  // in `by_value` and die with them.
  void CollectCandidates(const ValueKeyMap& by_value,
                         std::vector<const std::string*>* out) const;
};

// The compiled predicate-index plan of one application: one
// TemplateIndexSpec per query template plus one PairProbe per
// (update, query) pair, derived from (and soundly subordinate to) the
// compiled InvalidationPlan. Compiled once at app registration; immutable
// afterwards, so concurrent readers need no locking.
class ViewIndexPlan {
 public:
  static ViewIndexPlan Compile(const templates::TemplateSet& templates,
                               const catalog::Catalog& catalog,
                               const analysis::InvalidationPlan& plan);

  // The spec for a query template; nullptr for out-of-range group ids
  // (including CacheEntry::kNoTemplate).
  const TemplateIndexSpec* query_spec(size_t query_index) const {
    return query_index < specs_.size() ? &specs_[query_index] : nullptr;
  }

  const PairProbe& pair_probe(size_t update_index, size_t query_index) const {
    DSSP_CHECK(update_index < num_updates_ && query_index < num_queries_);
    return pairs_[update_index * num_queries_ + query_index];
  }

  // The discriminator bound under which an entry of `query_index` caching
  // `statement` should be indexed, or nullopt when the entry must go to the
  // group's rest set (template not indexable, required literal missing, or
  // a NULL discriminator — NULL satisfies no constraint, so probes would
  // never select it).
  std::optional<sql::Value> IndexKeyFor(size_t query_index,
                                        const sql::Statement& statement) const;

  // Resolves the pair's probe against a bound update statement. Degrades to
  // kScanAll when any update-side coordinate fails to fetch.
  GroupProbe BuildGroupProbe(size_t update_index, size_t query_index,
                             const sql::Statement& update) const;

  size_t num_updates() const { return num_updates_; }
  size_t num_queries() const { return num_queries_; }

  struct Summary {
    size_t indexable_queries = 0;
    size_t probe_pairs = 0;
    size_t skip_pairs = 0;
    size_t scan_pairs = 0;
  };
  Summary Summarize() const;

 private:
  size_t num_updates_ = 0;
  size_t num_queries_ = 0;
  std::vector<TemplateIndexSpec> specs_;   // One per query template.
  std::vector<PairProbe> pairs_;           // Row-major like InvalidationPlan.
};

}  // namespace dssp::service

#endif  // DSSP_DSSP_VIEW_INDEX_H_
