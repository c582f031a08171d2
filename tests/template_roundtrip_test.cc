// Cross-module property: every benchmark application template survives a
// print -> parse -> re-analyze round trip with identical derived analysis
// artifacts (attribute sets, classes, assumption flags, IPM relations).
// This pins down the parser/printer pair and guarantees the static analysis
// is a function of the SQL text, not of incidental AST shape. It also holds
// each template's precomputed SQL pattern to the printer: rendering bound
// parameters into the pattern must equal printing the bound AST.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "analysis/ipm.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "sql/parser.h"
#include "workloads/application.h"

namespace dssp::templates {
namespace {

class RoundTripTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    app_ = std::make_unique<service::ScalableApp>(
        GetParam(), &node_, crypto::KeyRing::FromPassphrase("rt"));
    workload_ = workloads::MakeApplication(GetParam());
    ASSERT_TRUE(workload_->Setup(*app_, 0.1, 2).ok());
  }

  service::DsspNode node_;
  std::unique_ptr<service::ScalableApp> app_;
  std::unique_ptr<workloads::Application> workload_;
};

TEST_P(RoundTripTest, QueryTemplatesRoundTrip) {
  const catalog::Catalog& catalog = app_->home().database().catalog();
  for (const QueryTemplate& q : app_->templates().queries()) {
    auto reparsed = QueryTemplate::Create(q.id(), q.ToSql(), catalog);
    ASSERT_TRUE(reparsed.ok()) << q.ToSql();
    EXPECT_EQ(reparsed->ToSql(), q.ToSql());
    EXPECT_EQ(reparsed->num_params(), q.num_params());
    EXPECT_EQ(reparsed->selection_attributes(), q.selection_attributes())
        << q.id();
    EXPECT_EQ(reparsed->preserved_attributes(), q.preserved_attributes())
        << q.id();
    EXPECT_EQ(reparsed->only_equality_joins(), q.only_equality_joins());
    EXPECT_EQ(reparsed->no_top_k(), q.no_top_k());
    EXPECT_EQ(reparsed->has_aggregation(), q.has_aggregation());
    EXPECT_EQ(reparsed->assumptions().ok(), q.assumptions().ok());
    EXPECT_EQ(reparsed->output_columns().size(), q.output_columns().size());
  }
}

TEST_P(RoundTripTest, UpdateTemplatesRoundTrip) {
  const catalog::Catalog& catalog = app_->home().database().catalog();
  for (const UpdateTemplate& u : app_->templates().updates()) {
    auto reparsed = UpdateTemplate::Create(u.id(), u.ToSql(), catalog);
    ASSERT_TRUE(reparsed.ok()) << u.ToSql();
    EXPECT_EQ(reparsed->ToSql(), u.ToSql());
    EXPECT_EQ(reparsed->update_class(), u.update_class());
    EXPECT_EQ(reparsed->table(), u.table());
    EXPECT_EQ(reparsed->selection_attributes(), u.selection_attributes());
    EXPECT_EQ(reparsed->modified_attributes(), u.modified_attributes());
    EXPECT_EQ(reparsed->assumptions().ok(), u.assumptions().ok());
  }
}

TEST_P(RoundTripTest, IpmIsAFunctionOfTheSqlText) {
  const catalog::Catalog& catalog = app_->home().database().catalog();
  // Rebuild the whole template set from printed SQL and compare every pair
  // characterization.
  TemplateSet rebuilt;
  for (const QueryTemplate& q : app_->templates().queries()) {
    auto t = QueryTemplate::Create(q.id(), q.ToSql(), catalog);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(rebuilt.AddQuery(std::move(*t)).ok());
  }
  for (const UpdateTemplate& u : app_->templates().updates()) {
    auto t = UpdateTemplate::Create(u.id(), u.ToSql(), catalog);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(rebuilt.AddUpdate(std::move(*t)).ok());
  }
  const auto original =
      analysis::IpmCharacterization::Compute(app_->templates(), catalog);
  const auto again = analysis::IpmCharacterization::Compute(rebuilt, catalog);
  ASSERT_EQ(original.num_updates(), again.num_updates());
  ASSERT_EQ(original.num_queries(), again.num_queries());
  for (size_t i = 0; i < original.num_updates(); ++i) {
    for (size_t j = 0; j < original.num_queries(); ++j) {
      EXPECT_EQ(original.pair(i, j).a_is_zero, again.pair(i, j).a_is_zero);
      EXPECT_EQ(original.pair(i, j).b_equals_a, again.pair(i, j).b_equals_a);
      EXPECT_EQ(original.pair(i, j).c_equals_b, again.pair(i, j).c_equals_b);
    }
  }
}

// Parameter values chosen to stress literal rendering: NULL, negative and
// extreme integers, doubles that print without a '.' (so need ".0"),
// exponents, inf/nan, and strings holding quotes and '?'.
sql::Value RandomParam(Rng& rng) {
  switch (rng.NextBelow(12)) {
    case 0:
      return sql::Value::Null();
    case 1:
      return sql::Value(-static_cast<int64_t>(rng.NextBelow(1000000)));
    case 2:
      return sql::Value(rng.NextBool(0.5)
                            ? std::numeric_limits<int64_t>::min()
                            : std::numeric_limits<int64_t>::max());
    case 3:
      return sql::Value(static_cast<double>(rng.NextBelow(2000)) - 1000.0);
    case 4:
      return sql::Value(rng.NextDouble() * 1e300);
    case 5:
      return sql::Value(rng.NextBool(0.5)
                            ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity());
    case 6:
      return sql::Value(std::numeric_limits<double>::quiet_NaN());
    case 7:
      return sql::Value(std::string("it's"));
    case 8:
      return sql::Value(std::string("? AND 1 = ?"));
    case 9:
      return sql::Value(std::string("''?'"));
    case 10:
      return sql::Value(std::string());
    default:
      return sql::Value(static_cast<int64_t>(rng.NextBelow(1000)));
  }
}

std::vector<sql::Value> RandomParams(Rng& rng, int count) {
  std::vector<sql::Value> params;
  for (int i = 0; i < count; ++i) params.push_back(RandomParam(rng));
  return params;
}

// The precomputed SQL pattern renders exactly ToSql(Bind(params)): cache
// keys, their shard and ring placement all depend on these bytes.
TEST_P(RoundTripTest, SqlPatternMatchesToSqlOfBind) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    for (const QueryTemplate& q : app_->templates().queries()) {
      const std::vector<sql::Value> params = RandomParams(rng, q.num_params());
      ASSERT_EQ(q.sql_pattern().Bound(params), sql::ToSql(q.Bind(params)))
          << q.id();
    }
    for (const UpdateTemplate& u : app_->templates().updates()) {
      const std::vector<sql::Value> params = RandomParams(rng, u.num_params());
      ASSERT_EQ(u.sql_pattern().Bound(params), sql::ToSql(u.Bind(params)))
          << u.id();
    }
  }
}

// Statements no workload has: a '?' inside a string literal (text, not a
// parameter), LIMIT bound to a parameter, and every operand position.
TEST(SqlPatternTest, SyntheticStatementsMatchToSqlOfBind) {
  const char* const kStatements[] = {
      "SELECT a FROM t WHERE b = 'what?' AND c = ? LIMIT ?",
      "SELECT x.a, COUNT(*) FROM t AS x, u WHERE x.a = u.b AND ? < x.c "
      "GROUP BY x.a ORDER BY x.a DESC LIMIT 10",
      "SELECT * FROM t WHERE a = '?' AND b >= ? AND c <= 'it''s ?'",
      "INSERT INTO t (a, b, c) VALUES (?, '?', ?)",
      "UPDATE t SET a = ?, b = 'x?y' WHERE c = ? AND d > 2.5",
      "DELETE FROM t WHERE a = ? AND b < '?x?'",
      "SELECT a FROM t WHERE b = 1",
  };
  Rng rng(29);
  for (const char* text : kStatements) {
    const StatusOr<sql::Statement> stmt = sql::Parse(text);
    ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
    const sql::SqlPattern pattern(*stmt);
    for (int trial = 0; trial < 100; ++trial) {
      const std::vector<sql::Value> params =
          RandomParams(rng, stmt->num_params);
      ASSERT_EQ(pattern.Bound(params),
                sql::ToSql(sql::BindParameters(*stmt, params)))
          << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, RoundTripTest,
                         ::testing::Values("toystore", "auction", "bboard",
                                           "bookstore"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dssp::templates
