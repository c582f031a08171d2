#include "sql/ast.h"

#include <functional>

#include "common/macros.h"

namespace dssp::sql {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  DSSP_UNREACHABLE("bad CompareOp");
}

CompareOp ReverseCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  DSSP_UNREACHABLE("bad CompareOp");
}

bool IsLiteral(const Operand& op) {
  return std::holds_alternative<Value>(op);
}
bool IsColumn(const Operand& op) {
  return std::holds_alternative<ColumnRef>(op);
}
bool IsParameter(const Operand& op) {
  return std::holds_alternative<Parameter>(op);
}

std::string OperandToString(const Operand& op) {
  if (IsLiteral(op)) return std::get<Value>(op).ToSqlLiteral();
  if (IsColumn(op)) return std::get<ColumnRef>(op).ToString();
  return "?";
}

const char* AggregateFuncName(AggregateFunc func) {
  switch (func) {
    case AggregateFunc::kNone:
      return "";
    case AggregateFunc::kMin:
      return "MIN";
    case AggregateFunc::kMax:
      return "MAX";
    case AggregateFunc::kCount:
      return "COUNT";
    case AggregateFunc::kSum:
      return "SUM";
    case AggregateFunc::kAvg:
      return "AVG";
  }
  DSSP_UNREACHABLE("bad AggregateFunc");
}

bool SelectStatement::has_aggregate() const {
  for (const SelectItem& item : items) {
    if (item.func != AggregateFunc::kNone) return true;
  }
  return false;
}

const char* StatementKindName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect:
      return "select";
    case StatementKind::kInsert:
      return "insert";
    case StatementKind::kDelete:
      return "delete";
    case StatementKind::kUpdate:
      return "update";
  }
  DSSP_UNREACHABLE("bad StatementKind");
}

namespace {

// Appends the text of one parameter operand to `*out`.
using ParamAppender =
    std::function<void(const Parameter& param, std::string* out)>;

// The one SQL renderer: appends canonical text to one output buffer,
// handing each parameter operand, in text order, to a hook (ToSql's appends
// `?`; SqlPattern's records where the parameter's text starts).
class SqlWriter {
 public:
  SqlWriter(const ParamAppender& param, std::string* out)
      : param_(param), out_(*out) {}

  void Write(const Statement& stmt) {
    std::visit([this](const auto& node) { Write(node); }, stmt.node);
  }

  void Write(const SelectStatement& stmt) {
    out_ += "SELECT ";
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (i != 0) out_ += ", ";
      const SelectItem& item = stmt.items[i];
      if (item.func != AggregateFunc::kNone) {
        out_ += AggregateFuncName(item.func);
        out_ += "(";
        if (item.star) {
          out_ += "*";
        } else {
          Column(item.column);
        }
        out_ += ")";
      } else if (item.star) {
        out_ += "*";
      } else {
        Column(item.column);
      }
    }
    out_ += " FROM ";
    for (size_t i = 0; i < stmt.from.size(); ++i) {
      if (i != 0) out_ += ", ";
      out_ += stmt.from[i].table;
      if (!stmt.from[i].alias.empty()) {
        out_ += " AS ";
        out_ += stmt.from[i].alias;
      }
    }
    Where(stmt.where);
    if (!stmt.group_by.empty()) {
      out_ += " GROUP BY ";
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        if (i != 0) out_ += ", ";
        Column(stmt.group_by[i]);
      }
    }
    if (!stmt.order_by.empty()) {
      out_ += " ORDER BY ";
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        if (i != 0) out_ += ", ";
        Column(stmt.order_by[i].column);
        if (stmt.order_by[i].descending) out_ += " DESC";
      }
    }
    if (stmt.limit.has_value()) {
      out_ += " LIMIT ";
      Write(*stmt.limit);
    }
  }

  void Write(const InsertStatement& stmt) {
    out_ += "INSERT INTO ";
    out_ += stmt.table;
    out_ += " (";
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (i != 0) out_ += ", ";
      out_ += stmt.columns[i];
    }
    out_ += ") VALUES (";
    for (size_t i = 0; i < stmt.values.size(); ++i) {
      if (i != 0) out_ += ", ";
      Write(stmt.values[i]);
    }
    out_ += ")";
  }

  void Write(const DeleteStatement& stmt) {
    out_ += "DELETE FROM ";
    out_ += stmt.table;
    Where(stmt.where);
  }

  void Write(const UpdateStatement& stmt) {
    out_ += "UPDATE ";
    out_ += stmt.table;
    out_ += " SET ";
    for (size_t i = 0; i < stmt.set.size(); ++i) {
      if (i != 0) out_ += ", ";
      out_ += stmt.set[i].first;
      out_ += " = ";
      Write(stmt.set[i].second);
    }
    Where(stmt.where);
  }

 private:
  // Same text as OperandToString, parameters through the hook.
  void Write(const Operand& op) {
    if (IsLiteral(op)) {
      std::get<Value>(op).AppendSqlLiteral(&out_);
    } else if (IsColumn(op)) {
      Column(std::get<ColumnRef>(op));
    } else {
      param_(std::get<Parameter>(op), &out_);
    }
  }

  // Same text as ColumnRef::ToString.
  void Column(const ColumnRef& column) {
    if (!column.table.empty()) {
      out_ += column.table;
      out_ += ".";
    }
    out_ += column.column;
  }

  void Where(const std::vector<Comparison>& where) {
    if (where.empty()) return;
    out_ += " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i != 0) out_ += " AND ";
      Write(where[i].lhs);
      out_ += " ";
      out_ += CompareOpSymbol(where[i].op);
      out_ += " ";
      Write(where[i].rhs);
    }
  }

  const ParamAppender& param_;
  std::string& out_;
};

template <typename Node>
std::string RenderWithPlaceholders(const Node& node) {
  static const ParamAppender kPlaceholder = [](const Parameter&,
                                               std::string* out) {
    *out += "?";
  };
  std::string out;
  SqlWriter(kPlaceholder, &out).Write(node);
  return out;
}

}  // namespace

std::string ToSql(const SelectStatement& stmt) {
  return RenderWithPlaceholders(stmt);
}

std::string ToSql(const Statement& stmt) {
  return RenderWithPlaceholders(stmt);
}

SqlPattern::SqlPattern(const Statement& stmt) {
  // Render once, recording where each parameter's text would start; the
  // text between those offsets is the literal fragments.
  std::string text;
  std::vector<size_t> offsets;
  const ParamAppender record = [&](const Parameter& param, std::string* out) {
    offsets.push_back(out->size());
    slots_.push_back(param.index);
  };
  SqlWriter(record, &text).Write(stmt);
  size_t begin = 0;
  for (size_t offset : offsets) {
    fragments_.push_back(text.substr(begin, offset - begin));
    begin = offset;
  }
  fragments_.push_back(text.substr(begin));
  fragments_size_ = text.size();
}

void SqlPattern::AppendBound(const std::vector<Value>& params,
                             std::string* out) const {
  if (fragments_.empty()) return;  // Default-constructed: no statement.
  out->reserve(out->size() + fragments_size_ + 16 * slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    *out += fragments_[i];
    const int index = slots_[i];
    DSSP_CHECK(index >= 0 && static_cast<size_t>(index) < params.size());
    params[index].AppendSqlLiteral(out);
  }
  *out += fragments_.back();
}

std::string SqlPattern::Bound(const std::vector<Value>& params) const {
  std::string out;
  AppendBound(params, &out);
  return out;
}

namespace {

void BindOperand(Operand& op, const std::vector<Value>& params) {
  if (IsParameter(op)) {
    const int index = std::get<Parameter>(op).index;
    DSSP_CHECK(index >= 0 &&
               static_cast<size_t>(index) < params.size());
    op = params[index];
  }
}

void BindWhere(std::vector<Comparison>& where,
               const std::vector<Value>& params) {
  for (Comparison& cmp : where) {
    BindOperand(cmp.lhs, params);
    BindOperand(cmp.rhs, params);
  }
}

}  // namespace

Statement BindParameters(const Statement& stmt,
                         const std::vector<Value>& params) {
  DSSP_CHECK(static_cast<size_t>(stmt.num_params) <= params.size());
  Statement bound = stmt;
  bound.num_params = 0;
  switch (bound.kind()) {
    case StatementKind::kSelect: {
      SelectStatement& s = bound.select();
      BindWhere(s.where, params);
      if (s.limit.has_value()) BindOperand(*s.limit, params);
      break;
    }
    case StatementKind::kInsert: {
      for (Operand& v : bound.insert().values) BindOperand(v, params);
      break;
    }
    case StatementKind::kDelete: {
      BindWhere(bound.del().where, params);
      break;
    }
    case StatementKind::kUpdate: {
      UpdateStatement& u = bound.update();
      for (auto& [col, op] : u.set) BindOperand(op, params);
      BindWhere(u.where, params);
      break;
    }
  }
  return bound;
}

}  // namespace dssp::sql
