#include "store/sql/database.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "compress/crc32.h"
#include "store/fs_util.h"
#include "store/sql/parser.h"

namespace dstore::sql {

namespace {

constexpr char kSnapshotMagic[8] = {'D', 'S', 'Q', 'L', 'S', 'N', 'A', 'P'};
// Version 2 adds the WAL generation after the version field.
constexpr uint32_t kSnapshotVersion = 2;

// The WAL's optional first record: this magic (a leading NUL, so no SQL
// text can match it) and a fixed64 generation. A WAL without one is
// generation 0.
constexpr char kWalMagic[8] = {'\0', 'D', 'S', 'Q', 'L', 'W', 'A', 'L'};

Bytes EncodeWalHeader(uint64_t generation) {
  Bytes out(kWalMagic, kWalMagic + sizeof(kWalMagic));
  PutFixed64(&out, generation);
  return out;
}

std::optional<uint64_t> DecodeWalHeader(const Bytes& payload) {
  if (payload.size() != sizeof(kWalMagic) + 8 ||
      std::memcmp(payload.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return std::nullopt;
  }
  return DecodeFixed64(payload.data() + sizeof(kWalMagic));
}

bool IsTruthy(const SqlValue& value) {
  if (value.is_null()) return false;
  if (value.is_integer()) return value.AsInteger() != 0;
  if (value.is_real()) return value.AsReal() != 0.0;
  return true;  // non-empty text/blob values are truthy
}

// Renders an expression back to SQL text; used to build WAL records for
// statements executed through the prepared (AST) path.
std::string ExprToSql(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.ToSqlLiteral();
    case Expr::Kind::kColumn:
      return e.column;
    case Expr::Kind::kUnaryMinus:
      return "(-" + ExprToSql(*e.left) + ")";
    case Expr::Kind::kNot:
      return "(NOT " + ExprToSql(*e.left) + ")";
    case Expr::Kind::kIsNull:
      return "(" + ExprToSql(*e.left) + " IS NULL)";
    case Expr::Kind::kIsNotNull:
      return "(" + ExprToSql(*e.left) + " IS NOT NULL)";
    case Expr::Kind::kBinary:
      return "(" + ExprToSql(*e.left) + " " + e.op + " " + ExprToSql(*e.right) +
             ")";
  }
  return "";
}

std::string StatementToSql(const Statement& s) {
  switch (s.kind) {
    case Statement::Kind::kCreateTable: {
      std::string sql = "CREATE TABLE ";
      if (s.create_table.if_not_exists) sql += "IF NOT EXISTS ";
      sql += s.create_table.table + " (";
      for (size_t i = 0; i < s.create_table.columns.size(); ++i) {
        const ColumnDef& col = s.create_table.columns[i];
        if (i > 0) sql += ", ";
        sql += col.name + " " + std::string(ColumnTypeName(col.type));
        if (col.primary_key) sql += " PRIMARY KEY";
      }
      return sql + ")";
    }
    case Statement::Kind::kDropTable:
      return std::string("DROP TABLE ") +
             (s.drop_table.if_exists ? "IF EXISTS " : "") + s.drop_table.table;
    case Statement::Kind::kInsert: {
      std::string sql = "INSERT ";
      if (s.insert.or_replace) sql += "OR REPLACE ";
      sql += "INTO " + s.insert.table;
      if (!s.insert.columns.empty()) {
        sql += " (";
        for (size_t i = 0; i < s.insert.columns.size(); ++i) {
          if (i > 0) sql += ", ";
          sql += s.insert.columns[i];
        }
        sql += ")";
      }
      sql += " VALUES ";
      for (size_t r = 0; r < s.insert.rows.size(); ++r) {
        if (r > 0) sql += ", ";
        sql += "(";
        for (size_t i = 0; i < s.insert.rows[r].size(); ++i) {
          if (i > 0) sql += ", ";
          sql += ExprToSql(*s.insert.rows[r][i]);
        }
        sql += ")";
      }
      return sql;
    }
    case Statement::Kind::kUpdate: {
      std::string sql = "UPDATE " + s.update.table + " SET ";
      for (size_t i = 0; i < s.update.assignments.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += s.update.assignments[i].first + " = " +
               ExprToSql(*s.update.assignments[i].second);
      }
      if (s.update.where) sql += " WHERE " + ExprToSql(*s.update.where);
      return sql;
    }
    case Statement::Kind::kDelete: {
      std::string sql = "DELETE FROM " + s.delete_from.table;
      if (s.delete_from.where) {
        sql += " WHERE " + ExprToSql(*s.delete_from.where);
      }
      return sql;
    }
    case Statement::Kind::kSelect:
    case Statement::Kind::kBegin:
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback:
      return "";  // not logged
  }
  return "";
}

// Evaluates `e` against a row (may be null for row-free contexts).
StatusOr<SqlValue> EvalExpr(const Expr& e,
                            const std::vector<ColumnDef>* columns,
                            const std::vector<SqlValue>* row) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kColumn: {
      if (columns == nullptr || row == nullptr) {
        return Status::InvalidArgument("column reference outside a row: " +
                                       e.column);
      }
      for (size_t i = 0; i < columns->size(); ++i) {
        if ((*columns)[i].name == e.column) return (*row)[i];
      }
      return Status::InvalidArgument("unknown column: " + e.column);
    }
    case Expr::Kind::kUnaryMinus: {
      DSTORE_ASSIGN_OR_RETURN(SqlValue v, EvalExpr(*e.left, columns, row));
      if (v.is_integer()) return SqlValue(-v.AsInteger());
      if (v.is_real()) return SqlValue(-v.AsReal());
      if (v.is_null()) return SqlValue::Null();
      return Status::InvalidArgument("unary minus on non-numeric value");
    }
    case Expr::Kind::kNot: {
      DSTORE_ASSIGN_OR_RETURN(SqlValue v, EvalExpr(*e.left, columns, row));
      return SqlValue(static_cast<int64_t>(IsTruthy(v) ? 0 : 1));
    }
    case Expr::Kind::kIsNull: {
      DSTORE_ASSIGN_OR_RETURN(SqlValue v, EvalExpr(*e.left, columns, row));
      return SqlValue(static_cast<int64_t>(v.is_null() ? 1 : 0));
    }
    case Expr::Kind::kIsNotNull: {
      DSTORE_ASSIGN_OR_RETURN(SqlValue v, EvalExpr(*e.left, columns, row));
      return SqlValue(static_cast<int64_t>(v.is_null() ? 0 : 1));
    }
    case Expr::Kind::kBinary:
      break;
  }

  // Binary operators. AND/OR short-circuit.
  if (e.op == "AND") {
    DSTORE_ASSIGN_OR_RETURN(SqlValue left, EvalExpr(*e.left, columns, row));
    if (!IsTruthy(left)) return SqlValue(static_cast<int64_t>(0));
    DSTORE_ASSIGN_OR_RETURN(SqlValue right, EvalExpr(*e.right, columns, row));
    return SqlValue(static_cast<int64_t>(IsTruthy(right) ? 1 : 0));
  }
  if (e.op == "OR") {
    DSTORE_ASSIGN_OR_RETURN(SqlValue left, EvalExpr(*e.left, columns, row));
    if (IsTruthy(left)) return SqlValue(static_cast<int64_t>(1));
    DSTORE_ASSIGN_OR_RETURN(SqlValue right, EvalExpr(*e.right, columns, row));
    return SqlValue(static_cast<int64_t>(IsTruthy(right) ? 1 : 0));
  }

  DSTORE_ASSIGN_OR_RETURN(SqlValue left, EvalExpr(*e.left, columns, row));
  DSTORE_ASSIGN_OR_RETURN(SqlValue right, EvalExpr(*e.right, columns, row));

  // Comparisons: SQL semantics — any comparison with NULL is not-true.
  if (e.op == "=" || e.op == "!=" || e.op == "<" || e.op == "<=" ||
      e.op == ">" || e.op == ">=") {
    if (left.is_null() || right.is_null()) {
      return SqlValue(static_cast<int64_t>(0));
    }
    const int c = left.Compare(right);
    bool result = false;
    if (e.op == "=") result = c == 0;
    else if (e.op == "!=") result = c != 0;
    else if (e.op == "<") result = c < 0;
    else if (e.op == "<=") result = c <= 0;
    else if (e.op == ">") result = c > 0;
    else result = c >= 0;
    return SqlValue(static_cast<int64_t>(result ? 1 : 0));
  }

  // Arithmetic.
  if (left.is_null() || right.is_null()) return SqlValue::Null();
  if (e.op == "+" && left.is_text() && right.is_text()) {
    return SqlValue(left.AsText() + right.AsText());
  }
  if (!left.is_numeric() || !right.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  const bool both_int = left.is_integer() && right.is_integer();
  if (e.op == "+") {
    if (both_int) return SqlValue(left.AsInteger() + right.AsInteger());
    return SqlValue(left.AsReal() + right.AsReal());
  }
  if (e.op == "-") {
    if (both_int) return SqlValue(left.AsInteger() - right.AsInteger());
    return SqlValue(left.AsReal() - right.AsReal());
  }
  if (e.op == "*") {
    if (both_int) return SqlValue(left.AsInteger() * right.AsInteger());
    return SqlValue(left.AsReal() * right.AsReal());
  }
  if (e.op == "/") {
    if (both_int) {
      if (right.AsInteger() == 0) {
        return Status::InvalidArgument("division by zero");
      }
      return SqlValue(left.AsInteger() / right.AsInteger());
    }
    if (right.AsReal() == 0.0) {
      return Status::InvalidArgument("division by zero");
    }
    return SqlValue(left.AsReal() / right.AsReal());
  }
  if (e.op == "%") {
    if (!both_int) return Status::InvalidArgument("modulo on non-integers");
    if (right.AsInteger() == 0) {
      return Status::InvalidArgument("modulo by zero");
    }
    return SqlValue(left.AsInteger() % right.AsInteger());
  }
  return Status::Internal("unknown binary operator: " + e.op);
}

// Checks/coerces `value` for storage in a column of type `type`.
StatusOr<SqlValue> CoerceForColumn(const SqlValue& value, const ColumnDef& col) {
  if (value.is_null()) {
    if (col.primary_key) {
      return Status::InvalidArgument("PRIMARY KEY column " + col.name +
                                     " cannot be NULL");
    }
    return value;
  }
  switch (col.type) {
    case ColumnType::kInteger:
      if (value.is_integer()) return value;
      if (value.is_real()) {
        return SqlValue(static_cast<int64_t>(value.AsReal()));
      }
      break;
    case ColumnType::kReal:
      if (value.is_real()) return value;
      if (value.is_integer()) return SqlValue(value.AsReal());
      break;
    case ColumnType::kText:
      if (value.is_text()) return value;
      if (value.is_integer() || value.is_real()) {
        return SqlValue(value.ToDisplayString());
      }
      break;
    case ColumnType::kBlob:
      if (value.is_blob()) return value;
      if (value.is_text()) return SqlValue(ToBytes(value.AsText()));
      break;
  }
  return Status::InvalidArgument("value has wrong type for column " +
                                 col.name);
}

}  // namespace

StatusOr<int> Database::Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return Status::InvalidArgument("unknown column: " + name + " in table " +
                                 this->name);
}

std::string Database::Table::EncodePk(const SqlValue& value) {
  Bytes encoded;
  value.EncodeTo(&encoded);
  return ToString(encoded);
}

Database::Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                   const Options& options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = options;
  db->path_ = path;

  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  DSTORE_RETURN_IF_ERROR(db->LoadSnapshot());
  DSTORE_ASSIGN_OR_RETURN(const uint64_t keep, db->ReplayWal());
  MutexLock lock(db->mu_);
  DSTORE_ASSIGN_OR_RETURN(db->wal_,
                          WalWriter::Open(path + ".wal", "sql.wal", keep));
  return db;
}

StatusOr<ResultSet> Database::Execute(std::string_view sql) {
  DSTORE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  MutexLock lock(mu_);
  return ExecuteLocked(stmt, sql);
}

StatusOr<ResultSet> Database::ExecuteStatement(const Statement& statement) {
  MutexLock lock(mu_);
  // WAL text is regenerated from the AST only for mutating statements.
  std::string wal_sql;
  if (statement.kind != Statement::Kind::kSelect && path_ != "") {
    wal_sql = StatementToSql(statement);
  }
  return ExecuteLocked(statement, wal_sql);
}

StatusOr<ResultSet> Database::ExecuteLocked(const Statement& statement,
                                            std::string_view sql_for_wal) {
  switch (statement.kind) {
    case Statement::Kind::kBegin: {
      if (in_txn_) return Status::InvalidArgument("already in a transaction");
      in_txn_ = true;
      txn_undo_.clear();
      txn_wal_buffer_.clear();
      return ResultSet{};
    }
    case Statement::Kind::kCommit: {
      if (!in_txn_) return Status::InvalidArgument("no open transaction");
      if (!replaying_ && !txn_wal_buffer_.empty()) {
        // Bracket the statements with BEGIN/COMMIT marker records so a
        // crash mid-commit leaves a recognisably incomplete group that
        // ReplayWal rolls back atomically instead of applying a prefix.
        std::vector<Bytes> records;
        records.push_back(ToBytes("BEGIN"));
        for (const std::string& sql : txn_wal_buffer_) {
          records.push_back(ToBytes(sql));
        }
        records.push_back(ToBytes("COMMIT"));
        DSTORE_RETURN_IF_ERROR(LogCommit(std::move(records)));
      }
      in_txn_ = false;
      txn_undo_.clear();
      txn_wal_buffer_.clear();
      return ResultSet{};
    }
    case Statement::Kind::kRollback: {
      if (!in_txn_) return Status::InvalidArgument("no open transaction");
      for (auto& [name, saved] : txn_undo_) {
        if (saved.has_value()) {
          tables_[name] = *std::move(saved);
        } else {
          tables_.erase(name);
        }
      }
      in_txn_ = false;
      txn_undo_.clear();
      txn_wal_buffer_.clear();
      return ResultSet{};
    }
    case Statement::Kind::kSelect:
      return ExecSelect(statement.select);
    default:
      break;
  }

  // Mutating statement.
  StatusOr<ResultSet> result = Status::Internal("unhandled statement");
  switch (statement.kind) {
    case Statement::Kind::kCreateTable:
      result = ExecCreateTable(statement.create_table);
      break;
    case Statement::Kind::kDropTable:
      result = ExecDropTable(statement.drop_table);
      break;
    case Statement::Kind::kInsert:
      result = ExecInsert(statement.insert);
      break;
    case Statement::Kind::kUpdate:
      result = ExecUpdate(statement.update);
      break;
    case Statement::Kind::kDelete:
      result = ExecDelete(statement.delete_from);
      break;
    default:
      break;
  }
  if (!result.ok()) return result;

  if (!replaying_ && path_ != "" && !sql_for_wal.empty()) {
    if (in_txn_) {
      txn_wal_buffer_.emplace_back(sql_for_wal);
    } else {
      DSTORE_RETURN_IF_ERROR(LogCommit({ToBytes(sql_for_wal)}));
      if (options_.checkpoint_wal_bytes > 0 &&
          wal_->bytes() > options_.checkpoint_wal_bytes) {
        DSTORE_RETURN_IF_ERROR(WriteSnapshotLocked());
      }
    }
  }
  return result;
}

void Database::SnapshotTableForTxn(const std::string& name) {
  if (!in_txn_ || txn_undo_.count(name) > 0) return;
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    txn_undo_.emplace(name, std::nullopt);
  } else {
    txn_undo_.emplace(name, it->second);
  }
}

StatusOr<Database::Table*> Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return &it->second;
}

StatusOr<ResultSet> Database::ExecCreateTable(const CreateTableStatement& stmt) {
  if (tables_.count(stmt.table) > 0) {
    if (stmt.if_not_exists) return ResultSet{};
    return Status::AlreadyExists("table exists: " + stmt.table);
  }
  int pk_index = -1;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    for (size_t j = i + 1; j < stmt.columns.size(); ++j) {
      if (stmt.columns[i].name == stmt.columns[j].name) {
        return Status::InvalidArgument("duplicate column: " +
                                       stmt.columns[i].name);
      }
    }
    if (stmt.columns[i].primary_key) {
      if (pk_index >= 0) {
        return Status::InvalidArgument("multiple PRIMARY KEY columns");
      }
      pk_index = static_cast<int>(i);
    }
  }
  SnapshotTableForTxn(stmt.table);
  Table table;
  table.name = stmt.table;
  table.columns = stmt.columns;
  table.pk_index = pk_index;
  tables_.emplace(stmt.table, std::move(table));
  return ResultSet{};
}

StatusOr<ResultSet> Database::ExecDropTable(const DropTableStatement& stmt) {
  if (tables_.count(stmt.table) == 0) {
    if (stmt.if_exists) return ResultSet{};
    return Status::NotFound("no such table: " + stmt.table);
  }
  SnapshotTableForTxn(stmt.table);
  tables_.erase(stmt.table);
  return ResultSet{};
}

StatusOr<ResultSet> Database::ExecInsert(const InsertStatement& stmt) {
  DSTORE_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));

  // Resolve target column indexes.
  std::vector<int> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < table->columns.size(); ++i) {
      targets.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& col : stmt.columns) {
      DSTORE_ASSIGN_OR_RETURN(int idx, table->ColumnIndex(col));
      targets.push_back(idx);
    }
  }

  SnapshotTableForTxn(stmt.table);
  ResultSet result;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    std::vector<SqlValue> row(table->columns.size());  // defaults to NULL
    for (size_t i = 0; i < targets.size(); ++i) {
      DSTORE_ASSIGN_OR_RETURN(SqlValue value,
                              EvalExpr(*value_exprs[i], nullptr, nullptr));
      DSTORE_ASSIGN_OR_RETURN(
          row[targets[i]],
          CoerceForColumn(value, table->columns[targets[i]]));
    }
    // NULL-check unspecified PK.
    if (table->pk_index >= 0 && row[table->pk_index].is_null()) {
      return Status::InvalidArgument("PRIMARY KEY value missing");
    }

    if (table->pk_index >= 0) {
      const std::string pk = Table::EncodePk(row[table->pk_index]);
      auto existing = table->pk_map.find(pk);
      if (existing != table->pk_map.end()) {
        if (!stmt.or_replace) {
          return Status::AlreadyExists("duplicate PRIMARY KEY value");
        }
        table->rows[existing->second] = std::move(row);
        ++result.rows_affected;
        continue;
      }
      table->pk_map.emplace(pk, table->rows.size());
    }
    table->rows.push_back(std::move(row));
    ++result.rows_affected;
  }
  return result;
}

StatusOr<std::vector<size_t>> Database::MatchRows(Table* table,
                                                  const Expr* where) {
  std::vector<size_t> matches;
  if (where == nullptr) {
    matches.resize(table->rows.size());
    for (size_t i = 0; i < matches.size(); ++i) matches[i] = i;
    return matches;
  }

  // Fast path: PK equality predicate (col = literal, either order).
  if (table->pk_index >= 0 && where->kind == Expr::Kind::kBinary &&
      where->op == "=") {
    const Expr* column = nullptr;
    const Expr* literal = nullptr;
    if (where->left->kind == Expr::Kind::kColumn &&
        where->right->kind == Expr::Kind::kLiteral) {
      column = where->left.get();
      literal = where->right.get();
    } else if (where->right->kind == Expr::Kind::kColumn &&
               where->left->kind == Expr::Kind::kLiteral) {
      column = where->right.get();
      literal = where->left.get();
    }
    if (column != nullptr &&
        column->column == table->columns[table->pk_index].name) {
      DSTORE_ASSIGN_OR_RETURN(
          SqlValue coerced,
          CoerceForColumn(literal->literal, table->columns[table->pk_index]));
      auto it = table->pk_map.find(Table::EncodePk(coerced));
      if (it != table->pk_map.end()) matches.push_back(it->second);
      return matches;
    }
  }

  for (size_t i = 0; i < table->rows.size(); ++i) {
    DSTORE_ASSIGN_OR_RETURN(
        SqlValue verdict, EvalExpr(*where, &table->columns, &table->rows[i]));
    if (IsTruthy(verdict)) matches.push_back(i);
  }
  return matches;
}

StatusOr<ResultSet> Database::ExecSelect(const SelectStatement& stmt) {
  DSTORE_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  DSTORE_ASSIGN_OR_RETURN(std::vector<size_t> matches,
                          MatchRows(table, stmt.where.get()));

  ResultSet result;
  std::vector<Aggregate> aggregates = stmt.aggregates;
  if (aggregates.empty() && stmt.count_star) {
    aggregates.push_back(Aggregate{"COUNT", ""});
  }
  if (!aggregates.empty()) {
    // Computes one aggregate over a subset of row indexes. Fold over
    // non-null values (SQL semantics: aggregates over an empty or all-NULL
    // column are NULL, except COUNT which is 0).
    auto fold = [&](const Aggregate& aggregate,
                    const std::vector<size_t>& subset) -> StatusOr<SqlValue> {
      if (aggregate.func == "COUNT" && aggregate.column.empty()) {
        return SqlValue(static_cast<int64_t>(subset.size()));
      }
      DSTORE_ASSIGN_OR_RETURN(int col, table->ColumnIndex(aggregate.column));
      int64_t count = 0;
      double sum = 0;
      bool sum_is_integral = true;
      int64_t int_sum = 0;
      std::optional<SqlValue> best;  // MIN/MAX
      for (size_t row_index : subset) {
        const SqlValue& value = table->rows[row_index][col];
        if (value.is_null()) continue;
        ++count;
        if (aggregate.func == "SUM" || aggregate.func == "AVG") {
          if (!value.is_numeric()) {
            return Status::InvalidArgument(aggregate.func +
                                           " needs a numeric column");
          }
          sum += value.AsReal();
          if (value.is_integer()) {
            int_sum += value.AsInteger();
          } else {
            sum_is_integral = false;
          }
        } else if (aggregate.func == "MIN" || aggregate.func == "MAX") {
          const bool take = !best.has_value() ||
                            (aggregate.func == "MIN"
                                 ? value.Compare(*best) < 0
                                 : value.Compare(*best) > 0);
          if (take) best = value;
        }
      }
      if (aggregate.func == "COUNT") return SqlValue(count);
      if (count == 0) return SqlValue::Null();
      if (aggregate.func == "SUM") {
        return sum_is_integral ? SqlValue(int_sum) : SqlValue(sum);
      }
      if (aggregate.func == "AVG") {
        return SqlValue(sum / static_cast<double>(count));
      }
      return *best;
    };

    if (stmt.group_by.has_value()) {
      // Any plain selected column must be the grouping column.
      for (const std::string& col : stmt.columns) {
        if (col != *stmt.group_by) {
          return Status::InvalidArgument(
              "column " + col + " must appear in GROUP BY or an aggregate");
        }
      }
      DSTORE_ASSIGN_OR_RETURN(int group_col,
                              table->ColumnIndex(*stmt.group_by));
      result.columns.push_back(*stmt.group_by);
      for (const Aggregate& aggregate : aggregates) {
        result.columns.push_back(
            aggregate.func + "(" +
            (aggregate.column.empty() ? "*" : aggregate.column) + ")");
      }
      // Group rows by the encoded group value, first-seen order.
      std::vector<SqlValue> group_values;
      std::vector<std::vector<size_t>> groups;
      std::unordered_map<std::string, size_t> group_index;
      for (size_t row_index : matches) {
        const SqlValue& value = table->rows[row_index][group_col];
        const std::string encoded = Table::EncodePk(value);
        auto [it, inserted] = group_index.emplace(encoded, groups.size());
        if (inserted) {
          group_values.push_back(value);
          groups.emplace_back();
        }
        groups[it->second].push_back(row_index);
      }
      for (size_t g = 0; g < groups.size(); ++g) {
        std::vector<SqlValue> row = {group_values[g]};
        for (const Aggregate& aggregate : aggregates) {
          DSTORE_ASSIGN_OR_RETURN(SqlValue value, fold(aggregate, groups[g]));
          row.push_back(std::move(value));
        }
        result.rows.push_back(std::move(row));
      }
      return result;
    }

    if (!stmt.columns.empty()) {
      return Status::InvalidArgument(
          "plain columns cannot mix with aggregates without GROUP BY");
    }
    std::vector<SqlValue> row;
    for (const Aggregate& aggregate : aggregates) {
      result.columns.push_back(
          aggregate.func + "(" +
          (aggregate.column.empty() ? "*" : aggregate.column) + ")");
      DSTORE_ASSIGN_OR_RETURN(SqlValue value, fold(aggregate, matches));
      row.push_back(std::move(value));
    }
    result.rows.push_back(std::move(row));
    return result;
  }
  if (stmt.group_by.has_value()) {
    return Status::InvalidArgument("GROUP BY requires aggregate functions");
  }

  std::vector<int> projection;
  if (stmt.select_all) {
    for (size_t i = 0; i < table->columns.size(); ++i) {
      projection.push_back(static_cast<int>(i));
      result.columns.push_back(table->columns[i].name);
    }
  } else {
    for (const std::string& col : stmt.columns) {
      DSTORE_ASSIGN_OR_RETURN(int idx, table->ColumnIndex(col));
      projection.push_back(idx);
      result.columns.push_back(col);
    }
  }

  if (stmt.order_by.has_value()) {
    DSTORE_ASSIGN_OR_RETURN(int order_idx, table->ColumnIndex(*stmt.order_by));
    std::stable_sort(matches.begin(), matches.end(),
                     [&](size_t a, size_t b) {
                       const int c = table->rows[a][order_idx].Compare(
                           table->rows[b][order_idx]);
                       return stmt.order_desc ? c > 0 : c < 0;
                     });
  }

  size_t limit = matches.size();
  if (stmt.limit.has_value()) {
    limit = std::min<size_t>(limit, *stmt.limit);
  }
  result.rows.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    const auto& row = table->rows[matches[i]];
    std::vector<SqlValue> out;
    out.reserve(projection.size());
    for (int idx : projection) out.push_back(row[idx]);
    result.rows.push_back(std::move(out));
  }
  return result;
}

StatusOr<ResultSet> Database::ExecUpdate(const UpdateStatement& stmt) {
  DSTORE_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  DSTORE_ASSIGN_OR_RETURN(std::vector<size_t> matches,
                          MatchRows(table, stmt.where.get()));

  std::vector<int> target_cols;
  for (const auto& [col, expr] : stmt.assignments) {
    DSTORE_ASSIGN_OR_RETURN(int idx, table->ColumnIndex(col));
    target_cols.push_back(idx);
  }

  SnapshotTableForTxn(stmt.table);
  ResultSet result;
  for (size_t row_index : matches) {
    std::vector<SqlValue> updated = table->rows[row_index];
    for (size_t a = 0; a < stmt.assignments.size(); ++a) {
      DSTORE_ASSIGN_OR_RETURN(
          SqlValue value,
          EvalExpr(*stmt.assignments[a].second, &table->columns,
                   &table->rows[row_index]));
      DSTORE_ASSIGN_OR_RETURN(
          updated[target_cols[a]],
          CoerceForColumn(value, table->columns[target_cols[a]]));
    }
    // Maintain the PK index if the key changed.
    if (table->pk_index >= 0) {
      const std::string old_pk =
          Table::EncodePk(table->rows[row_index][table->pk_index]);
      const std::string new_pk = Table::EncodePk(updated[table->pk_index]);
      if (old_pk != new_pk) {
        if (table->pk_map.count(new_pk) > 0) {
          return Status::AlreadyExists("UPDATE violates PRIMARY KEY");
        }
        table->pk_map.erase(old_pk);
        table->pk_map.emplace(new_pk, row_index);
      }
    }
    table->rows[row_index] = std::move(updated);
    ++result.rows_affected;
  }
  return result;
}

void Database::RemoveRow(Table* table, size_t row_index) {
  if (table->pk_index >= 0) {
    table->pk_map.erase(Table::EncodePk(table->rows[row_index][table->pk_index]));
  }
  const size_t last = table->rows.size() - 1;
  if (row_index != last) {
    table->rows[row_index] = std::move(table->rows[last]);
    if (table->pk_index >= 0) {
      table->pk_map[Table::EncodePk(table->rows[row_index][table->pk_index])] =
          row_index;
    }
  }
  table->rows.pop_back();
}

StatusOr<ResultSet> Database::ExecDelete(const DeleteStatement& stmt) {
  DSTORE_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  DSTORE_ASSIGN_OR_RETURN(std::vector<size_t> matches,
                          MatchRows(table, stmt.where.get()));
  SnapshotTableForTxn(stmt.table);
  // Remove from the highest index down so swap-remove cannot disturb a
  // pending lower index.
  std::sort(matches.begin(), matches.end(), std::greater<size_t>());
  for (size_t row_index : matches) RemoveRow(table, row_index);
  ResultSet result;
  result.rows_affected = matches.size();
  return result;
}

// --- Durability ---

Status Database::LogCommit(std::vector<Bytes> records) {
  // The first record after a checkpoint names the WAL's generation.
  if (wal_generation_ > 0 && wal_->bytes() == 0) {
    records.insert(records.begin(), EncodeWalHeader(wal_generation_));
  }
  DSTORE_ASSIGN_OR_RETURN(const uint64_t end, wal_->Append(records));
  return options_.sync_commits ? wal_->Sync(end) : Status::OK();
}

StatusOr<uint64_t> Database::ReplayWal() {
  StatusOr<std::vector<LogRecord>> records = ReadLogRecords(path_ + ".wal");
  if (records.status().IsNotFound()) return 0;
  DSTORE_RETURN_IF_ERROR(records.status());

  MutexLock lock(mu_);
  // A WAL without a header predates the first checkpoint: generation 0.
  size_t next = 0;
  uint64_t generation = 0;
  if (!records->empty()) {
    if (std::optional<uint64_t> header =
            DecodeWalHeader(records->front().payload)) {
      generation = *header;
      next = 1;
    }
  }
  // A WAL older than the snapshot is already folded into it: a crash hit
  // between the snapshot's publish and the WAL's reset. Replaying it would
  // apply its statements twice.
  if (generation < wal_generation_) return 0;
  wal_generation_ = generation;

  // End of the last record that left the log outside a BEGIN..COMMIT group;
  // everything past it (torn tails, dangling transactions) is cut away when
  // Open reopens the WAL for appending.
  uint64_t committed = next == 0 ? 0 : records->front().end;
  replaying_ = true;
  for (; next < records->size(); ++next) {
    auto parsed = ParseStatement(AsStringView((*records)[next].payload));
    if (!parsed.ok()) break;
    // A statement that applied before the crash cannot fail on replay
    // unless the log is damaged; stop here, keeping the durable prefix.
    if (!ExecuteLocked(*parsed, "").ok()) break;
    if (!in_txn_) committed = (*records)[next].end;
  }
  if (in_txn_) {
    // The log ends inside a BEGIN..COMMIT group (torn commit). Undo the
    // partial transaction atomically through the normal rollback path.
    auto rollback = ParseStatement("ROLLBACK");
    if (rollback.ok()) ExecuteLocked(*rollback, "").ok();
  }
  replaying_ = false;
  return committed;
}

Status Database::LoadSnapshot() {
  StatusOr<Bytes> read = ReadWholeFile(path_ + ".snapshot");
  if (read.status().IsNotFound()) return Status::OK();
  DSTORE_RETURN_IF_ERROR(read.status());
  const Bytes& content = *read;

  if (content.size() < sizeof(kSnapshotMagic) + 8 ||
      std::memcmp(content.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::Corruption("bad snapshot magic");
  }
  // Trailing CRC covers everything before it.
  const uint32_t stored_crc = DecodeFixed32(content.data() + content.size() - 4);
  if (Crc32(content.data(), content.size() - 4) != stored_crc) {
    return Status::Corruption("snapshot CRC mismatch");
  }

  size_t pos = sizeof(kSnapshotMagic);
  const uint32_t version = DecodeFixed32(content.data() + pos);
  pos += 4;
  // Version 1 predates WAL generations: its WAL is generation 0.
  uint64_t generation = 0;
  if (version == kSnapshotVersion && content.size() >= pos + 8 + 8) {
    generation = DecodeFixed64(content.data() + pos);
    pos += 8;
  } else if (version != 1) {
    return Status::Corruption("unsupported snapshot version");
  }
  const uint32_t num_tables = DecodeFixed32(content.data() + pos);
  pos += 4;

  std::map<std::string, Table> tables;
  for (uint32_t t = 0; t < num_tables; ++t) {
    Table table;
    DSTORE_ASSIGN_OR_RETURN(Bytes name, GetLengthPrefixed(content, &pos));
    table.name = ToString(name);
    DSTORE_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint64(content, &pos));
    for (uint64_t c = 0; c < num_cols; ++c) {
      ColumnDef col;
      DSTORE_ASSIGN_OR_RETURN(Bytes col_name, GetLengthPrefixed(content, &pos));
      col.name = ToString(col_name);
      if (pos + 2 > content.size()) {
        return Status::Corruption("truncated snapshot column");
      }
      col.type = static_cast<ColumnType>(content[pos++]);
      col.primary_key = content[pos++] != 0;
      if (col.primary_key) table.pk_index = static_cast<int>(c);
      table.columns.push_back(std::move(col));
    }
    DSTORE_ASSIGN_OR_RETURN(uint64_t num_rows, GetVarint64(content, &pos));
    table.rows.reserve(num_rows);
    for (uint64_t r = 0; r < num_rows; ++r) {
      std::vector<SqlValue> row;
      row.reserve(table.columns.size());
      for (size_t c = 0; c < table.columns.size(); ++c) {
        DSTORE_ASSIGN_OR_RETURN(SqlValue value,
                                SqlValue::DecodeFrom(content, &pos));
        row.push_back(std::move(value));
      }
      if (table.pk_index >= 0) {
        table.pk_map.emplace(Table::EncodePk(row[table.pk_index]),
                             table.rows.size());
      }
      table.rows.push_back(std::move(row));
    }
    const std::string table_name = table.name;
    tables.emplace(table_name, std::move(table));
  }
  MutexLock lock(mu_);
  tables_ = std::move(tables);
  wal_generation_ = generation;
  return Status::OK();
}

Status Database::WriteSnapshotLocked() {
  if (path_.empty()) return Status::OK();

  // The snapshot names the WAL generation that continues it, so that after
  // a crash between the publish and the WAL reset below, replay skips the
  // WAL this snapshot has folded in.
  const uint64_t generation = wal_generation_ + 1;
  Bytes out;
  out.insert(out.end(), kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic));
  PutFixed32(&out, kSnapshotVersion);
  PutFixed64(&out, generation);
  PutFixed32(&out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, table.columns.size());
    for (const ColumnDef& col : table.columns) {
      PutLengthPrefixed(&out, col.name);
      out.push_back(static_cast<uint8_t>(col.type));
      out.push_back(col.primary_key ? 1 : 0);
    }
    PutVarint64(&out, table.rows.size());
    for (const auto& row : table.rows) {
      for (const SqlValue& value : row) value.EncodeTo(&out);
    }
  }
  PutFixed32(&out, Crc32(out));

  const std::string snap_path = path_ + ".snapshot";
  DSTORE_RETURN_IF_ERROR(
      PublishFile(snap_path + ".tmp", snap_path, out, "sql.snapshot"));
  wal_generation_ = generation;
  return wal_->Reset();
}

Status Database::Checkpoint() {
  MutexLock lock(mu_);
  if (in_txn_) {
    return Status::InvalidArgument("cannot checkpoint inside a transaction");
  }
  return WriteSnapshotLocked();
}

std::vector<std::string> Database::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

bool Database::in_transaction() const {
  MutexLock lock(mu_);
  return in_txn_;
}

size_t Database::WalBytes() const {
  MutexLock lock(mu_);
  return wal_ == nullptr ? 0 : wal_->bytes();
}

}  // namespace dstore::sql
