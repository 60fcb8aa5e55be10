#ifndef DSTORE_STORE_SQL_DATABASE_H_
#define DSTORE_STORE_SQL_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"
#include "store/fs_util.h"
#include "store/sql/ast.h"
#include "store/sql/value.h"

namespace dstore::sql {

// Result of executing one statement. SELECTs populate columns/rows; DML
// statements populate rows_affected.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  uint64_t rows_affected = 0;
};

// An embedded relational engine — the substrate standing in for the paper's
// MySQL instance. Supports typed tables with an optional primary-key index,
// the SQL subset described in parser.h, and durability via write-ahead
// logging: every committed mutating statement is appended to a WAL and
// fsync'd, which is exactly what makes SQL-store writes so much more
// expensive than reads ("writes involve costly commit operations",
// paper Section V / Fig. 10). On reopen the snapshot is loaded and the WAL
// replayed. Checkpoint() folds the WAL into a fresh snapshot.
//
// Thread-safe: statements execute under one database-wide lock, like a
// single-connection MySQL session.
class Database {
 public:
  struct Options {
    // fsync the WAL on every commit (and on every autocommitted mutation).
    // Turning this off trades durability for speed — the ablation the
    // bench_micro_stores benchmark measures.
    bool sync_commits = true;
    // Checkpoint automatically once the WAL exceeds this size (0 = never).
    size_t checkpoint_wal_bytes = 64u << 20;
  };

  // In-memory database (no durability).
  Database();
  // Durable database rooted at `path` ("<path>.snapshot" and "<path>.wal").
  static StatusOr<std::unique_ptr<Database>> Open(const std::string& path,
                                                  const Options& options);
  static StatusOr<std::unique_ptr<Database>> Open(const std::string& path) {
    return Open(path, Options());
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Parses and executes one SQL statement.
  StatusOr<ResultSet> Execute(std::string_view sql);

  // Executes a pre-built statement (the prepared-statement path used by the
  // SQL server's key-value bridge; skips SQL text parsing).
  StatusOr<ResultSet> ExecuteStatement(const Statement& statement);

  // Folds the current state into the snapshot file (published through
  // PublishFile, crash-point site "sql.snapshot") and resets the WAL.
  Status Checkpoint();

  // Introspection.
  std::vector<std::string> TableNames() const;
  bool in_transaction() const;
  size_t WalBytes() const;

 private:
  struct Table {
    std::string name;
    std::vector<ColumnDef> columns;
    int pk_index = -1;  // column index of the PRIMARY KEY, or -1
    std::vector<std::vector<SqlValue>> rows;
    // Primary-key index: encoded PK value -> row position.
    std::unordered_map<std::string, size_t> pk_map;

    StatusOr<int> ColumnIndex(const std::string& name) const;
    static std::string EncodePk(const SqlValue& value);
  };

  // --- execution (run under mu_) ---
  StatusOr<ResultSet> ExecuteLocked(const Statement& statement,
                                    std::string_view sql_for_wal)
      REQUIRES(mu_);
  StatusOr<ResultSet> ExecCreateTable(const CreateTableStatement& stmt)
      REQUIRES(mu_);
  StatusOr<ResultSet> ExecDropTable(const DropTableStatement& stmt)
      REQUIRES(mu_);
  StatusOr<ResultSet> ExecInsert(const InsertStatement& stmt) REQUIRES(mu_);
  StatusOr<ResultSet> ExecSelect(const SelectStatement& stmt) REQUIRES(mu_);
  StatusOr<ResultSet> ExecUpdate(const UpdateStatement& stmt) REQUIRES(mu_);
  StatusOr<ResultSet> ExecDelete(const DeleteStatement& stmt) REQUIRES(mu_);

  StatusOr<Table*> FindTable(const std::string& name) REQUIRES(mu_);
  // Rows matched by `where` (all rows when null). Uses the PK index for
  // equality predicates on the primary key column.
  StatusOr<std::vector<size_t>> MatchRows(Table* table, const Expr* where)
      REQUIRES(mu_);
  void RemoveRow(Table* table, size_t row_index) REQUIRES(mu_);

  // Copy-on-first-write snapshot for ROLLBACK.
  void SnapshotTableForTxn(const std::string& name) REQUIRES(mu_);

  // --- durability ---
  // Appends one commit's records to the WAL in one write, and fsyncs them
  // when sync_commits is on.
  Status LogCommit(std::vector<Bytes> records) REQUIRES(mu_);
  // LoadSnapshot and ReplayWal lock internally and are only called from
  // Open, before the database is shared. ReplayWal returns the WAL offset
  // to keep: the end of its last committed record.
  Status LoadSnapshot() EXCLUDES(mu_);
  StatusOr<uint64_t> ReplayWal() EXCLUDES(mu_);
  Status WriteSnapshotLocked() REQUIRES(mu_);

  Options options_;
  std::string path_;  // empty = in-memory only
  // Appends to "<path>.wal" (crash-point site "sql.wal"); null in memory.
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  // The WAL generation that continues the snapshot: bumped by each
  // checkpoint, written in the snapshot and in the WAL's header record.
  uint64_t wal_generation_ GUARDED_BY(mu_) = 0;

  mutable Mutex mu_;
  std::map<std::string, Table> tables_ GUARDED_BY(mu_);

  bool in_txn_ GUARDED_BY(mu_) = false;
  bool replaying_ GUARDED_BY(mu_) = false;
  std::vector<std::string> txn_wal_buffer_ GUARDED_BY(mu_);
  // Tables (by name) copied at first modification inside the transaction;
  // nullopt marks a table created inside the txn (drop it on rollback).
  std::map<std::string, std::optional<Table>> txn_undo_ GUARDED_BY(mu_);
};

}  // namespace dstore::sql

#endif  // DSTORE_STORE_SQL_DATABASE_H_
