#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "compress/crc32.h"
#include "store/sql/database.h"
#include "store/sql/lexer.h"
#include "store/sql/parser.h"

namespace dstore::sql {
namespace {

// --- Lexer ---

TEST(SqlLexerTest, TokenizesSimpleSelect) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE a = 1");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 9u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(SqlLexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select FROM sElEcT");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "SELECT");
}

TEST(SqlLexerTest, StringLiteralWithEscapedQuote) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(SqlLexerTest, UnterminatedStringFails) {
  EXPECT_TRUE(Tokenize("'oops").status().IsInvalidArgument());
}

TEST(SqlLexerTest, BlobLiteral) {
  auto tokens = Tokenize("X'deadbeef'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kBlob);
  EXPECT_EQ(HexEncode((*tokens)[0].blob), "deadbeef");
}

TEST(SqlLexerTest, MalformedBlobFails) {
  EXPECT_FALSE(Tokenize("X'xyz'").ok());
  EXPECT_FALSE(Tokenize("X'abc").ok());
}

TEST(SqlLexerTest, Numbers) {
  auto tokens = Tokenize("42 -7 3.5 1e3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].integer, 42);
  // "-7" lexes as symbol '-' then integer 7 (unary minus is parser's job).
  EXPECT_EQ((*tokens)[1].text, "-");
  EXPECT_EQ((*tokens)[2].integer, 7);
  EXPECT_DOUBLE_EQ((*tokens)[3].real, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[4].real, 1000.0);
}

TEST(SqlLexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a != b <> c <= d >= e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "!=");
  EXPECT_EQ((*tokens)[3].text, "!=");  // <> normalized
  EXPECT_EQ((*tokens)[5].text, "<=");
  EXPECT_EQ((*tokens)[7].text, ">=");
}

TEST(SqlLexerTest, RejectsGarbageCharacters) {
  EXPECT_FALSE(Tokenize("SELECT @ FROM t").ok());
}

// --- Parser ---

TEST(SqlParserTest, ParsesCreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, score REAL)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt->create_table.table, "users");
  ASSERT_EQ(stmt->create_table.columns.size(), 3u);
  EXPECT_TRUE(stmt->create_table.columns[0].primary_key);
  EXPECT_EQ(stmt->create_table.columns[2].type, ColumnType::kReal);
}

TEST(SqlParserTest, ParsesInsertMultipleRows) {
  auto stmt =
      ParseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->insert.rows.size(), 2u);
  EXPECT_EQ(stmt->insert.columns.size(), 2u);
}

TEST(SqlParserTest, ParsesSelectWithEverything) {
  auto stmt = ParseStatement(
      "SELECT a, b FROM t WHERE a > 1 AND b != 'q' ORDER BY a DESC LIMIT 10;");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.columns.size(), 2u);
  ASSERT_TRUE(stmt->select.where != nullptr);
  EXPECT_EQ(*stmt->select.order_by, "a");
  EXPECT_TRUE(stmt->select.order_desc);
  EXPECT_EQ(*stmt->select.limit, 10u);
}

TEST(SqlParserTest, ParsesCountStar) {
  auto stmt = ParseStatement("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select.count_star);
}

TEST(SqlParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t garbage here").ok());
}

TEST(SqlParserTest, RejectsMissingFrom) {
  EXPECT_FALSE(ParseStatement("SELECT a WHERE x = 1").ok());
}

TEST(SqlParserTest, RejectsEmptyStatement) {
  EXPECT_FALSE(ParseStatement("").ok());
}

TEST(SqlParserTest, ParsesTransactionKeywords) {
  EXPECT_EQ(ParseStatement("BEGIN")->kind, Statement::Kind::kBegin);
  EXPECT_EQ(ParseStatement("BEGIN TRANSACTION")->kind, Statement::Kind::kBegin);
  EXPECT_EQ(ParseStatement("COMMIT")->kind, Statement::Kind::kCommit);
  EXPECT_EQ(ParseStatement("ROLLBACK")->kind, Statement::Kind::kRollback);
}

// --- Engine ---

class SqlDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, "
                    "score REAL, data BLOB)")
            .ok());
  }

  ResultSet MustExecute(std::string_view sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *std::move(result) : ResultSet{};
  }

  Database db_;
};

TEST_F(SqlDatabaseTest, InsertAndSelectAll) {
  MustExecute("INSERT INTO t VALUES (1, 'alice', 9.5, X'00ff')");
  MustExecute("INSERT INTO t VALUES (2, 'bob', 7.25, NULL)");
  ResultSet result = MustExecute("SELECT * FROM t ORDER BY id");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].AsText(), "alice");
  EXPECT_DOUBLE_EQ(result.rows[1][2].AsReal(), 7.25);
  EXPECT_EQ(HexEncode(result.rows[0][3].AsBlob()), "00ff");
  EXPECT_TRUE(result.rows[1][3].is_null());
}

TEST_F(SqlDatabaseTest, WherePredicates) {
  MustExecute("INSERT INTO t (id, name, score) VALUES "
              "(1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0), (4, 'd', 4.0)");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE score > 2.5").rows.size(), 2u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 3").rows.size(), 1u);
  EXPECT_EQ(
      MustExecute("SELECT * FROM t WHERE id >= 2 AND score < 4").rows.size(),
      2u);
  EXPECT_EQ(
      MustExecute("SELECT * FROM t WHERE name = 'a' OR name = 'd'").rows.size(),
      2u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE NOT id = 1").rows.size(), 3u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id % 2 = 0").rows.size(), 2u);
}

TEST_F(SqlDatabaseTest, IsNullPredicates) {
  MustExecute("INSERT INTO t (id, name) VALUES (1, 'x'), (2, NULL)");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE name IS NULL").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE name IS NOT NULL").rows.size(),
            1u);
}

TEST_F(SqlDatabaseTest, OrderByAndLimit) {
  MustExecute("INSERT INTO t (id, score) VALUES (1, 3.0), (2, 1.0), (3, 2.0)");
  ResultSet result = MustExecute("SELECT id FROM t ORDER BY score LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsInteger(), 2);
  EXPECT_EQ(result.rows[1][0].AsInteger(), 3);
}

TEST_F(SqlDatabaseTest, PrimaryKeyUniqueness) {
  MustExecute("INSERT INTO t (id) VALUES (1)");
  EXPECT_TRUE(db_.Execute("INSERT INTO t (id) VALUES (1)")
                  .status()
                  .IsAlreadyExists());
  // INSERT OR REPLACE succeeds and replaces.
  MustExecute("INSERT OR REPLACE INTO t (id, name) VALUES (1, 'new')");
  EXPECT_EQ(MustExecute("SELECT name FROM t WHERE id = 1").rows[0][0].AsText(),
            "new");
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM t").rows[0][0].AsInteger(), 1);
}

TEST_F(SqlDatabaseTest, PrimaryKeyCannotBeNull) {
  EXPECT_FALSE(db_.Execute("INSERT INTO t (name) VALUES ('nokey')").ok());
}

TEST_F(SqlDatabaseTest, UpdateRows) {
  MustExecute("INSERT INTO t (id, score) VALUES (1, 1.0), (2, 2.0)");
  ResultSet result =
      MustExecute("UPDATE t SET score = score * 10 WHERE id = 2");
  EXPECT_EQ(result.rows_affected, 1u);
  EXPECT_DOUBLE_EQ(
      MustExecute("SELECT score FROM t WHERE id = 2").rows[0][0].AsReal(),
      20.0);
}

TEST_F(SqlDatabaseTest, UpdatePrimaryKeyMaintainsIndex) {
  MustExecute("INSERT INTO t (id) VALUES (1), (2)");
  MustExecute("UPDATE t SET id = 10 WHERE id = 1");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 10").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 1").rows.size(), 0u);
  // Collision rejected.
  EXPECT_TRUE(
      db_.Execute("UPDATE t SET id = 2 WHERE id = 10").status().IsAlreadyExists());
}

TEST_F(SqlDatabaseTest, DeleteRows) {
  MustExecute("INSERT INTO t (id) VALUES (1), (2), (3), (4)");
  ResultSet result = MustExecute("DELETE FROM t WHERE id % 2 = 0");
  EXPECT_EQ(result.rows_affected, 2u);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM t").rows[0][0].AsInteger(), 2);
  // PK index still consistent after swap-removes.
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 3").rows.size(), 1u);
}

TEST_F(SqlDatabaseTest, TypeCoercion) {
  // Integer literal into REAL column; real into INTEGER truncates.
  MustExecute("INSERT INTO t (id, score) VALUES (1, 5)");
  EXPECT_TRUE(
      MustExecute("SELECT score FROM t WHERE id = 1").rows[0][0].is_real());
  MustExecute("INSERT INTO t (id) VALUES (2.9)");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 2").rows.size(), 1u);
}

TEST_F(SqlDatabaseTest, WrongTypeRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO t (id) VALUES ('text-key')").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (id, name) VALUES (1, X'00')").ok());
}

TEST_F(SqlDatabaseTest, ArithmeticInExpressions) {
  MustExecute("INSERT INTO t (id, score) VALUES (6, 2.0)");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 2 * 3").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 7 - 1").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = 12 / 2").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE id = -(-6)").rows.size(), 1u);
}

TEST_F(SqlDatabaseTest, DivisionByZeroFails) {
  MustExecute("INSERT INTO t (id) VALUES (1)");
  EXPECT_FALSE(db_.Execute("SELECT * FROM t WHERE id = 1 / 0").ok());
}

TEST_F(SqlDatabaseTest, UnknownTableAndColumnErrors) {
  EXPECT_TRUE(db_.Execute("SELECT * FROM ghost").status().IsNotFound());
  EXPECT_FALSE(db_.Execute("SELECT ghost_col FROM t").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (ghost) VALUES (1)").ok());
}

TEST_F(SqlDatabaseTest, DropTable) {
  MustExecute("DROP TABLE t");
  EXPECT_TRUE(db_.Execute("SELECT * FROM t").status().IsNotFound());
  EXPECT_TRUE(db_.Execute("DROP TABLE t").status().IsNotFound());
  MustExecute("DROP TABLE IF EXISTS t");  // silent
}

TEST_F(SqlDatabaseTest, CreateIfNotExists) {
  MustExecute("CREATE TABLE IF NOT EXISTS t (x INTEGER)");  // exists: no-op
  EXPECT_TRUE(db_.Execute("CREATE TABLE t (x INTEGER)").status().IsAlreadyExists());
}

TEST_F(SqlDatabaseTest, TransactionCommit) {
  MustExecute("BEGIN");
  MustExecute("INSERT INTO t (id) VALUES (1)");
  MustExecute("INSERT INTO t (id) VALUES (2)");
  EXPECT_TRUE(db_.in_transaction());
  MustExecute("COMMIT");
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM t").rows[0][0].AsInteger(), 2);
}

TEST_F(SqlDatabaseTest, TransactionRollback) {
  MustExecute("INSERT INTO t (id) VALUES (1)");
  MustExecute("BEGIN");
  MustExecute("INSERT INTO t (id) VALUES (2)");
  MustExecute("UPDATE t SET name = 'changed' WHERE id = 1");
  MustExecute("DELETE FROM t WHERE id = 1");
  MustExecute("ROLLBACK");
  ResultSet result = MustExecute("SELECT * FROM t");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInteger(), 1);
  EXPECT_TRUE(result.rows[0][1].is_null());  // name unchanged
}

TEST_F(SqlDatabaseTest, RollbackUndoesCreateAndDrop) {
  MustExecute("BEGIN");
  MustExecute("CREATE TABLE fresh (x INTEGER)");
  MustExecute("DROP TABLE t");
  MustExecute("ROLLBACK");
  EXPECT_TRUE(db_.Execute("SELECT * FROM fresh").status().IsNotFound());
  EXPECT_TRUE(db_.Execute("SELECT * FROM t").ok());
}

TEST_F(SqlDatabaseTest, NestedBeginRejected) {
  MustExecute("BEGIN");
  EXPECT_FALSE(db_.Execute("BEGIN").ok());
  MustExecute("ROLLBACK");
}

TEST_F(SqlDatabaseTest, CommitWithoutBeginRejected) {
  EXPECT_FALSE(db_.Execute("COMMIT").ok());
  EXPECT_FALSE(db_.Execute("ROLLBACK").ok());
}

TEST_F(SqlDatabaseTest, AggregateFunctions) {
  MustExecute("INSERT INTO t (id, name, score) VALUES "
              "(1, 'a', 10.0), (2, 'b', 20.0), (3, NULL, 30.0), (4, 'd', NULL)");
  ResultSet result = MustExecute(
      "SELECT COUNT(*), COUNT(name), COUNT(score), SUM(score), AVG(score), "
      "MIN(score), MAX(score) FROM t");
  ASSERT_EQ(result.rows.size(), 1u);
  const auto& row = result.rows[0];
  EXPECT_EQ(row[0].AsInteger(), 4);   // COUNT(*)
  EXPECT_EQ(row[1].AsInteger(), 3);   // COUNT(name): one NULL
  EXPECT_EQ(row[2].AsInteger(), 3);   // COUNT(score): one NULL
  EXPECT_DOUBLE_EQ(row[3].AsReal(), 60.0);
  EXPECT_DOUBLE_EQ(row[4].AsReal(), 20.0);
  EXPECT_DOUBLE_EQ(row[5].AsReal(), 10.0);
  EXPECT_DOUBLE_EQ(row[6].AsReal(), 30.0);
  EXPECT_EQ(result.columns[3], "SUM(score)");
}

TEST_F(SqlDatabaseTest, AggregatesWithWhere) {
  MustExecute("INSERT INTO t (id, score) VALUES (1, 1.0), (2, 2.0), (3, 3.0)");
  ResultSet result =
      MustExecute("SELECT SUM(score), COUNT(*) FROM t WHERE id >= 2");
  EXPECT_DOUBLE_EQ(result.rows[0][0].AsReal(), 5.0);
  EXPECT_EQ(result.rows[0][1].AsInteger(), 2);
}

TEST_F(SqlDatabaseTest, IntegerSumStaysIntegral) {
  MustExecute("INSERT INTO t (id) VALUES (1), (2), (3)");
  ResultSet result = MustExecute("SELECT SUM(id), MIN(id), MAX(id) FROM t");
  EXPECT_TRUE(result.rows[0][0].is_integer());
  EXPECT_EQ(result.rows[0][0].AsInteger(), 6);
  EXPECT_EQ(result.rows[0][1].AsInteger(), 1);
  EXPECT_EQ(result.rows[0][2].AsInteger(), 3);
}

TEST_F(SqlDatabaseTest, AggregatesOverEmptyTable) {
  ResultSet result =
      MustExecute("SELECT COUNT(*), SUM(score), AVG(score), MIN(id) FROM t");
  EXPECT_EQ(result.rows[0][0].AsInteger(), 0);
  EXPECT_TRUE(result.rows[0][1].is_null());
  EXPECT_TRUE(result.rows[0][2].is_null());
  EXPECT_TRUE(result.rows[0][3].is_null());
}

TEST_F(SqlDatabaseTest, MinMaxOnText) {
  MustExecute("INSERT INTO t (id, name) VALUES (1, 'pear'), (2, 'apple'), "
              "(3, 'mango')");
  ResultSet result = MustExecute("SELECT MIN(name), MAX(name) FROM t");
  EXPECT_EQ(result.rows[0][0].AsText(), "apple");
  EXPECT_EQ(result.rows[0][1].AsText(), "pear");
}

TEST_F(SqlDatabaseTest, SumOnTextRejected) {
  MustExecute("INSERT INTO t (id, name) VALUES (1, 'x')");
  EXPECT_FALSE(db_.Execute("SELECT SUM(name) FROM t").ok());
}

TEST_F(SqlDatabaseTest, AggregateParseErrors) {
  EXPECT_FALSE(db_.Execute("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(db_.Execute("SELECT SUM( FROM t").ok());
  EXPECT_FALSE(db_.Execute("SELECT AVG(ghost) FROM t").ok());
}

TEST_F(SqlDatabaseTest, GroupByWithAggregates) {
  MustExecute("INSERT INTO t (id, name, score) VALUES "
              "(1, 'red', 1.0), (2, 'blue', 2.0), (3, 'red', 3.0), "
              "(4, 'blue', 4.0), (5, 'red', 5.0)");
  ResultSet result = MustExecute(
      "SELECT name, COUNT(*), SUM(score) FROM t GROUP BY name");
  ASSERT_EQ(result.rows.size(), 2u);
  ASSERT_EQ(result.columns,
            (std::vector<std::string>{"name", "COUNT(*)", "SUM(score)"}));
  // Groups in first-seen order: red, then blue.
  EXPECT_EQ(result.rows[0][0].AsText(), "red");
  EXPECT_EQ(result.rows[0][1].AsInteger(), 3);
  EXPECT_DOUBLE_EQ(result.rows[0][2].AsReal(), 9.0);
  EXPECT_EQ(result.rows[1][0].AsText(), "blue");
  EXPECT_EQ(result.rows[1][1].AsInteger(), 2);
  EXPECT_DOUBLE_EQ(result.rows[1][2].AsReal(), 6.0);
}

TEST_F(SqlDatabaseTest, GroupByWithWhere) {
  MustExecute("INSERT INTO t (id, name, score) VALUES "
              "(1, 'a', 1.0), (2, 'a', 10.0), (3, 'b', 100.0)");
  ResultSet result = MustExecute(
      "SELECT name, MAX(score) FROM t WHERE score < 50 GROUP BY name");
  // 'b' is filtered out entirely by the WHERE clause.
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsText(), "a");
  EXPECT_DOUBLE_EQ(result.rows[0][1].AsReal(), 10.0);
}

TEST_F(SqlDatabaseTest, GroupByNullsFormTheirOwnGroup) {
  MustExecute("INSERT INTO t (id, name) VALUES (1, 'x'), (2, NULL), (3, NULL)");
  ResultSet result = MustExecute("SELECT name, COUNT(*) FROM t GROUP BY name");
  ASSERT_EQ(result.rows.size(), 2u);
}

TEST_F(SqlDatabaseTest, GroupByErrors) {
  // Non-grouped plain column.
  EXPECT_FALSE(db_.Execute("SELECT id, COUNT(*) FROM t GROUP BY name").ok());
  // Mixing without GROUP BY.
  EXPECT_FALSE(db_.Execute("SELECT name, COUNT(*) FROM t").ok());
  // GROUP BY without aggregates.
  EXPECT_FALSE(db_.Execute("SELECT name FROM t GROUP BY name").ok());
  // Unknown group column.
  EXPECT_FALSE(db_.Execute("SELECT ghost, COUNT(*) FROM t GROUP BY ghost").ok());
}

// --- Durability ---

class SqlDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dstore_sql_dur_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "db").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static int counter_;
  std::filesystem::path dir_;
  std::string path_;
};

int SqlDurabilityTest::counter_ = 0;

TEST_F(SqlDurabilityTest, SurvivesReopenViaWal) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1, 'persisted')").ok());
    EXPECT_GT((*db)->WalBytes(), 0u);
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsText(), "persisted");
}

TEST_F(SqlDurabilityTest, CheckpointFoldsWalIntoSnapshot) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", 'row')")
                      .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->WalBytes(), 0u);
  }
  ASSERT_TRUE(std::filesystem::exists(path_ + ".snapshot"));
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInteger(), 20);
}

TEST_F(SqlDurabilityTest, UncommittedTransactionNotReplayed) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").ok());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (99)").ok());
    // Destroyed without COMMIT: the insert must not be durable.
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInteger(), 0);
}

TEST_F(SqlDurabilityTest, TornWalTailIgnored) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
  }
  // Simulate a crash mid-append: garbage half-record at the WAL tail.
  {
    std::filesystem::path wal = path_ + ".wal";
    FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0x40, 0x00, 0x00, 0x00, 0x12, 0x34};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInteger(), 1);
  // The database stays writable after recovery.
  EXPECT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
}

TEST_F(SqlDurabilityTest, BlobsAndQuotesSurviveReplay) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT, b BLOB)").ok());
    ASSERT_TRUE((*db)->Execute(
        "INSERT INTO t VALUES (1, 'it''s quoted', X'0001fe')").ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT s, b FROM t WHERE id = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsText(), "it's quoted");
  EXPECT_EQ(HexEncode(result->rows[0][1].AsBlob()), "0001fe");
}

// The WAL figures were recorded at the byte-at-a-time CRC-32, before the
// slicing kernel. The snapshot figures were re-recorded for snapshot
// version 2, which adds the fixed64 WAL generation after the version field
// (1045 bytes before, 1053 now).
constexpr size_t kGoldenWalBytes = 2082;
constexpr uint64_t kGoldenWalDigest = 11606417735918026269ull;
constexpr size_t kGoldenSnapshotBytes = 1053;
constexpr uint64_t kGoldenSnapshotDigest = 71145921140353898ull;

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The WAL's record framing and the snapshot's layout and trailing CRC are
// the on-disk format: fixed statements must keep producing the same bytes.
TEST_F(SqlDurabilityTest, WalAndSnapshotBytesGolden) {
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT, b BLOB)").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*db)
                    ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 'row " + std::string(i, 'x') + "', X'00" +
                              std::to_string(10 + i) + "ff')")
                    .ok());
  }
  ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE id = 7").ok());
  const std::string wal = FileContents(path_ + ".wal");
  EXPECT_EQ(wal.size(), kGoldenWalBytes);
  EXPECT_EQ(Mix64(Fnv1a64(wal)), kGoldenWalDigest);

  ASSERT_TRUE((*db)->Checkpoint().ok());
  const std::string snapshot = FileContents(path_ + ".snapshot");
  EXPECT_EQ(snapshot.size(), kGoldenSnapshotBytes);
  EXPECT_EQ(Mix64(Fnv1a64(snapshot)), kGoldenSnapshotDigest);
}

// A snapshot written before WAL generations (version 1) still loads, and
// the WAL beside it (generation 0) is replayed on top.
TEST_F(SqlDurabilityTest, LoadsVersion1Snapshot) {
  Bytes snapshot = ToBytes("DSQLSNAP");
  PutFixed32(&snapshot, 1);  // version
  PutFixed32(&snapshot, 0);  // no tables
  PutFixed32(&snapshot, Crc32(snapshot));
  std::ofstream(path_ + ".snapshot", std::ios::binary)
      .write(reinterpret_cast<const char*>(snapshot.data()),
             static_cast<std::streamsize>(snapshot.size()));
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rows = (*db)->Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

}  // namespace
}  // namespace dstore::sql
