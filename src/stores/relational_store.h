#ifndef ESTOCADA_STORES_RELATIONAL_STORE_H_
#define ESTOCADA_STORES_RELATIONAL_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/value.h"
#include "stores/store_stats.h"

namespace estocada::stores {

/// Column types of the relational store. kAny accepts every value, nested
/// lists included — fragment tables use it for every column, so they take
/// whatever the staging data holds.
enum class ColumnType { kInt, kReal, kStr, kBool, kAny };

struct ColumnDef {
  std::string name;
  ColumnType type;
};

/// A conjunctive select-project-join query in the store's native API —
/// the fragment of SQL the paper's Postgres substrate receives after
/// delegation (SELECT cols FROM t1 a1, t2 a2 WHERE joins AND filters).
struct SpjQuery {
  struct TableRef {
    std::string table;
    std::string alias;  ///< Unique within the query.
  };
  struct ColumnRef {
    std::string alias;
    std::string column;
  };
  struct JoinPredicate {  ///< a1.c1 = a2.c2
    ColumnRef left;
    ColumnRef right;
  };
  struct FilterPredicate {  ///< a.c = constant
    ColumnRef column;
    engine::Value value;
  };

  std::vector<TableRef> from;
  std::vector<ColumnRef> select;
  std::vector<JoinPredicate> joins;
  std::vector<FilterPredicate> filters;

  std::string ToString() const;  ///< Rendered as a SQL SELECT statement.
};

/// In-memory relational engine standing in for the paper's Postgres: typed
/// tables, optional primary key, secondary hash indexes, and an SPJ
/// executor with a greedy bound-first join order that exploits the
/// indexes. Full SPJ support is the contract the rewriting layer relies
/// on when delegating to this store.
class RelationalStore : public StoreBase {
 public:
  /// Default cost profile models a client/server SQL round trip.
  explicit RelationalStore(CostProfile profile = kRelationalBlueprint);

  Status CreateTable(const std::string& name, std::vector<ColumnDef> columns,
                     std::vector<std::string> primary_key = {});
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;

  /// Inserts one typed row; enforces column count/types and PK uniqueness.
  Status Insert(const std::string& table, engine::Row row);

  /// Creates a secondary hash index.
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Number of rows in `table`.
  Result<size_t> RowCount(const std::string& table) const;

  /// Column names of `table` in declaration order.
  Result<std::vector<std::string>> Columns(const std::string& table) const;

  /// Executes a conjunctive SPJ query. Duplicate rows are preserved (bag
  /// semantics). `stats` (optional) accumulates work counters.
  Result<std::vector<engine::Row>> Execute(const SpjQuery& query,
                                           StoreStats* stats = nullptr) const;

  /// Convenience point lookup: rows of `table` where `column` = `value`.
  Result<std::vector<engine::Row>> Lookup(const std::string& table,
                                          const std::string& column,
                                          const engine::Value& value,
                                          StoreStats* stats = nullptr) const;

  /// Batched point lookup: result i holds Lookup(table, column, values[i]).
  /// One client round trip; each value executes (and is charged) as its
  /// own server-side SPJ, like a rewritten `IN`-list.
  Result<std::vector<std::vector<engine::Row>>> LookupMany(
      const std::string& table, const std::string& column,
      const std::vector<engine::Value>& values,
      StoreStats* stats = nullptr) const;

  /// Full scan of a table.
  Result<std::vector<engine::Row>> Scan(const std::string& table,
                                        StoreStats* stats = nullptr) const;


 private:
  struct Table {
    std::vector<ColumnDef> columns;
    std::vector<size_t> primary_key;  ///< Column positions.
    std::vector<engine::Row> rows;
    /// Secondary indexes: column position -> (value -> row indices).
    std::map<size_t, std::unordered_map<engine::Value, std::vector<size_t>,
                                        engine::ValueHash>>
        indexes;
    std::unordered_map<engine::Row, size_t, engine::RowHash> pk_index;

    std::optional<size_t> ColumnIndex(const std::string& name) const;
  };

  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);


  std::map<std::string, Table> tables_;
};

}  // namespace estocada::stores

#endif  // ESTOCADA_STORES_RELATIONAL_STORE_H_
