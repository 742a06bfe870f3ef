/// Quickstart: create a database on emulated NVM, run transactions on the
/// NVM-aware in-place-updates engine, crash it, and watch it recover
/// instantly with all committed data intact.
#include <cstdio>

#include "testbed/database.h"
#include "testbed/stats.h"

using namespace nvmdb;

int main() {
  // 1. A database on a 64 MB emulated NVM device, low-NVM-latency profile
  //    (2x DRAM), one partition, NVM-InP engine.
  DatabaseConfig config;
  config.num_partitions = 1;
  config.nvm_capacity = 64ull * 1024 * 1024;
  config.latency = NvmLatencyConfig::LowNvm();
  config.engine = EngineKind::kNvmInP;
  Database db(config);

  // 2. A table: id (primary key), name, balance.
  TableDef def;
  def.table_id = 1;
  def.name = "accounts";
  def.schema = Schema({{"id", ColumnType::kUInt64, 8},
                       {"name", ColumnType::kVarchar, 32},
                       {"balance", ColumnType::kUInt64, 8}});
  db.CreateTable(def);
  StorageEngine* engine = db.partition(0);

  // 3. Insert a few accounts in one transaction.
  uint64_t txn = engine->Begin();
  for (uint64_t id = 1; id <= 5; id++) {
    Tuple t(&def.schema);
    t.SetU64(0, id);
    t.SetString(1, "account-" + std::to_string(id));
    t.SetU64(2, 100 * id);
    engine->Insert(txn, 1, t);
  }
  engine->Commit(txn);

  // 4. Transfer 50 from account 1 to account 2 — committed.
  txn = engine->Begin();
  engine->Update(txn, 1, 1, {{2, Value::U64(50)}});
  engine->Update(txn, 1, 2, {{2, Value::U64(250)}});
  engine->Commit(txn);

  // 5. Start another transfer but crash mid-transaction.
  txn = engine->Begin();
  engine->Update(txn, 1, 3, {{2, Value::U64(0)}});
  printf("power failure!\n");
  db.Crash();

  // 6. Recovery: undo-only, so it is near-instant and independent of how
  //    many transactions ran before the crash.
  uint64_t recovery_ns = 0;
  const Status recovered = db.Recover(&recovery_ns);
  if (!recovered.ok()) {
    fprintf(stderr, "recovery failed: %s\n", recovered.ToString().c_str());
    return 1;
  }
  printf("recovered in %.3f simulated ms\n", recovery_ns / 1e6);

  engine = db.partition(0);
  txn = engine->Begin();
  for (uint64_t id = 1; id <= 5; id++) {
    Tuple t;
    if (engine->Select(txn, 1, id, &t).ok()) {
      printf("  id=%llu name=%.*s balance=%llu\n",
             (unsigned long long)id, (int)t.GetString(1).size(),
             t.GetString(1).data(), (unsigned long long)t.GetU64(2));
    }
  }
  engine->Commit(txn);

  const NvmCounters counters = db.device()->counters();
  printf("NVM loads=%llu stores=%llu syncs=%llu\n",
         (unsigned long long)counters.loads,
         (unsigned long long)counters.stores,
         (unsigned long long)counters.sync_calls);
  printf("footprint: %s\n", FormatBytes(db.Footprint().total()).c_str());
  return 0;
}
