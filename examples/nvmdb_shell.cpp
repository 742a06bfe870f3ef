/// Interactive mini-shell over the nvmdb public API — poke at any of the
/// six engines, pull the (virtual) power plug, and watch recovery happen.
///
/// Usage: example_nvmdb_shell [engine]
///   engine: inp | cow | log | nvm-inp | nvm-cow | nvm-log (default)
///
/// Commands:
///   put <key> <name> [count]    insert or update a row
///   get <key>                   read a row
///   del <key>                   delete a row
///   scan <lo> <hi>              range scan
///   find <name>                 secondary-index lookup by name
///   begin / commit / abort      explicit transaction control
///   crash                       power failure (unflushed data is lost!)
///   recover                     restart + engine recovery protocol
///   stats                       NVM counters, footprint, wear
///   help / quit
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "testbed/database.h"
#include "testbed/stats.h"

using namespace nvmdb;

namespace {

EngineKind ParseEngine(const char* arg) {
  if (strcmp(arg, "inp") == 0) return EngineKind::kInP;
  if (strcmp(arg, "cow") == 0) return EngineKind::kCoW;
  if (strcmp(arg, "log") == 0) return EngineKind::kLog;
  if (strcmp(arg, "nvm-inp") == 0) return EngineKind::kNvmInP;
  if (strcmp(arg, "nvm-cow") == 0) return EngineKind::kNvmCoW;
  if (strcmp(arg, "nvm-log") == 0) return EngineKind::kNvmLog;
  fprintf(stderr, "unknown engine '%s', using nvm-inp\n", arg);
  return EngineKind::kNvmInP;
}

void PrintRow(const Tuple& t) {
  printf("  key=%llu name=%.*s count=%llu\n",
         (unsigned long long)t.GetU64(0), (int)t.GetString(1).size(),
         t.GetString(1).data(), (unsigned long long)t.GetU64(3));
}

}  // namespace

int main(int argc, char** argv) {
  const EngineKind kind =
      argc > 1 ? ParseEngine(argv[1]) : EngineKind::kNvmInP;

  DatabaseConfig cfg;
  cfg.num_partitions = 1;
  cfg.nvm_capacity = 128ull * 1024 * 1024;
  cfg.latency = NvmLatencyConfig::LowNvm();
  cfg.engine = kind;
  cfg.engine_config.group_commit_size = 1;
  Database db(cfg);

  TableDef def;
  def.table_id = 1;
  def.name = "kv";
  def.schema = Schema({{"key", ColumnType::kUInt64, 8},
                       {"name", ColumnType::kVarchar, 32},
                       {"payload", ColumnType::kVarchar, 64},
                       {"count", ColumnType::kUInt64, 8}});
  SecondaryIndexDef by_name;
  by_name.index_id = 0;
  by_name.key_columns = {1};
  def.secondary_indexes.push_back(by_name);
  db.CreateTable(def);

  printf("nvmdb shell — engine %s on a %s emulated NVM device.\n",
         EngineKindName(kind), FormatBytes(cfg.nvm_capacity).c_str());
  printf("Type 'help' for commands; each statement auto-commits unless "
         "inside begin/commit.\n");

  StorageEngine* engine = db.partition(0);
  uint64_t open_txn = 0;  // explicit transaction, 0 = none
  bool crashed = false;
  std::string line;

  auto current_txn = [&]() -> uint64_t {
    return open_txn != 0 ? open_txn : engine->Begin();
  };
  auto finish = [&](uint64_t txn, bool ok) {
    if (open_txn != 0) return;  // explicit txn: user commits
    if (ok) {
      engine->Commit(txn);
    } else {
      engine->Abort(txn);
    }
  };

  while (printf("%s> ", crashed ? "(crashed)" : EngineKindName(kind)),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      printf("put/get/del/scan/find, begin/commit/abort, crash/recover, "
             "stats, quit\n");
      continue;
    }
    if (cmd == "crash") {
      db.Crash();
      crashed = true;
      open_txn = 0;
      printf("power failure! unflushed data is gone. 'recover' to "
             "restart.\n");
      continue;
    }
    if (cmd == "recover") {
      uint64_t ns = 0;
      const Status recovered = db.Recover(&ns);
      if (!recovered.ok()) {
        printf("recovery failed: %s\n", recovered.ToString().c_str());
        continue;
      }
      engine = db.partition(0);
      crashed = false;
      printf("recovered in %.3f simulated ms\n", ns / 1e6);
      continue;
    }
    if (crashed) {
      printf("database is down — 'recover' first\n");
      continue;
    }
    if (cmd == "begin") {
      if (open_txn != 0) {
        printf("transaction %llu already open\n",
               (unsigned long long)open_txn);
      } else {
        open_txn = engine->Begin();
        printf("begin txn %llu\n", (unsigned long long)open_txn);
      }
      continue;
    }
    if (cmd == "commit") {
      if (open_txn == 0) {
        printf("no open transaction\n");
      } else {
        engine->Commit(open_txn);
        printf("committed txn %llu\n", (unsigned long long)open_txn);
        open_txn = 0;
      }
      continue;
    }
    if (cmd == "abort") {
      if (open_txn == 0) {
        printf("no open transaction\n");
      } else {
        engine->Abort(open_txn);
        printf("aborted txn %llu\n", (unsigned long long)open_txn);
        open_txn = 0;
      }
      continue;
    }
    if (cmd == "put") {
      uint64_t key, count = 0;
      std::string name;
      if (!(in >> key >> name)) {
        printf("usage: put <key> <name> [count]\n");
        continue;
      }
      in >> count;
      const uint64_t txn = current_txn();
      Tuple t(&def.schema);
      t.SetU64(0, key);
      t.SetString(1, name);
      t.SetString(2, "payload-" + name);
      t.SetU64(3, count);
      Status s = engine->Insert(txn, 1, t);
      if (s.IsInvalidArgument()) {  // exists: update instead
        s = engine->Update(txn, 1, key,
                           {{1, Value::Str(name)}, {3, Value::U64(count)}});
      }
      printf("%s\n", s.ToString().c_str());
      finish(txn, s.ok());
      continue;
    }
    if (cmd == "get") {
      uint64_t key;
      if (!(in >> key)) {
        printf("usage: get <key>\n");
        continue;
      }
      const uint64_t txn = current_txn();
      Tuple t;
      const Status s = engine->Select(txn, 1, key, &t);
      if (s.ok()) {
        PrintRow(t);
      } else {
        printf("%s\n", s.ToString().c_str());
      }
      finish(txn, true);
      continue;
    }
    if (cmd == "del") {
      uint64_t key;
      if (!(in >> key)) {
        printf("usage: del <key>\n");
        continue;
      }
      const uint64_t txn = current_txn();
      printf("%s\n", engine->Delete(txn, 1, key).ToString().c_str());
      finish(txn, true);
      continue;
    }
    if (cmd == "scan") {
      uint64_t lo, hi;
      if (!(in >> lo >> hi)) {
        printf("usage: scan <lo> <hi>\n");
        continue;
      }
      const uint64_t txn = current_txn();
      size_t n = 0;
      engine->ScanRange(txn, 1, lo, hi, [&n](uint64_t, const Tuple& t) {
        PrintRow(t);
        n++;
        return true;
      });
      printf("(%zu rows)\n", n);
      finish(txn, true);
      continue;
    }
    if (cmd == "find") {
      std::string name;
      if (!(in >> name)) {
        printf("usage: find <name>\n");
        continue;
      }
      const uint64_t txn = current_txn();
      std::vector<Tuple> matches;
      engine->SelectSecondary(txn, 1, 0, {Value::Str(name)}, &matches);
      for (const Tuple& t : matches) PrintRow(t);
      printf("(%zu rows)\n", matches.size());
      finish(txn, true);
      continue;
    }
    if (cmd == "stats") {
      const NvmCounters c = db.device()->counters();
      const WearStats w = db.device()->wear();
      printf("NVM loads=%llu stores=%llu hits=%llu syncs=%llu\n",
             (unsigned long long)c.loads, (unsigned long long)c.stores,
             (unsigned long long)c.hits, (unsigned long long)c.sync_calls);
      printf("simulated time: %.3f ms; wear: %llu line writes, hotspot "
             "%.1fx\n",
             c.stall_ns / 1e6, (unsigned long long)w.total_line_writes,
             w.hotspot_factor);
      const FootprintStats f = db.Footprint();
      printf("footprint: table=%s index=%s log=%s total=%s\n",
             FormatBytes(f.table_bytes).c_str(),
             FormatBytes(f.index_bytes).c_str(),
             FormatBytes(f.log_bytes).c_str(),
             FormatBytes(f.total()).c_str());
      continue;
    }
    printf("unknown command '%s' (try 'help')\n", cmd.c_str());
  }
  return 0;
}
