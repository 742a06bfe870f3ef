#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "test_util.h"

namespace nvmdb {
namespace {

using testutil::MakeDb;
using testutil::SimpleTable;
using testutil::SimpleTuple;

/// Crash-point fuzzing: run a random committed workload, crash at a random
/// transaction boundary (with a possibly in-flight transaction), recover,
/// and verify the recovered state matches the shadow model of *durably
/// acknowledged* transactions. Parameterized over every engine and
/// several seeds — each (engine, seed) pair explores a different crash
/// point and operation interleaving.
class CrashFuzzTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(CrashFuzzTest, RecoveredStateMatchesDurableModel) {
  const EngineKind kind = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  auto db = MakeDb(kind);
  const TableDef def = SimpleTable();
  ASSERT_TRUE(db->CreateTable(def).ok());
  StorageEngine* engine = db->partition(0);
  Random rng(seed * 7919 + 13);

  // Model of the database as of the last drain point (everything before a
  // drain is durably acknowledged by every engine).
  std::map<uint64_t, uint64_t> durable_model;
  std::map<uint64_t, uint64_t> current_model;

  const int total_txns = 60 + static_cast<int>(rng.Uniform(120));
  const int crash_after = static_cast<int>(rng.Uniform(total_txns));
  int executed = 0;
  bool crashed = false;

  while (executed < total_txns) {
    // Random batch, then a drain (making everything durable), then maybe
    // the crash strikes mid-stream.
    const int batch = 1 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < batch && executed < total_txns; i++, executed++) {
      const uint64_t key = rng.Uniform(40);
      const uint64_t txn = engine->Begin();
      const int op = static_cast<int>(rng.Uniform(3));
      if (op == 0 && current_model.count(key) == 0) {
        const uint64_t count = rng.Uniform(1000);
        if (engine->Insert(txn, 1, SimpleTuple(&def.schema, key, "f", count))
                .ok()) {
          current_model[key] = count;
        }
      } else if (op == 1 && current_model.count(key) != 0) {
        const uint64_t count = rng.Uniform(1000);
        if (engine->Update(txn, 1, key, {{3, Value::U64(count)}}).ok()) {
          current_model[key] = count;
        }
      } else if (op == 2 && current_model.count(key) != 0) {
        if (engine->Delete(txn, 1, key).ok()) current_model.erase(key);
      }
      engine->Commit(txn);

      if (executed == crash_after) {
        // Possibly leave one transaction in flight.
        if (rng.Percent(50)) {
          const uint64_t phantom = engine->Begin();
          engine->Insert(phantom, 1,
                         SimpleTuple(&def.schema, 999, "phantom"));
          // no commit
        }
        db->Crash();
        crashed = true;
        break;
      }
    }
    if (crashed) break;
    db->Drain();
    durable_model = current_model;
  }

  if (!crashed) {
    db->Drain();
    durable_model = current_model;
    db->Crash();
  }
  ASSERT_TRUE(db->Recover().ok());
  engine = db->partition(0);

  // Verification: every key in the durable model must be present with its
  // value; keys beyond it may or may not be present (committed-after-drain
  // txns are allowed to survive, e.g. on the NVM engines), but whatever IS
  // present must be internally consistent (no phantom, no torn values).
  const uint64_t txn = engine->Begin();
  for (const auto& [key, count] : durable_model) {
    Tuple out;
    const Status s = engine->Select(txn, 1, key, &out);
    if (current_model.count(key) != 0 &&
        current_model.at(key) == count) {
      // Still live in the full history: must exist with either the durable
      // or a later committed value.
      ASSERT_TRUE(s.ok()) << "engine " << EngineKindName(kind) << " key "
                          << key;
    }
    if (s.ok() && current_model.count(key) != 0) {
      const uint64_t v = out.GetU64(3);
      EXPECT_TRUE(v == count || v == current_model.at(key))
          << "key " << key << " value " << v;
    }
  }
  Tuple phantom_out;
  EXPECT_TRUE(engine->Select(txn, 1, 999, &phantom_out).IsNotFound())
      << "in-flight transaction leaked into recovered state";
  engine->Commit(txn);

  // The database must remain fully usable after recovery.
  const uint64_t txn2 = engine->Begin();
  ASSERT_TRUE(
      engine->Insert(txn2, 1, SimpleTuple(&def.schema, 500, "post")).ok());
  engine->Commit(txn2);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, CrashFuzzTest,
    ::testing::Combine(::testing::ValuesIn(testutil::kAllEngines),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      std::string name = EngineKindName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nvmdb
