#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "test_util.h"

namespace nvmdb {
namespace {

using testutil::MakeDb;
using testutil::SimpleTable;
using testutil::SimpleTuple;

/// Crash/recovery semantics, uniformly across all six engines: whatever an
/// engine acknowledged as durable must be there after Crash()+Recover(),
/// and whatever was in flight must not.
class EngineRecoveryTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    db_ = MakeDb(GetParam());
    def_ = SimpleTable();
    ASSERT_TRUE(db_->CreateTable(def_).ok());
  }

  StorageEngine* engine() { return db_->partition(0); }

  void CommitTuple(uint64_t key, const std::string& name, uint64_t count) {
    const uint64_t txn = engine()->Begin();
    ASSERT_TRUE(
        engine()
            ->Insert(txn, 1, SimpleTuple(&def_.schema, key, name, count))
            .ok());
    engine()->Commit(txn);
  }

  void CrashAndRecover() {
    db_->Crash();
    ASSERT_TRUE(db_->Recover().ok());
  }

  std::unique_ptr<Database> db_;
  TableDef def_;
};

TEST_P(EngineRecoveryTest, DrainedCommitsSurviveCrash) {
  for (uint64_t i = 0; i < 50; i++) {
    CommitTuple(i, "n" + std::to_string(i), i * 2);
  }
  db_->Drain();  // force group commits / WAL flush to storage
  CrashAndRecover();

  const uint64_t txn = engine()->Begin();
  for (uint64_t i = 0; i < 50; i++) {
    Tuple out;
    ASSERT_TRUE(engine()->Select(txn, 1, i, &out).ok()) << "key " << i;
    EXPECT_EQ(out.GetString(1), "n" + std::to_string(i));
    EXPECT_EQ(out.GetU64(3), i * 2);
  }
  engine()->Commit(txn);
}

TEST_P(EngineRecoveryTest, MidTransactionCrashIsUndone) {
  CommitTuple(1, "committed", 10);
  db_->Drain();

  // In-flight transaction at the time of the power failure.
  const uint64_t txn = engine()->Begin();
  engine()->Insert(txn, 1, SimpleTuple(&def_.schema, 2, "phantom"));
  engine()->Update(txn, 1, 1, {{3, Value::U64(999)}});
  // no Commit
  CrashAndRecover();

  const uint64_t txn2 = engine()->Begin();
  Tuple out;
  ASSERT_TRUE(engine()->Select(txn2, 1, 1, &out).ok());
  EXPECT_EQ(out.GetU64(3), 10u);  // update rolled back
  EXPECT_TRUE(engine()->Select(txn2, 1, 2, &out).IsNotFound());
  engine()->Commit(txn2);
}

TEST_P(EngineRecoveryTest, MidTransactionDeleteIsUndone) {
  CommitTuple(5, "survivor", 1);
  db_->Drain();
  const uint64_t txn = engine()->Begin();
  engine()->Delete(txn, 1, 5);
  CrashAndRecover();

  const uint64_t txn2 = engine()->Begin();
  Tuple out;
  ASSERT_TRUE(engine()->Select(txn2, 1, 5, &out).ok());
  EXPECT_EQ(out.GetString(1), "survivor");
  engine()->Commit(txn2);
}

TEST_P(EngineRecoveryTest, UpdatesAndDeletesSurviveCrash) {
  for (uint64_t i = 0; i < 20; i++) CommitTuple(i, "v1", 1);
  {
    const uint64_t txn = engine()->Begin();
    ASSERT_TRUE(
        engine()->Update(txn, 1, 3, {{1, Value::Str("v2")}}).ok());
    engine()->Commit(txn);
  }
  {
    const uint64_t txn = engine()->Begin();
    ASSERT_TRUE(engine()->Delete(txn, 1, 4).ok());
    engine()->Commit(txn);
  }
  db_->Drain();
  CrashAndRecover();

  const uint64_t txn = engine()->Begin();
  Tuple out;
  ASSERT_TRUE(engine()->Select(txn, 1, 3, &out).ok());
  EXPECT_EQ(out.GetString(1), "v2");
  EXPECT_TRUE(engine()->Select(txn, 1, 4, &out).IsNotFound());
  ASSERT_TRUE(engine()->Select(txn, 1, 5, &out).ok());
  engine()->Commit(txn);
}

TEST_P(EngineRecoveryTest, SecondaryIndexUsableAfterRecovery) {
  CommitTuple(1, "findme", 0);
  CommitTuple(2, "findme", 0);
  CommitTuple(3, "other", 0);
  db_->Drain();
  CrashAndRecover();

  const uint64_t txn = engine()->Begin();
  std::vector<Tuple> matches;
  ASSERT_TRUE(
      engine()
          ->SelectSecondary(txn, 1, 0, {Value::Str("findme")}, &matches)
          .ok());
  engine()->Commit(txn);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_P(EngineRecoveryTest, RepeatedCrashRecoverCycles) {
  std::map<uint64_t, uint64_t> model;
  Random rng(static_cast<uint64_t>(GetParam()) * 17 + 5);
  for (int cycle = 0; cycle < 5; cycle++) {
    for (int i = 0; i < 30; i++) {
      const uint64_t key = rng.Uniform(100);
      const uint64_t txn = engine()->Begin();
      if (model.count(key)) {
        const uint64_t count = rng.Uniform(1000);
        if (engine()->Update(txn, 1, key, {{3, Value::U64(count)}}).ok()) {
          model[key] = count;
        }
      } else {
        const uint64_t count = rng.Uniform(1000);
        if (engine()
                ->Insert(txn, 1, SimpleTuple(&def_.schema, key, "x", count))
                .ok()) {
          model[key] = count;
        }
      }
      engine()->Commit(txn);
    }
    db_->Drain();
    CrashAndRecover();
    const uint64_t txn = engine()->Begin();
    for (const auto& [key, count] : model) {
      Tuple out;
      ASSERT_TRUE(engine()->Select(txn, 1, key, &out).ok())
          << "cycle " << cycle << " key " << key;
      EXPECT_EQ(out.GetU64(3), count);
    }
    engine()->Commit(txn);
  }
}

TEST_P(EngineRecoveryTest, RecoveryIsIdempotent) {
  CommitTuple(1, "stable", 7);
  db_->Drain();
  const uint64_t txn = engine()->Begin();
  engine()->Update(txn, 1, 1, {{3, Value::U64(8)}});
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  // Crash again immediately (recovery half-done scenarios collapse to
  // running recovery twice).
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  const uint64_t txn2 = engine()->Begin();
  Tuple out;
  ASSERT_TRUE(engine()->Select(txn2, 1, 1, &out).ok());
  EXPECT_EQ(out.GetU64(3), 7u);
  engine()->Commit(txn2);
}

TEST_P(EngineRecoveryTest, EmptyDatabaseRecovers) {
  CrashAndRecover();
  const uint64_t txn = engine()->Begin();
  Tuple out;
  EXPECT_TRUE(engine()->Select(txn, 1, 1, &out).IsNotFound());
  engine()->Commit(txn);
  // And is writable afterwards.
  const uint64_t txn2 = engine()->Begin();
  ASSERT_TRUE(engine()
                  ->Insert(txn2, 1, SimpleTuple(&def_.schema, 1, "fresh"))
                  .ok());
  engine()->Commit(txn2);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRecoveryTest,
                         ::testing::ValuesIn(testutil::kAllEngines),
                         [](const auto& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// NVM-InP and NVM-Log guarantee durability at commit — no group-commit
/// window, no drain needed (Section 4.1/4.3). NVM-CoW still batches
/// (Section 4.2), so it is excluded here.
class NvmEngineRecoveryTest : public EngineRecoveryTest {};

TEST_P(NvmEngineRecoveryTest, CommitsAreDurableImmediately) {
  for (uint64_t i = 0; i < 20; i++) {
    CommitTuple(i, "instant" + std::to_string(i), i);
  }
  // NOTE: no Drain() here.
  CrashAndRecover();
  const uint64_t txn = engine()->Begin();
  for (uint64_t i = 0; i < 20; i++) {
    Tuple out;
    ASSERT_TRUE(engine()->Select(txn, 1, i, &out).ok()) << i;
    EXPECT_EQ(out.GetString(1), "instant" + std::to_string(i));
  }
  engine()->Commit(txn);
}

TEST_P(NvmEngineRecoveryTest, UndoLogEmptyAfterRecovery) {
  CommitTuple(1, "x", 1);
  const uint64_t txn = engine()->Begin();
  engine()->Update(txn, 1, 1, {{3, Value::U64(2)}});
  db_->Crash();
  uint64_t first_ns = 0;
  ASSERT_TRUE(db_->Recover(&first_ns).ok());
  // Second crash with no in-flight work: recovery does strictly less.
  db_->Crash();
  uint64_t second_ns = 0;
  ASSERT_TRUE(db_->Recover(&second_ns).ok());
  EXPECT_LT(second_ns, first_ns);
  const uint64_t txn2 = engine()->Begin();
  Tuple out;
  ASSERT_TRUE(engine()->Select(txn2, 1, 1, &out).ok());
  EXPECT_EQ(out.GetU64(3), 1u);
  engine()->Commit(txn2);
}

INSTANTIATE_TEST_SUITE_P(
    NvmEngines, NvmEngineRecoveryTest,
    ::testing::Values(EngineKind::kNvmInP, EngineKind::kNvmLog),
    [](const auto& info) {
      std::string name = EngineKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace nvmdb
