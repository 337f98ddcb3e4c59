// Parallel scenario runner determinism: a scenario's exported report must
// be byte-identical whether it ran serially or fanned across a thread
// pool, and the merged document must not depend on worker count either.
// This is the property that makes the perf-smoke CI job's parallel run
// diffable against a serial baseline.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "tools/runner.h"

namespace netstore::tools {
namespace {

std::vector<Scenario> small_scenarios() {
  std::vector<Scenario> list = {
      {"a_nfsv3", core::Protocol::kNfsV3, WorkloadKind::kMixedMeta, 3, 8},
      {"b_iscsi", core::Protocol::kIscsi, WorkloadKind::kMixedMeta, 3, 8},
      {"c_iscsi_seq", core::Protocol::kIscsi, WorkloadKind::kSequential, 5, 4},
      {"d_nfsv3_b", core::Protocol::kNfsV3, WorkloadKind::kMixedMeta, 9, 8},
  };
  return list;
}

TEST(RunnerTest, ScenarioReportIsValidAndNonEmpty) {
  const Scenario sc{"solo", core::Protocol::kIscsi, WorkloadKind::kMixedMeta,
                    7, 8};
  const ScenarioResult res = run_scenario(sc);
  EXPECT_NE(res.json.find("\"format\":\"netstore-report-v1\""),
            std::string::npos);
  EXPECT_NE(res.json.find("\"bench\":\"solo\""), std::string::npos);
  EXPECT_GT(res.messages, 0u);
  EXPECT_GT(res.now, 0);
}

TEST(RunnerTest, SameScenarioTwiceIsByteIdentical) {
  const Scenario sc{"twice", core::Protocol::kNfsV3, WorkloadKind::kMixedMeta,
                    7, 8};
  const ScenarioResult a = run_scenario(sc);
  const ScenarioResult b = run_scenario(sc);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.data_hash, b.data_hash);
}

TEST(RunnerTest, ParallelRunMatchesSerialByteForByte) {
  const std::vector<Scenario> scenarios = small_scenarios();
  const auto serial = run_scenarios(scenarios, 1);
  const auto parallel = run_scenarios(scenarios, 4);
  ASSERT_EQ(serial.size(), scenarios.size());
  ASSERT_EQ(parallel.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(serial[i].json, parallel[i].json)
        << "scenario " << scenarios[i].name
        << " diverged between serial and parallel runs";
  }
  EXPECT_EQ(merged_report(scenarios, serial),
            merged_report(scenarios, parallel));
}

TEST(RunnerTest, ResultsAreSlottedByIndexNotCompletionOrder) {
  // More workers than scenarios: completion order is arbitrary, but the
  // result at index i must always describe scenarios[i].
  const std::vector<Scenario> scenarios = small_scenarios();
  const auto results = run_scenarios(scenarios, 8);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_NE(results[i].json.find("\"bench\":\"" + scenarios[i].name + "\""),
              std::string::npos)
        << "result " << i << " does not belong to " << scenarios[i].name;
  }
}

TEST(RunnerTest, MergedReportListsScenariosInListOrder) {
  const std::vector<Scenario> scenarios = small_scenarios();
  const auto results = run_scenarios(scenarios, 2);
  const std::string merged = merged_report(scenarios, results);
  std::size_t pos = 0;
  for (const Scenario& sc : scenarios) {
    const std::size_t at = merged.find("\"" + sc.name + "\"", pos);
    ASSERT_NE(at, std::string::npos) << sc.name << " missing from merged";
    pos = at;
  }
}

TEST(RunnerTest, ClampWorkersBoundsWorkersByHardware) {
  // 8 hardware threads: a request within the machine is kept...
  EXPECT_EQ(clamp_workers(4, 8), 4u);
  EXPECT_EQ(clamp_workers(8, 8), 8u);
  // ...a wider one is cut to the thread count...
  EXPECT_EQ(clamp_workers(16, 8), 8u);
  // ...and the clamp never returns zero.
  EXPECT_EQ(clamp_workers(0, 1), 1u);
  // hardware_threads = 0 queries the host; whatever it reports, the
  // bounds hold.
  const unsigned w = clamp_workers(64);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, 64u);
}

TEST(RunnerTest, BuiltinCatalogueHasUniqueNames) {
  const auto& catalogue = builtin_scenarios();
  ASSERT_FALSE(catalogue.empty());
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    for (std::size_t j = i + 1; j < catalogue.size(); ++j) {
      EXPECT_NE(catalogue[i].name, catalogue[j].name);
    }
  }
}

}  // namespace
}  // namespace netstore::tools
