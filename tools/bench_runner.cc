// bench_runner: fan built-in Testbed scenarios across worker threads.
//
//   bench_runner [--workers N] [--out DIR] [--list] [scenario...]
//
// With no scenario names, runs the whole built-in catalogue.  Each
// scenario writes <out>/<name>.json (a netstore-report-v1 document) and a
// merged <out>/merged.json summarizing all of them in catalogue order.
// Per-scenario output is byte-identical for every --workers value; the CI
// perf-smoke job diffs a serial run against a parallel one to prove it.
//
// The effective worker count is clamped to the machine's hardware threads
// (tools::clamp_workers).  The clamp decision is reported in
// <out>/runner_meta.json, a separate host-dependent file: merged.json
// and the per-scenario reports stay byte-comparable across worker
// counts and machines.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "tools/runner.h"

namespace {

using netstore::tools::Scenario;
using netstore::tools::ScenarioResult;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--out DIR] [--list] [scenario...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned workers = 1;
  std::string out_dir;
  bool list = false;
  std::vector<std::string> wanted;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers") {
      if (i + 1 >= argc) return usage(argv[0]);
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (workers == 0) workers = 1;
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage(argv[0]);
      out_dir = argv[++i];
    } else if (arg == "--list") {
      list = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      wanted.push_back(arg);
    }
  }

  const std::vector<Scenario>& catalogue = netstore::tools::builtin_scenarios();
  if (list) {
    for (const Scenario& sc : catalogue) std::printf("%s\n", sc.name.c_str());
    return 0;
  }

  std::vector<Scenario> selected;
  if (wanted.empty()) {
    selected = catalogue;
  } else {
    for (const std::string& name : wanted) {
      bool found = false;
      for (const Scenario& sc : catalogue) {
        if (sc.name == name) {
          selected.push_back(sc);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown scenario: %s (try --list)\n",
                     name.c_str());
        return 2;
      }
    }
  }

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  const unsigned requested_workers = workers;
  workers = netstore::tools::clamp_workers(workers);
  if (workers != requested_workers) {
    std::printf("workers clamped %u -> %u (%u hardware threads)\n",
                requested_workers, workers,
                std::thread::hardware_concurrency());
  }

  const std::vector<ScenarioResult> results =
      netstore::tools::run_scenarios(selected, workers);

  int rc = 0;
  std::printf("%-16s %12s %12s %14s  %s\n", "scenario", "messages", "bytes",
              "virtual_us", "data_hash");
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("%-16s %12llu %12llu %14llu  %llx\n",
                selected[i].name.c_str(),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.bytes),
                static_cast<unsigned long long>(r.now),
                static_cast<unsigned long long>(r.data_hash));
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + selected[i].name + ".json";
      if (!netstore::obs::Report::write_file(path, r.json)) rc = 1;
    }
  }
  if (!out_dir.empty()) {
    const std::string merged =
        netstore::tools::merged_report(selected, results);
    if (!netstore::obs::Report::write_file(out_dir + "/merged.json", merged)) {
      rc = 1;
    }
    // Host-dependent execution metadata lives in its own file so every
    // other artifact stays byte-comparable across worker counts.
    netstore::obs::Report meta("bench_runner_meta",
                               "execution environment and clamp decision");
    auto& mt = meta.table("parallelism", {"metric", "value"});
    mt.row({"requested_workers", static_cast<std::uint64_t>(requested_workers)});
    mt.row({"effective_workers", static_cast<std::uint64_t>(workers)});
    mt.row({"hardware_threads",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency())});
    if (!netstore::obs::Report::write_file(out_dir + "/runner_meta.json",
                                           meta.json())) {
      rc = 1;
    }
  }
  return rc;
}
