// perfbench entry point: runs one workload for a time budget and prints its
// metrics; run.py builds it and runs one process per workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--corrupt-check N] [--trace-out PATH]
//
// At least three repetitions run.  Repetition 0 warms the process up and
// only its outputs are checked; the times are those of the fastest later
// repetition.  With --trace 1 the repetitions alternate untraced and
// traced, the per-layer metrics are medians over the traced ones, and
// obs.trace_overhead compares the fastest of each kind.
// The last line of standard output is the result object; the line before
// it is a detail object (digest, drift probe, samples, ledger).
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinReps = 3;
constexpr double kMaxSeconds = 150;  // stop starting repetitions after this

struct Args {
  Params p;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.p.workload = v;
      else if (flag == "--seed") a.p.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--scale") a.p.scale = std::stod(v);
      else if (flag == "--corrupt-check") a.p.corrupt_at = std::stoull(v);
      else if (flag == "--trace-out") a.trace_out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), a.p.workload) != names.end() &&
         a.p.scale > 0;
}

/// Drift diagnostic: mean latency of dependent loads around a fixed 16 MB
/// random cycle.  A machine-wide slowdown moves it; a code change cannot.
/// The cycle is mapped directly, so that freeing it leaves the allocator's
/// thresholds as they were.
double mem_ref_ns() {
  constexpr std::uint32_t kEntries = 4u << 20;
  constexpr std::uint32_t kLoads = 1u << 20;
  constexpr std::size_t kBytes = kEntries * sizeof(std::uint32_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0;
  auto unmap = [](std::uint32_t* p) { munmap(p, kBytes); };
  const std::unique_ptr<std::uint32_t, decltype(unmap)> owner(
      static_cast<std::uint32_t*>(mem), unmap);
  const std::span<std::uint32_t> next(owner.get(), kEntries);
  std::iota(next.begin(), next.end(), 0u);
  sim::Rng rng(0x6d656d);
  for (std::uint32_t i = kEntries - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.uniform(i)]);
  }
  std::uint32_t at = 0;
  const std::int64_t t0 = host_ns();
  for (std::uint32_t k = 0; k < kLoads; ++k) at = next[at];
  const std::int64_t t1 = host_ns();
  volatile std::uint32_t sink = at;
  (void)sink;
  return static_cast<double>(t1 - t0) / kLoads;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string unit_of(const std::string& name) {
  auto ends = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (name == "obs.trace_overhead") return "ratio";
  if (ends("_ns_per_event")) return "ns";
  if (name.find("_us") != std::string::npos) return "us";
  if (ends("_s")) return "s";
  if (ends("bytes") || ends("bytes_copied")) return "B";
  return "count";
}

void print_metric(bool& first, const std::string& name, double value,
                  const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), value, unit.c_str());
  first = false;
}

void print_samples(const char* name, const std::vector<double>& v) {
  std::printf(", \"%s\": [", name);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? ", " : "", v[i]);
  }
  std::printf("]");
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

int run(const Args& a) {
  Spans untraced(false);
  Spans traced(true);
  std::vector<Rep> reps;
  double peak_rss_mb = 0;
  double mem_ns = 0;
  bool trace_written = false;
  const std::int64_t start = host_ns();
  for (std::size_t i = 0;; ++i) {
    // Stop before a repetition that would overrun the budget, judging by
    // the one before it.
    const std::int64_t now = host_ns();
    const double elapsed = static_cast<double>(now - start) / 1e9;
    const double last = reps.empty() ? 0 : reps.back().setup_s + reps.back().wall_s;
    if ((i >= kMinReps && elapsed + last > a.seconds) ||
        elapsed >= kMaxSeconds) {
      break;
    }
    const bool trace_this = a.trace && i % 2 == 1;
    reps.push_back(run_rep(a.p, trace_this ? traced : untraced));
    if (i == 0) {
      // The workload's footprint is that of one repetition; later ones
      // only add allocator fragmentation, more of it the more repetitions
      // the budget fits.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      // The probe runs after that reading, so its 16 MB stay out of the
      // workload's footprint, and before any timed repetition.
      mem_ns = mem_ref_ns();
    }
    if (trace_this && !trace_written && !a.trace_out.empty()) {
      trace_written = write_trace(traced, a.trace_out);
    }
  }

  std::vector<double> wall, setup, traced_wall;
  std::vector<const Rep*> traced_reps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool same_digest = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    attempted += r.attempted;
    failed += r.failed;
    same_digest = same_digest && r.digest == reps[0].digest;
    if (i == 0) continue;  // the warm-up
    if (r.traced) {
      traced_wall.push_back(r.wall_s);
      traced_reps.push_back(&r);
    } else {
      wall.push_back(r.wall_s);
      setup.push_back(r.setup_s);
    }
  }
  // Host noise on a shared machine only ever adds time, so the fastest
  // repetition is the steadiest estimate of the code's own cost.
  const double wall_s = fastest(wall);
  const std::uint64_t ops = reps[0].ops;
  const bool correct = failed == 0 && same_digest && ops > 0 && wall_s > 0;

  // Detail line: the digest, the drift probe, the samples and the ledger.
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"reps\": %zu, \"sim.digest\": \"%016llx\", "
              "\"digests_agree\": %s, \"host.mem_ref_ns\": %.6g",
              a.p.workload.c_str(), static_cast<unsigned long long>(a.p.seed),
              a.trace ? 1 : 0, reps.size(),
              static_cast<unsigned long long>(reps[0].digest),
              same_digest ? "true" : "false", mem_ns);
  print_samples("wall_s", wall);
  print_samples("setup_s", setup);
  if (a.trace) print_samples("traced_wall_s", traced_wall);
  std::printf(", \"ledger\": {");
  bool comma = false;
  const Rep& shown = traced_reps.empty() ? reps[0] : *traced_reps[0];
  for (const auto& [key, value] : shown.layer) {
    std::printf("%s\"%s\": %.17g", comma ? ", " : "", key.c_str(), value);
    comma = true;
  }
  std::printf("}");
  if (trace_written) std::printf(", \"trace_file\": \"%s\"", a.trace_out.c_str());
  std::printf("}\n");

  // Result line.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first_metric = true;
  if (!a.trace) {
    print_metric(first_metric, "wall_s", wall_s, "s");
    print_metric(first_metric, "ops_per_s",
                 wall_s > 0 ? static_cast<double>(ops) / wall_s : 0, "1/s");
    print_metric(first_metric, "setup_s", fastest(setup), "s");
    print_metric(first_metric, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    for (const std::string& name : layer_metric_names()) {
      double v = 0;
      if (name == "obs.trace_overhead") {
        v = wall_s > 0 ? fastest(traced_wall) / wall_s - 1 : 0;
      } else if (name == "core.host_us_per_op") {
        v = ops > 0 ? wall_s / static_cast<double>(ops) * 1e6 : 0;
      } else if (name == "sim.host_ns_per_event") {
        const auto it = reps[0].layer.find("sim.timer.scheduled");
        const double events = it == reps[0].layer.end() ? 0 : it->second;
        v = events > 0 ? wall_s / events * 1e9 : 0;
      } else {
        std::vector<double> xs;
        for (const Rep* r : traced_reps) {
          const auto it = r->layer.find(name);
          xs.push_back(it == r->layer.end() ? 0 : it->second);
        }
        v = median(xs);
      }
      print_metric(first_metric, name, v, unit_of(name));
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--corrupt-check N] "
                 "[--trace-out PATH]\n");
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
