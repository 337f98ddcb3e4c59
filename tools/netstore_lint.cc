// netstore-lint: static analyzer for the netstore tree.
//
// The simulator must be bit-deterministic (every Table 2-10 number is a
// function of (config, seed) and nothing else), and — because
// bench_runner runs worlds on parallel worker threads — no simulated
// state may alias across worlds.  The analyzer enforces both at compile
// time.  It is a real tokenizer plus a cross-TU symbol index, organized
// as three rule families; see
// tools/lint/rules.h for the family inventory, tools/lint/driver.h for
// the CLI, and DESIGN.md section 15 for the annotation vocabulary
// ("netstore-lint: allow(rule) -- why", "netstore: shard_local",
// "netstore: shard_safe").
#include "lint/driver.h"

int main(int argc, char** argv) {
  return netstore::lint::run_cli(argc, argv);
}
