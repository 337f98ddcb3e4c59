// netstore-lint: static analyzer for the netstore tree.
//
// The simulator must be bit-deterministic: every Table 2-10 number is a
// function of (config, seed) and nothing else.  The analyzer enforces
// that at compile time, together with the buffer pool's ownership rules.
// It is a real tokenizer plus a cross-TU symbol index, organized as two
// rule families; see tools/lint/rules.h for the family inventory,
// tools/lint/driver.h for the CLI, and DESIGN.md section 15 for the
// suppression vocabulary ("netstore-lint: allow(rule) -- why").
#include "lint/driver.h"

int main(int argc, char** argv) {
  return netstore::lint::run_cli(argc, argv);
}
