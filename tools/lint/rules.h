// netstore-lint rule families (pass 2 of the analyzer).
//
// Every rule takes one lexed file plus the merged cross-TU index and
// appends findings.  Rules never filter suppressions themselves — the
// driver owns the "netstore-lint: allow(rule)" vocabulary so suppression
// semantics stay uniform across families.
//
// Families and where they run:
//   determinism  (PR 1 rules, re-hosted on the lexer)   src/ or everywhere
//   ownership    BufRef aliasing, RAII pairing           src/ or everywhere
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lexer.h"

namespace netstore::lint {

struct Finding {
  std::string file;
  std::uint32_t line = 0;  // 1-based
  std::uint32_t col = 0;   // 1-based; 0 when the rule is line-granular
  std::string rule;
  std::string message;
};

/// PR-1 rule family, re-hosted on the lexer's blanked view: wall-clock,
/// rand, raw-assert, raw-print, thread, unordered-iter, virtual-dtor,
/// float-eq, std-function-hot-path, raw-blockbuf-alloc, process-state.
/// Reports every occurrence on a line (the PR-1 scanner truncated to one
/// finding per rule per line).
void run_determinism_rules(const SourceFile& f, const Index& idx,
                           std::vector<Finding>& out);

/// Ownership/aliasing: BufRef mutable pointers held across statements,
/// pool frames escaping core::BufferPool, unnamed RAII guards, and
/// manual lock()/suspend() calls.
void run_ownership_rules(const SourceFile& f, std::vector<Finding>& out);

/// All families, in the order above.
void run_all_rules(const SourceFile& f, const Index& idx,
                   std::vector<Finding>& out);

}  // namespace netstore::lint
