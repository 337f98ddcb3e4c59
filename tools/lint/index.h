// netstore-lint cross-TU symbol index (pass 1 of the analyzer).
//
// The analyzer runs in two passes: pass 1 lexes every file under the
// given roots and folds what the rules need to know about *other* files
// into this index; pass 2 re-walks each file and runs the rule families
// against (file, index).  That is what lets unordered-iter see a
// container declared in a module's header while linting its .cc.
//
// Everything here is a per-file record first (FileIndex) and a merged
// view second (Index).
//
// Declaration parsing is heuristic, tuned to this tree's (Google-style)
// idiom.  It does not need to be a full C++ front end: it needs to never
// miss a mutable namespace-scope variable, and to never invent one.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace netstore::lint {

/// A mutable namespace-scope variable definition.
struct GlobalVar {
  std::string name;
  std::string file;
  std::uint32_t line = 0;
  bool is_static = false;
};

/// Pass-1 output for a single file.
struct FileIndex {
  std::string path;
  std::map<std::string, std::set<std::string>> unordered_names;  // module->
  std::vector<GlobalVar> globals;
};

/// The merged cross-TU view pass 2 runs against.
struct Index {
  std::map<std::string, std::set<std::string>> unordered_names;
  std::vector<GlobalVar> globals;

  void merge(const FileIndex& fi);
};

/// Builds the pass-1 record for one lexed file.
FileIndex index_file(const SourceFile& f);

}  // namespace netstore::lint
