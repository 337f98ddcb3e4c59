// netstore-lint cross-TU symbol index (pass 1 of the analyzer).
//
// The analyzer runs in two passes: pass 1 lexes every file under the
// given roots and folds what the rules need to know about *other* files
// into this index; pass 2 re-walks each file and runs the rule families
// against (file, index).  That is what lets unordered-iter see a
// container declared in a module's header while linting its .cc, and
// lets lock-order see that two different .cc files acquire the same pair
// of mutexes in opposite orders.
//
// Everything here is a per-file record first (FileIndex) and a merged
// view second (Index).
//
// Declaration parsing is heuristic, tuned to this tree's (Google-style)
// idiom.  It does not need to be a full C++ front end: it needs to never
// miss a mutable data member, and to never invent one.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace netstore::lint {

/// One data member of an indexed class.
struct Member {
  std::string name;
  std::uint32_t line = 0;
  bool is_mutable = false;
  std::set<std::string> annotations;  // "netstore: <word>" on decl line/above
};

struct ClassInfo {
  std::string name;  // simple name
  std::string qual;  // Namespace::Outer::Name
  std::string file;
  std::uint32_t line = 0;
  std::string module;
  bool in_src = false;
  bool singleton = false;       // declares `static Self& instance()`
  std::uint32_t singleton_line = 0;
  std::set<std::string> annotations;  // on the class head or instance()
  std::vector<Member> members;
};

/// A mutable namespace-scope variable definition.
struct GlobalVar {
  std::string name;
  std::string file;
  std::uint32_t line = 0;
  std::string module;
  bool in_src = false;
  bool is_static = false;
  bool is_thread_local = false;
  std::set<std::string> annotations;
};

/// "Lock B was acquired while lock A was held", observed in one function.
/// Lock identity is `EnclosingClass::expr` so `mu_` in two classes stays
/// two locks.
struct LockEdge {
  std::string first;
  std::string second;
  std::string file;
  std::uint32_t line = 0;  // where `second` is acquired
};

/// Pass-1 output for a single file.
struct FileIndex {
  std::string path;
  std::map<std::string, std::set<std::string>> unordered_names;  // module->
  std::vector<ClassInfo> classes;
  std::vector<GlobalVar> globals;
  std::vector<LockEdge> lock_edges;
};

/// The merged cross-TU view pass 2 runs against.
struct Index {
  std::map<std::string, std::set<std::string>> unordered_names;
  std::vector<ClassInfo> classes;
  std::vector<GlobalVar> globals;
  std::vector<LockEdge> lock_edges;
  std::set<std::string> singleton_classes;  // simple names

  void merge(const FileIndex& fi);
};

/// Words from "netstore: word1, word2 -- why" comments anchored at `line`
/// or the line directly above (same placement rule as suppressions).
std::set<std::string> annotations_at(const SourceFile& f, std::uint32_t line);

/// Builds the pass-1 record for one lexed file.
FileIndex index_file(const SourceFile& f);

}  // namespace netstore::lint
