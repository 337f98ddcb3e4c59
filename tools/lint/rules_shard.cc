// Shard-safety rule family.
//
// bench_runner fans independent worlds across real worker threads, one
// world per thread at a time (tools/runner.h).  That is only sound if no
// simulated state is reachable from two worlds at once.  A "shard" in
// these rules is one such world on one worker thread:
//
//   shard-mutable-global   a mutable namespace-scope variable is
//                          process-wide, i.e. shared by every worker.
//                          `thread_local` is inherently per-thread and
//                          passes; `// netstore: shard_local` marks a
//                          variable confined to one world.
//   shard-unsafe-singleton a `static X& instance()` accessor hands every
//                          caller the same object.  Annotate the accessor
//                          `// netstore: shard_safe -- <why>` once the
//                          class is actually safe to share (internal
//                          locking, immutable, storage-only), or make it
//                          per-world.
//
// Strict modules (sim, core): every world's event loop and fleet run on
// a bench_runner worker, so there is no annotation amnesty for the two
// rules above.  `shard_local` on a global does not defer the finding — a
// global is shared by every worker whatever its annotation, and TSan can
// race on it.  A `shard_safe` singleton must also be const-clean: a
// `mutable` member on a shared instance mutates under const from every
// worker at once, which contradicts the annotation.  The only escape in
// strict modules is an explicit per-line
// `// netstore-lint: allow(<rule>)` suppression.
//   shard-mutable-member   a `mutable` member writes under a const
//                          surface — invisible shared-state mutation if
//                          the object is ever visible to two workers.
//                          `// netstore: shard_local` on the member
//                          documents that the owning object is confined
//                          to one world.
//
// All three rules run on src/ only: tools/ harnesses own their process.
#include "lint/rules.h"

namespace netstore::lint {
namespace {

bool has(const std::set<std::string>& annots, const char* word) {
  return annots.count(word) != 0;
}

// Modules whose code runs on bench_runner worker threads: findings there
// are hard CI failures with no annotation amnesty (see the header
// comment).
bool strict_module(const std::string& module) {
  return module == "sim" || module == "core";
}

}  // namespace

void run_shard_rules(const SourceFile& f, const Index& idx,
                     std::vector<Finding>& out) {
  if (!f.in_src) return;

  // Globals and classes are indexed tree-wide; report each at its
  // defining file so suppressions/annotations sit next to the code.
  for (const GlobalVar& g : idx.globals) {
    if (g.file != f.path || !g.in_src) continue;
    if (g.is_static) continue;  // fork-unsafe-state already owns statics
    if (g.is_thread_local) continue;
    if (has(g.annotations, "shard_local")) {
      if (!strict_module(g.module)) continue;
      out.push_back({f.path, g.line, 0, "shard-mutable-global",
                     "'" + g.name + "': 'shard_local' does not confine a "
                         "global; module '" + g.module + "' runs on "
                         "bench_runner worker threads, so move this into "
                         "the world or suppress with "
                         "'netstore-lint: allow(shard-mutable-global)'"});
      continue;
    }
    out.push_back({f.path, g.line, 0, "shard-mutable-global",
                   "mutable namespace-scope variable '" + g.name +
                       "' is visible to every worker thread; move it "
                       "into the world, make it thread_local, or "
                       "annotate '// netstore: shard_local' if only one "
                       "world ever touches it"});
  }

  for (const ClassInfo& c : idx.classes) {
    if (c.file != f.path || !c.in_src) continue;
    if (c.singleton && !has(c.annotations, "shard_safe")) {
      out.push_back({f.path, c.singleton_line, 0, "shard-unsafe-singleton",
                     "'" + c.name + "::instance()' hands every worker the "
                         "same object; annotate '// netstore: shard_safe "
                         "-- <why>' once access is synchronized or "
                         "immutable, or make the instance per-world"});
    } else if (c.singleton && strict_module(c.module)) {
      // Strict modules audit the annotation itself: a shared instance
      // with a `mutable` member mutates under const from every worker,
      // so the shard_safe claim cannot hold for that member.
      for (const Member& m : c.members) {
        if (!m.is_mutable) continue;
        out.push_back({f.path, c.singleton_line, 0, "shard-unsafe-singleton",
                       "'" + c.name + "::instance()' is annotated "
                           "shard_safe but member '" + m.name + "' is "
                           "mutable — a shared instance mutating under "
                           "const races across workers; drop the mutable "
                           "or make the instance per-world"});
        break;
      }
    }
    for (const Member& m : c.members) {
      if (!m.is_mutable) continue;
      if (has(m.annotations, "shard_local") ||
          has(c.annotations, "shard_local")) {
        continue;
      }
      out.push_back({f.path, m.line, 0, "shard-mutable-member",
                     "mutable member '" + c.name + "::" + m.name +
                         "' mutates under a const surface; annotate "
                         "'// netstore: shard_local' if the owning object "
                         "is confined to one world, or synchronize it"});
    }
  }
}

}  // namespace netstore::lint
