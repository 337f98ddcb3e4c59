// Ownership / aliasing rule family.
//
// The buffer pool (PR 5) made every data-path page a refcounted
// copy-on-write frame, and the obs layer meters daemon work with RAII
// suspend guards.  Both contracts are easy to break in ways no test
// notices immediately:
//
//   bufref-held            the pointer/reference returned by
//                          BufRef::mutable_data()/mutable_block()/
//                          mutable_view() is stored into a variable.  Any
//                          later copy of the handle (a cache share)
//                          un-shares the frame and the stored
//                          pointer silently keeps writing to the *old*
//                          frame.  Use the result within the expression
//                          that produced it, or suppress with proof that
//                          no handle operation intervenes.
//   poolframe-escape       core::detail::PoolFrame named outside the
//                          pool implementation: frames are owned by the
//                          pool's slabs and reachable only through
//                          BufRef; a raw frame pointer bypasses both the
//                          refcount and copy-on-write.
//   raii-temp              an unnamed RAII guard (SuspendGuard,
//                          lock_guard, scoped_lock, unique_lock) is a
//                          temporary destroyed at the end of the full
//                          expression — it pairs construct/destruct
//                          instantly and protects nothing.
//   manual-lock            bare .lock()/.unlock() calls: an early return
//                          or exception between them deadlocks; use a
//                          scoped guard.
//   manual-suspend         bare tracer .suspend()/.resume() outside
//                          src/obs: same pairing hazard; use
//                          obs::SuspendGuard.
//   raw-datapath-memcpy    std::memcpy whose arguments touch BufRef /
//                          pool-frame memory (.data(), .mutable_data(),
//                          .mutable_block()) outside the pool and the
//                          sanctioned helpers in core/iovec.h: the data
//                          plane moves payload as shared frames, and
//                          unmetered copies silently erode it.  Use
//                          core::copy_out/copy_in at user boundaries, or
//                          suppress where a byte-small sub-payload copy
//                          is semantically required (ext3 indirect
//                          entries, parity folds).
#include <filesystem>

#include "lint/rules.h"

namespace netstore::lint {
namespace {

const std::set<std::string> kMutableAccessors = {"mutable_data",
                                                 "mutable_block",
                                                 "mutable_view"};
const std::set<std::string> kRaiiTypes = {"SuspendGuard", "lock_guard",
                                          "scoped_lock", "unique_lock"};

bool is_pool_impl(const SourceFile& f) {
  return std::filesystem::path(f.path).filename().string().starts_with(
      "buffer_pool");
}

/// core/iovec.h owns the sanctioned copy helpers; its own memcpys are the
/// metering points the rule funnels everyone else towards.
bool is_iovec_impl(const SourceFile& f) {
  return std::filesystem::path(f.path).filename().string().starts_with(
      "iovec");
}

}  // namespace

// One token scan runs every ownership rule.  Statement boundaries are
// ';', '{', '}' at any nesting — statement-expression granularity is all
// these patterns need.
void run_ownership_rules(const SourceFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& ts = f.tokens;
  const bool pool_impl = is_pool_impl(f);
  std::size_t stmt_start = 0;  // token index of current statement start

  for (std::size_t i = 0; i < ts.size() && ts[i].kind != Tok::kEof; ++i) {
    const Token& t = ts[i];
    if (t.text == ";" || t.text == "{" || t.text == "}") {
      stmt_start = i + 1;
      continue;
    }
    if (t.kind != Tok::kIdent) continue;

    const bool after_access =
        i > 0 && (ts[i - 1].text == "." || ts[i - 1].text == "->");
    const bool calls = i + 1 < ts.size() && ts[i + 1].text == "(";

    // --- bufref-held ---------------------------------------------------
    if (!pool_impl && f.in_src && after_access && calls &&
        kMutableAccessors.count(t.text) != 0) {
      // Stored if an '=' appears earlier in this statement outside any
      // parens (an initializer or assignment whose RHS produced the
      // pointer); immediate uses (function arguments, memcpy operands)
      // have the call inside parens or no '=' at all.
      int paren = 0;
      bool stored = false;
      for (std::size_t k = stmt_start; k < i; ++k) {
        if (ts[k].text == "(") paren++;
        if (ts[k].text == ")") paren--;
        if (ts[k].text == "=" && paren == 0 && k > stmt_start &&
            ts[k - 1].kind == Tok::kIdent) {
          stored = true;
        }
        if (ts[k].text == "return") stored = false;  // handled by callers
      }
      if (stored) {
        out.push_back({f.path, t.line, t.col, "bufref-held",
                       "result of BufRef::" + t.text + "() stored past the "
                           "producing expression; a later handle copy "
                           "un-shares the frame and this pointer keeps "
                           "writing to the stale copy — use it inline, or "
                           "suppress with proof no handle op intervenes"});
      }
    }

    // --- poolframe-escape ----------------------------------------------
    if (t.text == "PoolFrame" && f.in_src && !pool_impl) {
      out.push_back({f.path, t.line, t.col, "poolframe-escape",
                     "core::detail::PoolFrame referenced outside the pool "
                     "implementation; frames are reachable only through "
                     "refcounted core::BufRef handles"});
    }

    // --- raii-temp ------------------------------------------------------
    if (kRaiiTypes.count(t.text) != 0) {
      // Only at a statement head (skipping std:: / obs:: qualifiers): a
      // guard in an initializer or argument list is someone else's
      // business.
      std::size_t head = stmt_start;
      while (head + 1 < ts.size() && ts[head].kind == Tok::kIdent &&
             ts[head + 1].text == "::") {
        head += 2;
      }
      if (head == i) {
        std::size_t j = i + 1;
        if (j < ts.size() && ts[j].text == "<") {
          int depth = 0;
          for (; j < ts.size() && ts[j].kind != Tok::kEof; ++j) {
            if (ts[j].text == "<") depth++;
            if (ts[j].text == ">" && --depth == 0) {
              j++;
              break;
            }
            if (ts[j].text == ";") break;
          }
        }
        if (j < ts.size() && ts[j].text == "(") {
          // Disambiguate from a constructor declaration of the same name
          // (`SuspendGuard(const SuspendGuard&) = delete;`): a guard
          // temporary has non-empty value-expression arguments and the
          // statement ends right after the closing ')'.
          int depth = 0;
          std::size_t close = j;
          bool decl_like = false;
          std::size_t nargs = 0;
          for (; close < ts.size() && ts[close].kind != Tok::kEof; ++close) {
            const std::string& u = ts[close].text;
            if (u == "(") depth++;
            else if (u == ")" && --depth == 0) break;
            else if (depth >= 1) {
              nargs++;
              if (u == "const" || u == "*" || u == "&") decl_like = true;
            }
          }
          const bool ends_stmt = close + 1 < ts.size() &&
                                 ts[close + 1].text == ";";
          if (nargs > 0 && !decl_like && ends_stmt) {
            out.push_back({f.path, t.line, t.col, "raii-temp",
                           "unnamed " + t.text + " temporary is destroyed "
                               "at the end of this statement — it guards "
                               "nothing; name it so it lives to scope end"});
          }
        }
      }
    }

    // --- raw-datapath-memcpy -------------------------------------------
    if (t.text == "memcpy" && calls && f.in_src && !pool_impl &&
        !is_iovec_impl(f)) {
      // Scan the argument list: an accessor that yields frame memory
      // (BufRef/BlockBuf .data(), .mutable_data(), .mutable_block())
      // makes this a data-path copy that bypasses the metered helpers.
      int depth = 0;
      bool frame_arg = false;
      for (std::size_t k = i + 1; k < ts.size() && ts[k].kind != Tok::kEof;
           ++k) {
        if (ts[k].text == "(") {
          depth++;
        } else if (ts[k].text == ")") {
          if (--depth == 0) break;
        } else if (ts[k].kind == Tok::kIdent && depth >= 1 && k > 0 &&
                   (ts[k - 1].text == "." || ts[k - 1].text == "->") &&
                   (ts[k].text == "data" || ts[k].text == "mutable_data" ||
                    ts[k].text == "mutable_block")) {
          frame_arg = true;
        }
      }
      if (frame_arg) {
        out.push_back({f.path, t.line, t.col, "raw-datapath-memcpy",
                       "raw memcpy on BufRef/pool-frame memory bypasses the "
                       "data plane's copy metering; use core::copy_out/"
                       "copy_in at user boundaries, or suppress where a "
                       "sub-payload copy is semantically required"});
      }
    }

    // --- manual-lock / manual-suspend ----------------------------------
    if (after_access && calls) {
      if (t.text == "lock" || t.text == "unlock" || t.text == "try_lock") {
        out.push_back({f.path, t.line, t.col, "manual-lock",
                       "bare ." + t.text + "() call; an early return or "
                           "exception skips the matching unlock — use "
                           "std::lock_guard/std::scoped_lock"});
      }
      if ((t.text == "suspend" || t.text == "resume") && f.module != "obs") {
        out.push_back({f.path, t.line, t.col, "manual-suspend",
                       "bare tracer ." + t.text + "() call; pairing is "
                           "manual and leaks on early return — use "
                           "obs::SuspendGuard"});
      }
    }
  }
}

void run_all_rules(const SourceFile& f, const Index& idx,
                   std::vector<Finding>& out) {
  run_determinism_rules(f, idx, out);
  run_ownership_rules(f, out);
}

}  // namespace netstore::lint
