#include "nfs/client.h"

#include <algorithm>

#include "core/check.h"

namespace netstore::nfs {

namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') i++;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') j++;
    if (j > i) out.push_back(path.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

NfsClient::NfsClient(sim::Env& env, rpc::RpcTransport& rpc, NfsServer& server,
                     ClientConfig config)
    : env_(env), rpc_(rpc), server_(server), config_(config) {}

NfsClient::~NfsClient() = default;

// ---------------------------------------------------------------------------
// RPC plumbing
// ---------------------------------------------------------------------------

void NfsClient::call(Proc proc, std::uint32_t req_payload,
                     std::uint32_t resp_payload, sim::FuncRef<void()> work) {
  rpc_.call(req_payload, resp_payload, [&](sim::Time arrival) {
    env_.advance_to(arrival);
    server_.charge(proc, req_payload + resp_payload);
    work();
    return env_.now();
  });
}

sim::Time NfsClient::call_async(Proc proc, std::uint32_t req_payload,
                                std::uint32_t resp_payload,
                                sim::FuncRef<void()> work) {
  return rpc_.call_async(req_payload, resp_payload, [&](sim::Time arrival) {
    server_.charge(proc, req_payload + resp_payload);
    work();
    return std::max(arrival, env_.now());
  });
}

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

void NfsClient::remember_attr(Fh fh, const fs::Attr& a) {
  attrs_[fh] = CachedAttr{a, env_.now()};
}

void NfsClient::remember_dentry(Fh dir, const std::string& name, Fh fh,
                                fs::FileType type) {
  deleg_negative_.erase(DentryKey{dir, name});
  dentries_[DentryKey{dir, name}] = Dentry{fh, type, env_.now()};
}

void NfsClient::forget_dentry(Fh dir, const std::string& name) {
  dentries_.erase(DentryKey{dir, name});
}

bool NfsClient::attr_fresh(Fh fh) const {
  if (config_.consistent_metadata_cache) return attrs_.contains(fh);
  auto it = attrs_.find(fh);
  return it != attrs_.end() &&
         env_.now() - it->second.fetched_at < config_.attr_timeout;
}

fs::Status NfsClient::do_getattr(Fh fh) {
  if (is_provisional(fh)) return fs::Status::Ok();  // client is authoritative
  stats_.revalidations.add(1);
  fs::Status out = fs::Status::Ok();
  call(Proc::kGetattr, WireSizes::kFh, WireSizes::kAttrs, [&] {
    fs::Result<fs::Attr> a = server_.getattr(to_real(fh));
    if (!a) {
      out = a.error();
      return;
    }
    remember_attr(fh, *a);
  });
  return out;
}

void NfsClient::v4_ensure_access(Fh fh) {
  // Linux v4 idiosyncrasy: an ACCESS exchange per directory component.
  if (config_.version != Version::kV4) return;
  if (is_provisional(fh)) return;  // §7: not yet shipped to the server
  // §7: the strongly-consistent cache keeps access decisions valid until
  // a server callback invalidates them; no per-window ACCESS probes.
  if (config_.consistent_metadata_cache) return;
  auto it = access_cache_.find(fh);
  if (it != access_cache_.end() &&
      env_.now() - it->second < config_.attr_timeout) {
    return;
  }
  call(Proc::kAccess, WireSizes::kFh + 4, WireSizes::kAttrs + 4,
       [&] { (void)server_.access(to_real(fh), fs::kAccessRead); });
  access_cache_[fh] = env_.now();
}

fs::Result<NfsServer::LookupReply> NfsClient::rpc_lookup(
    Fh dir, const std::string& name) {
  stats_.lookups.add(1);
  fs::Result<NfsServer::LookupReply> out = fs::Err::kNoEnt;
  call(Proc::kLookup, WireSizes::name_arg(name),
       WireSizes::kFh + WireSizes::kAttrs,
       [&] { out = server_.lookup(dir, name); });
  if (out) {
    remember_dentry(dir, name, out->fh, out->attr.type());
    remember_attr(out->fh, out->attr);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

fs::Result<Fh> NfsClient::step(Fh dir, const std::string& name,
                               bool* was_cached) {
  v4_ensure_access(dir);

  auto it = dentries_.find(DentryKey{dir, name});
  if (it != dentries_.end()) {
    if (was_cached) *was_cached = true;
    const Fh fh = it->second.fh;
    if (config_.consistent_metadata_cache) return fh;
    // Consistency check: a cached entry whose attributes are past the
    // window is revalidated with one GETATTR (all versions).
    if (!attr_fresh(fh)) {
      if (fs::Status s = do_getattr(fh); !s) {
        forget_dentry(dir, name);
        return s.error();
      }
    }
    return fh;
  }
  if (was_cached) *was_cached = false;

  if (is_provisional(dir) ||
      deleg_negative_.contains(DentryKey{dir, name})) {
    // §7 delegation: the client is authoritative — either the parent has
    // not been shipped yet, or the name was removed locally.
    return fs::Err::kNoEnt;
  }
  fs::Result<NfsServer::LookupReply> r = rpc_lookup(dir, name);
  if (!r) return r.error();
  return r->fh;
}

fs::Result<Fh> NfsClient::walk(const std::string& path,
                               bool* final_was_cached) {
  NETSTORE_CHECK(mounted_, "NFS client not mounted");
  const std::vector<std::string> parts = split_path(path);
  Fh cur = root_;
  if (final_was_cached) *final_was_cached = true;  // "/" itself is cached
  if (config_.version == Version::kV4) {
    // The Linux v4 client access-checks every directory it traverses,
    // starting from the export root (paper §4.1, footnote 2).
    v4_ensure_access(root_);
  } else if (!config_.consistent_metadata_cache && !attr_fresh(root_)) {
    if (fs::Status s = do_getattr(root_); !s) return s.error();
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    bool cached = false;
    fs::Result<Fh> next = step(cur, parts[i], &cached);
    if (!next) return next;
    if (final_was_cached && i + 1 == parts.size()) *final_was_cached = cached;
    cur = *next;
  }
  return cur;
}

fs::Result<Fh> NfsClient::walk_parent(const std::string& path,
                                      std::string& leaf) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.empty()) return fs::Err::kInval;
  leaf = parts.back();
  std::string parent;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) parent += "/" + parts[i];
  if (parent.empty()) parent.push_back('/');
  return walk(parent);
}

// ---------------------------------------------------------------------------
// Mount / unmount
// ---------------------------------------------------------------------------

void NfsClient::mount() {
  NETSTORE_CHECK(!mounted_, "double mount");
  mounted_ = true;
  // MOUNT (v2/v3) or PUTROOTFH+GETATTR compound (v4): one exchange that
  // yields the root handle and its attributes.
  call(Proc::kNull, 64, WireSizes::kFh + WireSizes::kAttrs, [&] {
    root_ = server_.root();
    fs::Result<fs::Attr> a = server_.getattr(root_);
    if (a) remember_attr(root_, *a);
  });
}

void NfsClient::unmount() {
  NETSTORE_CHECK(mounted_, "NFS client not mounted");
  flush_delegated_updates();
  write_pool_.drain(env_);
  invalidate_caches();
  mounted_ = false;
}

void NfsClient::invalidate_caches() {
  deleg_negative_.clear();
  dentries_.clear();
  attrs_.clear();
  access_cache_.clear();
  pages_.clear();
  page_lru_.reset();
  file_pages_.clear();
  files_.clear();
}

bool NfsClient::expire_path_attrs(const std::string& path) {
  if (!mounted_) return false;
  Fh cur = root_;
  for (const std::string& name : split_path(path)) {
    auto it = dentries_.find(DentryKey{cur, name});
    if (it == dentries_.end()) return false;
    cur = it->second.fh;
  }
  const bool had = attrs_.erase(cur) > 0;
  access_cache_.erase(cur);
  return had;
}

// ---------------------------------------------------------------------------
// Metadata operations
// ---------------------------------------------------------------------------

fs::Status NfsClient::mkdir(const std::string& path, std::uint16_t perm) {
  std::string leaf;
  fs::Result<Fh> parent = walk_parent(path, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
    queue_update(PendingUpdate{.op = Proc::kMkdir,
                               .dir = *parent,
                               .name = leaf,
                               .perm = perm});
    return fs::Status::Ok();
  }

  if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
  // Negative lookup: Linux consults the server before creating.
  fs::Result<NfsServer::LookupReply> r = rpc_lookup(*parent, leaf);
  if (r) return fs::Err::kExist;
  if (r.error() != fs::Err::kNoEnt) return r.error();

  fs::Status out = fs::Status::Ok();
  call(Proc::kMkdir, WireSizes::name_arg(leaf) + WireSizes::kSetAttrs,
       WireSizes::kFh + WireSizes::kAttrs, [&] {
         fs::Result<NfsServer::LookupReply> r =
             server_.mkdir(*parent, leaf, perm);
         if (!r) {
           out = r.error();
           return;
         }
         remember_dentry(*parent, leaf, r->fh, fs::FileType::kDirectory);
         remember_attr(r->fh, r->attr);
       });
  if (out && config_.version == Version::kV4) do_getattr(*parent);
  return out;
}

fs::Status NfsClient::chdir(const std::string& path) {
  bool cached = false;
  fs::Result<Fh> fh = walk(path, &cached);
  if (!fh) return fh.error();
  if (config_.version == Version::kV4) {
    v4_ensure_access(*fh);
  } else if (cached && !config_.consistent_metadata_cache) {
    // Linux v2/v3 revalidate a dentry-cache hit on the cwd change even
    // inside the attribute window (Table 3: warm chdir = 1 message).
    if (fs::Status s = do_getattr(*fh); !s) return s;
  }
  auto it = attrs_.find(*fh);
  if (it != attrs_.end() &&
      it->second.attr.type() != fs::FileType::kDirectory) {
    return fs::Err::kNotDir;
  }
  return fs::Status::Ok();
}

fs::Result<std::vector<fs::DirEntry>> NfsClient::readdir(
    const std::string& path) {
  fs::Result<Fh> dir = walk(path);
  if (!dir) return dir.error();
  if (config_.version == Version::kV4) v4_ensure_access(*dir);
  if (delegated()) materialize(*dir);

  fs::Result<std::vector<fs::DirEntry>> out = fs::Err::kIo;
  // First READDIR exchange; large directories page through more.
  call(Proc::kReaddir, WireSizes::kFh + 16, 512,
       [&] { out = server_.readdir(to_real(*dir)); });
  if (!out) return out;
  constexpr std::size_t kEntriesPerReply =
      block::kBlockSize / WireSizes::kDirentOverhead;  // ~170
  for (std::size_t served = kEntriesPerReply; served < out->size();
       served += kEntriesPerReply) {
    call(Proc::kReaddir, WireSizes::kFh + 16, block::kBlockSize, [] {});
  }
  return out;
}

fs::Result<fs::Ino> NfsClient::symlink(const std::string& target,
                                       const std::string& linkpath) {
  std::string leaf;
  fs::Result<Fh> parent = walk_parent(linkpath, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
    PendingUpdate u{.op = Proc::kSymlink,
                    .dir = *parent,
                    .name = leaf,
                    .aux = target};
    queue_update(u);
    auto it = dentries_.find(DentryKey{*parent, leaf});
    return it->second.fh;
  }

  if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
  fs::Result<NfsServer::LookupReply> neg = rpc_lookup(*parent, leaf);
  if (neg) return fs::Err::kExist;
  if (neg.error() != fs::Err::kNoEnt) return neg.error();

  fs::Result<fs::Ino> out = fs::Err::kIo;
  call(Proc::kSymlink,
       WireSizes::name_arg(leaf) +
           static_cast<std::uint32_t>(target.size()),
       WireSizes::kFh + WireSizes::kAttrs, [&] {
         fs::Result<NfsServer::LookupReply> r =
             server_.symlink(*parent, leaf, target);
         if (!r) {
           out = r.error();
           return;
         }
         remember_dentry(*parent, leaf, r->fh, fs::FileType::kSymlink);
         remember_attr(r->fh, r->attr);
         out = r->fh;
       });
  if (!out) return out;
  if (config_.version == Version::kV2) {
    // v2's SYMLINK reply carries no file handle: the client LOOKUPs the
    // fresh link to instantiate its dentry (Table 2: v2=3, v3=2).
    rpc_lookup(*parent, leaf);
  } else if (config_.version == Version::kV4) {
    do_getattr(*parent);
  }
  return out;
}

fs::Result<std::string> NfsClient::readlink(const std::string& path) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (delegated() && is_provisional(*fh)) {
    // §7: the symlink only exists in the local update queue.
    for (const PendingUpdate& u : deleg_queue_) {
      if (u.provisional == *fh) return u.aux;
    }
    return fs::Err::kIo;
  }
  fs::Result<std::string> out = fs::Err::kIo;
  call(Proc::kReadlink, WireSizes::kFh, 256,
       [&] { out = server_.readlink(to_real(*fh)); });
  return out;
}

fs::Status NfsClient::unlink(const std::string& path) {
  std::string leaf;
  fs::Result<Fh> parent = walk_parent(path, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    fs::Result<Fh> victim = step(*parent, leaf);
    if (!victim) return victim.error();
    queue_update(PendingUpdate{.op = Proc::kRemove,
                               .dir = *parent,
                               .name = leaf,
                               .aux_fh = *victim});
    return fs::Status::Ok();
  }

  // Linux looks the victim up (d_delete path) before REMOVE.
  fs::Result<Fh> victim = step(*parent, leaf);
  if (!victim) return victim.error();

  fs::Status out = fs::Status::Ok();
  call(Proc::kRemove, WireSizes::name_arg(leaf), WireSizes::kAttrs,
       [&] { out = server_.remove(*parent, leaf); });
  if (out) {
    forget_dentry(*parent, leaf);
    attrs_.erase(*victim);
    drop_pages(*victim);
    if (config_.version == Version::kV4) do_getattr(*parent);
  }
  return out;
}

fs::Status NfsClient::rmdir(const std::string& path) {
  std::string leaf;
  fs::Result<Fh> parent = walk_parent(path, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    fs::Result<Fh> dv = step(*parent, leaf);
    if (!dv) return dv.error();
    // Emptiness is only decidable locally for a directory we created and
    // never shipped; check for cached or queued children.
    bool has_children = false;
    // netstore-lint: allow(unordered-iter) -- order-free existence scan
    for (const auto& [key, dentry] : dentries_) {
      if (key.dir == *dv) {
        has_children = true;
        break;
      }
    }
    if (is_provisional(*dv) && !has_children) {
      queue_update(PendingUpdate{.op = Proc::kRmdir,
                                 .dir = *parent,
                                 .name = leaf,
                                 .aux_fh = *dv});
      return fs::Status::Ok();
    }
    // Otherwise ship pending updates and let the server decide.
    flush_delegated_updates();
  }

  fs::Result<Fh> victim = step(*parent, leaf);
  if (!victim) return victim.error();

  fs::Status out = fs::Status::Ok();
  call(Proc::kRmdir, WireSizes::name_arg(leaf), WireSizes::kAttrs,
       [&] { out = server_.rmdir(to_real(*parent), leaf); });
  if (out) {
    forget_dentry(*parent, leaf);
    attrs_.erase(*victim);
    access_cache_.erase(*victim);
    if (config_.version == Version::kV4) do_getattr(*parent);
  }
  return out;
}

fs::Status NfsClient::link(const std::string& existing,
                           const std::string& linkpath) {
  // Source resolution (with v4 ACCESS on the source file).
  fs::Result<Fh> src = walk(existing);
  if (!src) return src.error();
  if (config_.version == Version::kV4) v4_ensure_access(*src);

  std::string leaf;
  fs::Result<Fh> parent = walk_parent(linkpath, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
    queue_update(PendingUpdate{.op = Proc::kLink,
                               .dir = *parent,
                               .name = leaf,
                               .aux_fh = *src});
    return fs::Status::Ok();
  }

  if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
  fs::Result<NfsServer::LookupReply> neg = rpc_lookup(*parent, leaf);
  if (neg) return fs::Err::kExist;
  if (neg.error() != fs::Err::kNoEnt) return neg.error();

  fs::Status out = fs::Status::Ok();
  call(Proc::kLink, WireSizes::kFh + WireSizes::name_arg(leaf),
       WireSizes::kAttrs,
       [&] { out = server_.link(*parent, leaf, to_real(*src)); });
  if (!out) return out;
  // Both v2 and v3 refresh the source attributes (nlink changed); v4 also
  // refreshes the directory.
  do_getattr(*src);
  if (out) {
    auto it = attrs_.find(*src);
    remember_dentry(*parent, leaf, *src,
                    it != attrs_.end() ? it->second.attr.type()
                                       : fs::FileType::kRegular);
  }
  if (config_.version == Version::kV4) do_getattr(*parent);
  return out;
}

fs::Status NfsClient::rename(const std::string& from, const std::string& to) {
  std::string sleaf;
  fs::Result<Fh> sdir = walk_parent(from, sleaf);
  if (!sdir) return sdir.error();
  fs::Result<Fh> src = step(*sdir, sleaf);
  if (!src) return src.error();
  if (config_.version == Version::kV4) v4_ensure_access(*src);

  std::string dleaf;
  fs::Result<Fh> ddir = walk_parent(to, dleaf);
  if (!ddir) return ddir.error();

  if (delegated()) {
    queue_update(PendingUpdate{.op = Proc::kRename,
                               .dir = *sdir,
                               .name = sleaf,
                               .aux = dleaf,
                               .aux_fh = *ddir});
    return fs::Status::Ok();
  }

  // Destination negative lookup.
  if (!dentries_.contains(DentryKey{*ddir, dleaf})) {
    fs::Result<NfsServer::LookupReply> neg = rpc_lookup(*ddir, dleaf);
    if (!neg && neg.error() != fs::Err::kNoEnt) return neg.error();
  }

  fs::Status out = fs::Status::Ok();
  call(Proc::kRename, WireSizes::name_arg(sleaf) + WireSizes::name_arg(dleaf),
       WireSizes::kAttrs * 2,
       [&] { out = server_.rename(*sdir, sleaf, *ddir, dleaf); });
  if (out) {
    auto it = dentries_.find(DentryKey{*sdir, sleaf});
    const fs::FileType t =
        it != dentries_.end() ? it->second.type : fs::FileType::kRegular;
    forget_dentry(*sdir, sleaf);
    remember_dentry(*ddir, dleaf, *src, t);
    if (config_.version == Version::kV2) {
      do_getattr(*src);  // v2 lacks post-op attributes (Table 2: 4 vs 3)
    } else if (config_.version == Version::kV4) {
      do_getattr(*sdir);
      do_getattr(*ddir);
    }
  }
  return out;
}

fs::Status NfsClient::truncate(const std::string& path, std::uint64_t size) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (delegated()) materialize(*fh);
  FileState& st = files_[*fh];
  if (config_.version != Version::kV4 && !config_.consistent_metadata_cache) {
    // Pre-op attribute fetch (Table 2: truncate = LOOKUP+GETATTR+SETATTR).
    if (fs::Status s = do_getattr(*fh); !s) return s;
  }

  if (config_.version == Version::kV4) {
    v4_ensure_access(*fh);
    v4_open_sequence(*fh, st, /*with_access=*/false);
  }
  fs::Status out = fs::Status::Ok();
  fs::SetAttr sa;
  sa.size = static_cast<std::int64_t>(size);
  call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
       WireSizes::kAttrs, [&] {
         fs::Result<fs::Attr> a = server_.setattr(to_real(*fh), sa);
         if (!a) {
           out = a.error();
           return;
         }
         remember_attr(*fh, *a);
       });
  drop_pages(*fh);
  if (config_.version == Version::kV4) {
    call(Proc::kClose, WireSizes::kFh + 16, 16, [] {});
  }
  return out;
}

fs::Status NfsClient::chmod(const std::string& path, std::uint16_t perm) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (config_.version == Version::kV4) {
    v4_ensure_access(*fh);
  } else if (!config_.consistent_metadata_cache) {
    if (fs::Status s = do_getattr(*fh); !s) return s;
  }
  if (delegated()) materialize(*fh);

  fs::Status out = fs::Status::Ok();
  fs::SetAttr sa;
  sa.mode = perm;
  call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
       WireSizes::kAttrs, [&] {
         fs::Result<fs::Attr> a = server_.setattr(to_real(*fh), sa);
         if (!a) {
           out = a.error();
           return;
         }
         remember_attr(*fh, *a);
       });
  if (config_.version == Version::kV4) do_getattr(*fh);
  return out;
}

fs::Status NfsClient::chown(const std::string& path, std::uint32_t uid,
                            std::uint32_t gid) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (config_.version == Version::kV4) {
    v4_ensure_access(*fh);
  } else if (!config_.consistent_metadata_cache) {
    if (fs::Status s = do_getattr(*fh); !s) return s;
  }
  if (delegated()) materialize(*fh);

  fs::Status out = fs::Status::Ok();
  fs::SetAttr sa;
  sa.uid = uid;
  sa.gid = gid;
  call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
       WireSizes::kAttrs, [&] {
         fs::Result<fs::Attr> a = server_.setattr(to_real(*fh), sa);
         if (!a) {
           out = a.error();
           return;
         }
         remember_attr(*fh, *a);
       });
  if (config_.version == Version::kV4) do_getattr(*fh);
  return out;
}

fs::Status NfsClient::utime(const std::string& path, sim::Time atime,
                            sim::Time mtime) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (delegated()) materialize(*fh);

  fs::Status out = fs::Status::Ok();
  fs::SetAttr sa;
  sa.atime = atime;
  sa.mtime = mtime;
  call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
       WireSizes::kAttrs, [&] {
         fs::Result<fs::Attr> a = server_.setattr(to_real(*fh), sa);
         if (!a) {
           out = a.error();
           return;
         }
         remember_attr(*fh, *a);
       });
  if (config_.version == Version::kV4) do_getattr(*fh);
  return out;
}

fs::Status NfsClient::access(const std::string& path, int amode) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();

  fs::Status out = fs::Status::Ok();
  if (config_.consistent_metadata_cache && attrs_.contains(*fh)) {
    return out;  // §7: served from the strongly-consistent cache
  }
  if (config_.version == Version::kV4) {
    v4_ensure_access(*fh);
    // Linux v4 re-queries attributes and access rights for access(2).
    do_getattr(*fh);
    call(Proc::kAccess, WireSizes::kFh + 4, 8,
         [&] { out = server_.access(to_real(*fh), amode); });
  } else if (config_.version == Version::kV3) {
    call(Proc::kAccess, WireSizes::kFh + 4, 8,
         [&] { out = server_.access(to_real(*fh), amode); });
  } else {
    out = do_getattr(*fh);  // v2 has no ACCESS; decided from attributes
  }
  return out;
}

fs::Result<fs::Attr> NfsClient::stat(const std::string& path) {
  fs::Result<Fh> fh = walk(path);
  if (!fh) return fh.error();
  if (config_.version == Version::kV4) v4_ensure_access(*fh);

  if (config_.consistent_metadata_cache) {
    auto it = attrs_.find(*fh);
    if (it != attrs_.end()) return it->second.attr;
  }
  // The Linux client revalidates and then fetches attributes to fill
  // struct stat — two GETATTRs (Table 2: stat = LOOKUP + 2 = 3 messages).
  if (fs::Status s = do_getattr(*fh); !s) return s.error();
  if (fs::Status s = do_getattr(*fh); !s) return s.error();
  auto it = attrs_.find(*fh);
  if (it == attrs_.end()) return fs::Err::kStale;
  return it->second.attr;
}

}  // namespace netstore::nfs
