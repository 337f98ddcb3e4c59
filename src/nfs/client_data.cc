// NfsClient data path: open/creat/close, read with read-ahead, the bounded
// asynchronous write pool, and close-to-open consistency.
#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "core/iovec.h"
#include "nfs/client.h"

namespace netstore::nfs {

using block::kBlockSize;

// ---------------------------------------------------------------------------
// Client page cache
// ---------------------------------------------------------------------------

void NfsClient::install_slices(Fh fh, std::uint64_t first, std::uint32_t count,
                               const core::IoVec& iov, sim::Time ready_at) {
  std::uint64_t p = first;
  for (const core::BufSlice& s : iov) {
    if (s.off == 0 && s.len == kBlockSize) {
      // Whole server frame: the client cache shares it across the
      // (simulated) wire; copy-on-write isolates later mutation.
      pages_.insert_clean(fh, p, 0, s.buf, ready_at);
    } else {
      // EOF tail: sub-block slice staged into a zero-filled frame so the
      // page's tail reads as zeros.
      core::BufRef frame = core::BufferPool::instance().alloc();
      frame.mutable_block().fill(0);
      // sub-block EOF tail, not a user boundary
      // netstore-lint: allow(raw-datapath-memcpy)
      std::memcpy(frame.mutable_data() + s.off, s.data(), s.len);
      pages_.insert_clean(fh, p, 0, std::move(frame), ready_at);
    }
    p++;
  }
  // Pages requested past EOF come back empty; they read as zeros.
  for (; p < first + count; ++p) {
    pages_.insert_clean(fh, p, 0, core::BufferPool::instance().zero_page(),
                        ready_at);
  }
}

core::BufRef& NfsClient::page_for_write(Fh fh, std::uint64_t index) {
  core::BufRef* page = pages_.page(fh, index);
  if (page == nullptr) {
    pages_.insert_clean(fh, index, 0, core::BufferPool::instance().zero_page(),
                        env_.now());
    page = pages_.page(fh, index);
  }
  return *page;
}

// ---------------------------------------------------------------------------
// open / creat / close
// ---------------------------------------------------------------------------

void NfsClient::v4_open_sequence(Fh fh, FileState& st, bool with_access) {
  // OPEN (+ one-time OPEN_CONFIRM) + GETATTR (+ ACCESS on the file).
  call(Proc::kOpen, WireSizes::kFh + 32, WireSizes::kFh + WireSizes::kAttrs,
       [&] {
         if (config_.consistent_metadata_cache) st.read_delegation = true;
       });
  if (!st.open_confirmed) {
    call(Proc::kOpenConfirm, WireSizes::kFh + 8, 8, [] {});
    st.open_confirmed = true;
  }
  do_getattr(fh);
  if (with_access) {
    call(Proc::kAccess, WireSizes::kFh + 4, 8,
         [&] { (void)server_.access(to_real(fh), fs::kAccessRead); });
    access_cache_[fh] = env_.now();
  }
}

fs::Result<Fh> NfsClient::creat(const std::string& path, std::uint16_t perm) {
  std::string leaf;
  fs::Result<Fh> parent = walk_parent(path, leaf);
  if (!parent) return parent.error();

  if (delegated()) {
    if (dentries_.contains(DentryKey{*parent, leaf})) return fs::Err::kExist;
    PendingUpdate u{.op = Proc::kCreate,
                    .dir = *parent,
                    .name = leaf,
                    .perm = perm};
    queue_update(u);
    auto it = dentries_.find(DentryKey{*parent, leaf});
    return it->second.fh;
  }

  // Negative lookup first (unless locally known).
  if (!dentries_.contains(DentryKey{*parent, leaf})) {
    fs::Result<NfsServer::LookupReply> neg = rpc_lookup(*parent, leaf);
    if (neg) {
      // Exists: creat truncates it.
      if (fs::Status s = truncate(path, 0); !s) return s.error();
      return neg->fh;
    }
    if (neg.error() != fs::Err::kNoEnt) return neg.error();
  }

  Fh created = 0;
  fs::Status err = fs::Status::Ok();
  if (config_.version == Version::kV4) {
    // The stateful v4 creat storm (Table 2: 10 messages with the final
    // CLOSE issued by the benchmark's close()).
    call(Proc::kOpen, WireSizes::name_arg(leaf) + 32,
         WireSizes::kFh + WireSizes::kAttrs, [&] {
           fs::Result<NfsServer::LookupReply> r =
               server_.create(*parent, leaf, perm);
           if (!r) {
             err = r.error();
             return;
           }
           created = r->fh;
           remember_dentry(*parent, leaf, r->fh, fs::FileType::kRegular);
           remember_attr(r->fh, r->attr);
         });
    if (!err) return err.error();
    FileState& st = files_[created];
    if (!st.open_confirmed) {
      call(Proc::kOpenConfirm, WireSizes::kFh + 8, 8, [] {});
      st.open_confirmed = true;
    }
    do_getattr(created);
    call(Proc::kAccess, WireSizes::kFh + 4, 8,
         [&] { (void)server_.access(created, fs::kAccessRead); });
    access_cache_[created] = env_.now();
    fs::SetAttr sa;
    sa.mode = perm;
    call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
         WireSizes::kAttrs, [&] { (void)server_.setattr(created, sa); });
    do_getattr(created);
    do_getattr(*parent);
    return created;
  }

  // v2/v3: CREATE + SETATTR (mode/truncate fix-up the Linux client sends).
  call(Proc::kCreate, WireSizes::name_arg(leaf) + WireSizes::kSetAttrs,
       WireSizes::kFh + WireSizes::kAttrs, [&] {
         fs::Result<NfsServer::LookupReply> r =
             server_.create(*parent, leaf, perm);
         if (!r) {
           err = r.error();
           return;
         }
         created = r->fh;
         remember_dentry(*parent, leaf, r->fh, fs::FileType::kRegular);
         remember_attr(r->fh, r->attr);
       });
  if (!err) return err.error();
  fs::SetAttr sa;
  sa.mode = perm;
  call(Proc::kSetattr, WireSizes::kFh + WireSizes::kSetAttrs,
       WireSizes::kAttrs, [&] { (void)server_.setattr(created, sa); });
  return created;
}

fs::Result<Fh> NfsClient::open(const std::string& path) {
  bool cached = false;
  fs::Result<Fh> fh = walk(path, &cached);
  if (!fh) return fh.error();
  if (delegated() && is_provisional(*fh)) {
    materialize(*fh);
    *fh = to_real(*fh);
  }
  FileState& st = files_[*fh];

  if (config_.version == Version::kV4) {
    if (st.read_delegation) {
      // A held delegation covers the open: no server interaction.
      return *fh;
    }
    v4_ensure_access(*fh);
    v4_open_sequence(*fh, st, /*with_access=*/false);
    return *fh;
  }
  if (config_.consistent_metadata_cache) return *fh;
  // Close-to-open consistency: GETATTR on every open.
  if (fs::Status s = do_getattr(*fh); !s) return s.error();
  auto it = attrs_.find(*fh);
  if (it != attrs_.end()) {
    if (st.known_mtime >= 0 && it->second.attr.mtime != st.known_mtime) {
      pages_.drop_inode(*fh);
    }
    st.known_mtime = it->second.attr.mtime;
    st.last_reval = env_.now();
  }
  return *fh;
}

fs::Status NfsClient::close(Fh fh) {
  if (delegated() && is_provisional(fh)) {
    // The server never saw this open; nothing to close or commit.
    return fs::Status::Ok();
  }
  FileState& st = files_[fh];
  if (st.needs_commit) {
    write_pool_.drain(env_);
    if (config_.version != Version::kV2) {
      call(Proc::kCommit, WireSizes::kFh + 16, WireSizes::kAttrs,
           [&] { (void)server_.commit(to_real(fh)); });
    }
    st.needs_commit = false;
  }
  if (config_.version == Version::kV4) {
    if (st.read_delegation) {
      // The delegation outlives the open; nothing to tell the server.
      return fs::Status::Ok();
    }
    call(Proc::kClose, WireSizes::kFh + 16, 16, [] {});
  }
  return fs::Status::Ok();
}

fs::Status NfsClient::fsync(Fh fh) {
  if (delegated() && is_provisional(fh)) {
    materialize(fh);
    fh = to_real(fh);
  }
  FileState& st = files_[fh];
  write_pool_.drain(env_);
  if (config_.version != Version::kV2 && st.needs_commit) {
    call(Proc::kCommit, WireSizes::kFh + 16, WireSizes::kAttrs,
         [&] { (void)server_.commit(to_real(fh)); });
    st.needs_commit = false;
  }
  return fs::Status::Ok();
}

// ---------------------------------------------------------------------------
// read
// ---------------------------------------------------------------------------

fs::Status NfsClient::revalidate_data(Fh fh, FileState& st) {
  // The strongly-consistent cache (and the read delegation it brings)
  // needs no revalidation.
  if (config_.consistent_metadata_cache) return fs::Status::Ok();
  const sim::Duration window = config_.attr_timeout;
  if (st.last_reval >= 0 && env_.now() - st.last_reval < window) {
    return fs::Status::Ok();
  }
  if (fs::Status s = do_getattr(fh); !s) {
    if (s.error() == fs::Err::kStale) {
      attrs_.erase(fh);
      pages_.drop_inode(fh);
    }
    return s;
  }
  st.last_reval = env_.now();
  auto it = attrs_.find(fh);
  if (it == attrs_.end()) return fs::Err::kStale;
  if (st.known_mtime >= 0 && it->second.attr.mtime != st.known_mtime) {
    pages_.drop_inode(fh);  // another client's write would be visible here
  }
  st.known_mtime = it->second.attr.mtime;
  return fs::Status::Ok();
}

fs::Status NfsClient::fetch_range(Fh fh, std::uint64_t off,
                                  std::uint32_t count) {
  // One READ RPC; fills whole pages.
  const std::uint64_t first = off / kBlockSize;
  const std::uint64_t end_off = off + count;
  const std::uint64_t pages = (end_off - first * kBlockSize + kBlockSize - 1) /
                              kBlockSize;
  // The reply payload is shared slices of the server's page-cache frames;
  // the client adopts them instead of staging a wire buffer.
  fs::Status out = fs::Status::Ok();
  core::IoVec iov;
  call(Proc::kRead, WireSizes::kFh + 16, count + 8, [&] {
    fs::Result<std::uint32_t> n =
        server_.read(to_real(fh), first * kBlockSize,
                     static_cast<std::uint32_t>(pages * kBlockSize), iov);
    if (!n) out = n.error();
  });
  if (!out) return out;
  install_slices(fh, first, static_cast<std::uint32_t>(pages), iov,
                 env_.now());
  return out;
}

void NfsClient::do_readahead(Fh fh, FileState& st, std::uint64_t index,
                             std::uint64_t eof_page,
                             std::uint32_t chunk_pages) {
  if (index == st.last_read_page) return;
  if (index == st.last_read_page + 1) {
    st.streak++;
  } else {
    st.streak = 1;
  }
  st.last_read_page = index;
  if (st.streak < 2 || config_.readahead_pages == 0) return;

  // Read ahead in units matching the application's request granularity
  // (each RPC capped by the transfer limit): a 4 KB-at-a-time reader
  // generates 4 KB READ RPCs with a shallow window; a large sequential
  // reader streams a deeper pipeline of rsize chunks.
  const std::uint32_t unit = std::max<std::uint32_t>(
      1, std::min(chunk_pages, transfer_limit(config_.version) / kBlockSize));
  std::uint64_t j = index + 1;
  const std::uint64_t limit = std::min(
      index + static_cast<std::uint64_t>(config_.readahead_pages) *
                  std::max(chunk_pages, 1u),
      eof_page);
  while (j <= limit) {
    if (pages_.contains(fh, j)) {
      j++;
      continue;
    }
    const auto count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(unit, limit - j + 1));
    const std::uint64_t at = j;
    core::IoVec iov;
    const sim::Time ready = call_async(
        Proc::kRead, WireSizes::kFh + 16, count * kBlockSize + 8, [&] {
          (void)server_.read(to_real(fh), at * kBlockSize, count * kBlockSize,
                             iov);
        });
    install_slices(fh, j, count, iov, ready);
    j += count;
  }
}

fs::Result<std::uint32_t> NfsClient::read(Fh fh, std::uint64_t off,
                                          std::span<std::uint8_t> out) {
  if (delegated() && is_provisional(fh)) {
    return read_local(fh, off, out);
  }
  FileState& st = files_[fh];
  if (fs::Status s = revalidate_data(fh, st); !s) return s.error();

  auto it = attrs_.find(fh);
  const std::uint64_t size = it != attrs_.end() ? it->second.attr.size : 0;
  if (off >= size) return 0u;
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(out.size(), size - off));
  const std::uint64_t eof_page = size == 0 ? 0 : (size - 1) / kBlockSize;

  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t index = pos / kBlockSize;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t len =
        std::min<std::uint32_t>(n - done, kBlockSize - page_off);

    // A hit waits out a read-ahead still in flight.
    const core::BufRef* page = pages_.find(fh, index);
    if (!page) {
      // Demand fetch: the requested range, capped by the transfer limit.
      const std::uint32_t want = std::min<std::uint32_t>(
          n - done, transfer_limit(config_.version));
      if (fs::Status s = fetch_range(fh, pos, std::max(want, len)); !s) {
        return s.error();
      }
      page = pages_.find(fh, index);
      NETSTORE_CHECK(page, "page vanished after fetch_range");
    }
    // The client's user-buffer boundary: the only payload copy on the
    // whole NFS read path.
    core::copy_out(out.data() + done, page->data() + page_off, len);
    done += len;
    do_readahead(fh, st, index, eof_page,
                 std::max<std::uint32_t>(1, n / kBlockSize));
  }
  return n;
}

// ---------------------------------------------------------------------------
// write
// ---------------------------------------------------------------------------

fs::Result<std::uint32_t> NfsClient::write(Fh fh, std::uint64_t off,
                                           std::span<const std::uint8_t> in) {
  if (delegated() && is_provisional(fh)) {
    // §7 delegation, extended to data: writes into a file that only
    // exists locally stay local — they ship with the create (or never,
    // if the file is deleted first).
    return write_local(fh, off, in);
  }
  const Fh real = fh;
  FileState& st = files_[fh];

  auto ait = attrs_.find(fh);
  const std::uint64_t old_size =
      ait != attrs_.end() ? ait->second.attr.size : 0;

  const auto n = static_cast<std::uint32_t>(in.size());
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t index = pos / kBlockSize;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    // Chunk: up to the write transfer limit, page-aligned at the end.
    const std::uint32_t chunk = std::min<std::uint32_t>(
        n - done, transfer_limit(config_.version) - page_off % kBlockSize);

    // Keep the client cache coherent with what we send.  A partial
    // overwrite of an uncached page inside the file needs the old data.
    const bool partial_head = page_off != 0 || chunk < kBlockSize;
    if (partial_head && pos < old_size && !pages_.contains(fh, index)) {
      if (fs::Status s = fetch_range(fh, index * kBlockSize, kBlockSize); !s) {
        return s.error();
      }
    }
    // Update cached pages covered by this chunk.  The copy_in below is
    // the client's user-buffer boundary: the WRITE RPC then ships slices
    // of these same pages, so no further payload copy happens anywhere
    // down the stack.
    core::IoVec iov;
    std::uint64_t p = index;
    std::uint32_t copied = 0;
    while (copied < chunk) {
      const auto in_page_off =
          static_cast<std::uint32_t>((pos + copied) % kBlockSize);
      const std::uint32_t len =
          std::min<std::uint32_t>(chunk - copied, kBlockSize - in_page_off);
      core::BufRef& page = page_for_write(fh, p);
      core::copy_in(page.mutable_data() + in_page_off,
                    in.data() + done + copied, len);
      iov.push_back(core::BufSlice{page, in_page_off, len});
      copied += len;
      p++;
    }

    // The WRITE RPC itself: the payload is shared slices of the client
    // pages just updated; the server adopts whole blocks.
    if (config_.version == Version::kV2) {
      // v2: every write is synchronous and stable.
      fs::Status out = fs::Status::Ok();
      call(Proc::kWrite, WireSizes::kFh + 16 + chunk, WireSizes::kAttrs, [&] {
        fs::Result<std::uint32_t> r =
            server_.write(real, pos, iov, /*stable=*/true);
        if (!r) out = r.error();
      });
      if (!out) return out.error();
    } else {
      // With the pool full the application blocks until the earliest
      // outstanding WRITE completes: pseudo-synchronous behaviour.
      write_pool_.reserve(env_, config_.write_pool_slots);
      const std::uint64_t wpos = pos;
      const sim::Time completion = call_async(
          Proc::kWrite, WireSizes::kFh + 16 + chunk, WireSizes::kAttrs, [&] {
            (void)server_.write(real, wpos, iov, /*stable=*/false);
          });
      write_pool_.add(completion);
      st.needs_commit = true;
    }
    done += chunk;
  }

  // Local attribute update (size/mtime), as the write reply's post-op
  // attributes would provide.
  if (ait == attrs_.end()) {
    fs::Attr a;
    a.ino = fh;
    a.mode = fs::make_mode(fs::FileType::kRegular, 0644);
    remember_attr(fh, a);
    ait = attrs_.find(fh);
  }
  ait->second.attr.size = std::max(ait->second.attr.size, off + n);
  ait->second.attr.mtime = env_.now();
  st.known_mtime = ait->second.attr.mtime;
  return n;
}

fs::Result<std::uint32_t> NfsClient::write_local(
    Fh fh, std::uint64_t off, std::span<const std::uint8_t> in) {
  const auto n = static_cast<std::uint32_t>(in.size());
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t index = pos / kBlockSize;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t len =
        std::min<std::uint32_t>(n - done, kBlockSize - page_off);
    // User-buffer boundary for delegated (local-only) writes.
    core::copy_in(page_for_write(fh, index).mutable_data() + page_off,
                  in.data() + done, len);
    done += len;
  }
  auto it = attrs_.find(fh);
  if (it != attrs_.end()) {
    it->second.attr.size = std::max(it->second.attr.size, off + n);
    it->second.attr.mtime = env_.now();
  }
  return n;
}

fs::Result<std::uint32_t> NfsClient::read_local(Fh fh, std::uint64_t off,
                                                std::span<std::uint8_t> out) {
  auto it = attrs_.find(fh);
  const std::uint64_t size = it != attrs_.end() ? it->second.attr.size : 0;
  if (off >= size) return 0u;
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(out.size(), size - off));
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t index = pos / kBlockSize;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t len =
        std::min<std::uint32_t>(n - done, kBlockSize - page_off);
    if (const core::BufRef* page = pages_.page(fh, index)) {
      // User-buffer boundary for delegated (local-only) reads.
      core::copy_out(out.data() + done, page->data() + page_off, len);
    } else {
      std::memset(out.data() + done, 0, len);  // sparse hole
    }
    done += len;
  }
  return n;
}

}  // namespace netstore::nfs
