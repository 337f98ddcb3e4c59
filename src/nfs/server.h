// NFS server: exports an Ext3Fs over RPC (Figure 1(a) / Figure 2(a)).
//
// The file system — and therefore the file-system cache — lives here, on
// the server, which is the structural difference from the iSCSI setup the
// paper dissects.  Metadata mutations are made durable before the reply
// (synchronous meta-data updates, the NFS property the paper contrasts
// with ext3-over-iSCSI's write-back journaling); v3+ data writes may be
// UNSTABLE, deferred until COMMIT.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/iovec.h"
#include "fs/ext3.h"
#include "nfs/proto.h"
#include "sim/env.h"
#include "sim/stats.h"

namespace netstore::nfs {

/// Charged per request at the server (network + RPC + nfsd + VFS + FS +
/// block layers; the paper measures this path at ~2x the iSCSI path).
using ServerCostHook =
    std::function<sim::Duration(sim::Time at, Proc proc, std::uint32_t bytes)>;

struct ServerConfig {
  // Make directory-mutating operations durable before replying (knfsd
  // default; "sync" export).
  bool sync_metadata = true;
  // v2 semantics: data writes also synchronous.
  bool sync_data = false;
};

class NfsServer {
 public:
  NfsServer(sim::Env& env, fs::Ext3Fs& fs, ServerConfig config)
      : env_(env), fs_(fs), config_(config) {}

  [[nodiscard]] Fh root() const { return fs::kRootIno; }
  [[nodiscard]] fs::Ext3Fs& fs() { return fs_; }

  /// Charges the per-request CPU cost (advancing the clock) and bumps the
  /// request counter.  Clients call this at the head of each ServerWork.
  void charge(Proc proc, std::uint32_t bytes);

  void set_cost_hook(ServerCostHook hook) { cost_hook_ = std::move(hook); }

  // --- procedures (executed inside the client's RPC ServerWork) ---
  struct LookupReply {
    Fh fh;
    fs::Attr attr;
  };
  fs::Result<LookupReply> lookup(Fh dir, const std::string& name);
  fs::Result<fs::Attr> getattr(Fh fh);
  fs::Result<fs::Attr> setattr(Fh fh, const fs::SetAttr& sa);
  fs::Status access(Fh fh, int amode);
  fs::Result<LookupReply> create(Fh dir, const std::string& name,
                                 std::uint16_t perm);
  fs::Result<LookupReply> mkdir(Fh dir, const std::string& name,
                                std::uint16_t perm);
  fs::Result<LookupReply> symlink(Fh dir, const std::string& name,
                                  const std::string& target);
  fs::Status link(Fh dir, const std::string& name, Fh target);
  fs::Status remove(Fh dir, const std::string& name);
  fs::Status rmdir(Fh dir, const std::string& name);
  fs::Status rename(Fh sdir, const std::string& sname, Fh ddir,
                    const std::string& dname);
  fs::Result<std::vector<fs::DirEntry>> readdir(Fh dir);
  fs::Result<std::string> readlink(Fh fh);
  /// READ: the reply payload is shared slices of the server's page-cache
  /// frames, which the client adopts instead of copying a wire buffer.
  fs::Result<std::uint32_t> read(Fh fh, std::uint64_t off, std::uint32_t want,
                                 core::IoVec& out);
  /// WRITE: the payload arrives as pooled-frame slices (the client's
  /// cached pages); whole blocks are adopted by the server's page cache.
  /// `stable` forces data + metadata durable before returning (v2, or v3
  /// FILE_SYNC).
  fs::Result<std::uint32_t> write(Fh fh, std::uint64_t off,
                                  const core::IoVec& in, bool stable);
  fs::Status commit(Fh fh);

  [[nodiscard]] std::uint64_t requests() const { return requests_.value(); }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] sim::Counter& requests_counter() { return requests_; }

 private:
  /// Journal barrier after a metadata mutation when sync_metadata.
  void metadata_barrier();

  sim::Env& env_;
  fs::Ext3Fs& fs_;
  ServerConfig config_;
  ServerCostHook cost_hook_;
  sim::Counter requests_;
};

}  // namespace netstore::nfs
