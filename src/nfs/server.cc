#include "nfs/server.h"

namespace netstore::nfs {

void NfsServer::charge(Proc proc, std::uint32_t bytes) {
  requests_.add(1);
  if (cost_hook_) env_.advance(cost_hook_(env_.now(), proc, bytes));
}

void NfsServer::metadata_barrier() {
  if (config_.sync_metadata) fs_.journal().commit(/*wait=*/true);
}

fs::Result<NfsServer::LookupReply> NfsServer::lookup(Fh dir,
                                                     const std::string& name) {
  fs::Result<fs::Ino> ino = fs_.lookup(dir, name);
  if (!ino) return ino.error();
  fs::Result<fs::Attr> attr = fs_.getattr(*ino);
  if (!attr) return attr.error();
  return LookupReply{*ino, *attr};
}

fs::Result<fs::Attr> NfsServer::getattr(Fh fh) { return fs_.getattr(fh); }

fs::Result<fs::Attr> NfsServer::setattr(Fh fh, const fs::SetAttr& sa) {
  if (fs::Status s = fs_.setattr(fh, sa); !s) return s.error();
  metadata_barrier();
  return fs_.getattr(fh);
}

fs::Status NfsServer::access(Fh fh, int amode) { return fs_.access(fh, amode); }

fs::Result<NfsServer::LookupReply> NfsServer::create(Fh dir,
                                                     const std::string& name,
                                                     std::uint16_t perm) {
  fs::Result<fs::Ino> ino = fs_.create(dir, name, perm);
  if (!ino) return ino.error();
  metadata_barrier();
  fs::Result<fs::Attr> attr = fs_.getattr(*ino);
  if (!attr) return attr.error();
  return LookupReply{*ino, *attr};
}

fs::Result<NfsServer::LookupReply> NfsServer::mkdir(Fh dir,
                                                    const std::string& name,
                                                    std::uint16_t perm) {
  fs::Result<fs::Ino> ino = fs_.mkdir(dir, name, perm);
  if (!ino) return ino.error();
  metadata_barrier();
  fs::Result<fs::Attr> attr = fs_.getattr(*ino);
  if (!attr) return attr.error();
  return LookupReply{*ino, *attr};
}

fs::Result<NfsServer::LookupReply> NfsServer::symlink(
    Fh dir, const std::string& name, const std::string& target) {
  fs::Result<fs::Ino> ino = fs_.symlink(dir, name, target);
  if (!ino) return ino.error();
  metadata_barrier();
  fs::Result<fs::Attr> attr = fs_.getattr(*ino);
  if (!attr) return attr.error();
  return LookupReply{*ino, *attr};
}

fs::Status NfsServer::link(Fh dir, const std::string& name, Fh target) {
  fs::Status s = fs_.link(dir, name, target);
  if (s) metadata_barrier();
  return s;
}

fs::Status NfsServer::remove(Fh dir, const std::string& name) {
  fs::Status s = fs_.unlink(dir, name);
  if (s) metadata_barrier();
  return s;
}

fs::Status NfsServer::rmdir(Fh dir, const std::string& name) {
  fs::Status s = fs_.rmdir(dir, name);
  if (s) metadata_barrier();
  return s;
}

fs::Status NfsServer::rename(Fh sdir, const std::string& sname, Fh ddir,
                             const std::string& dname) {
  fs::Status s = fs_.rename(sdir, sname, ddir, dname);
  if (s) metadata_barrier();
  return s;
}

fs::Result<std::vector<fs::DirEntry>> NfsServer::readdir(Fh dir) {
  return fs_.readdir(dir);
}

fs::Result<std::string> NfsServer::readlink(Fh fh) { return fs_.readlink(fh); }

fs::Result<std::uint32_t> NfsServer::read(Fh fh, std::uint64_t off,
                                          std::uint32_t want,
                                          core::IoVec& out) {
  return fs_.read(fh, off, want, out);
}

fs::Result<std::uint32_t> NfsServer::write(Fh fh, std::uint64_t off,
                                           const core::IoVec& in,
                                           bool stable) {
  fs::Result<std::uint32_t> n = fs_.write(fh, off, in);
  if (n && (stable || config_.sync_data)) {
    fs_.fsync(fh);
  }
  return n;
}

fs::Status NfsServer::commit(Fh fh) { return fs_.fsync(fh); }

std::string to_string(Proc p) {
  switch (p) {
    case Proc::kNull: return "NULL";
    case Proc::kGetattr: return "GETATTR";
    case Proc::kSetattr: return "SETATTR";
    case Proc::kLookup: return "LOOKUP";
    case Proc::kAccess: return "ACCESS";
    case Proc::kReadlink: return "READLINK";
    case Proc::kRead: return "READ";
    case Proc::kWrite: return "WRITE";
    case Proc::kCreate: return "CREATE";
    case Proc::kMkdir: return "MKDIR";
    case Proc::kSymlink: return "SYMLINK";
    case Proc::kRemove: return "REMOVE";
    case Proc::kRmdir: return "RMDIR";
    case Proc::kRename: return "RENAME";
    case Proc::kLink: return "LINK";
    case Proc::kReaddir: return "READDIR";
    case Proc::kCommit: return "COMMIT";
    case Proc::kOpen: return "OPEN";
    case Proc::kOpenConfirm: return "OPEN_CONFIRM";
    case Proc::kClose: return "CLOSE";
    case Proc::kDelegReturn: return "DELEGRETURN";
    case Proc::kBatchedUpdate: return "BATCHED_UPDATE";
  }
  return "?";
}

}  // namespace netstore::nfs
