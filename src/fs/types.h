// Common file-system types: error codes, results, attributes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace netstore::fs {

/// Inode number.  0 is invalid; 1 is the root directory.
using Ino = std::uint64_t;
constexpr Ino kInvalidIno = 0;
constexpr Ino kRootIno = 1;

/// errno-style error codes shared by the FS, VFS and NFS layers.
enum class Err {
  kOk = 0,
  kNoEnt,        // ENOENT
  kExist,        // EEXIST
  kNotDir,       // ENOTDIR
  kIsDir,        // EISDIR
  kNotEmpty,     // ENOTEMPTY
  kAccess,       // EACCES
  kPerm,         // EPERM
  kNoSpace,      // ENOSPC
  kNameTooLong,  // ENAMETOOLONG
  kInval,        // EINVAL
  kIo,           // EIO
  kFBig,         // EFBIG
  kStale,        // ESTALE (NFS: file handle no longer valid)
  kXDev,         // EXDEV
  kMLink,        // EMLINK
};

[[nodiscard]] std::string to_string(Err e);

/// Splits an absolute path into components ("/a//b/" -> {"a", "b"}).
[[nodiscard]] std::vector<std::string> split_path(const std::string& path);

/// Minimal expected-like result carrier (C++20; std::expected is C++23).
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Err e) : v_(e) {}                   // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] Err error() const {
    return ok() ? Err::kOk : std::get<Err>(v_);
  }
  [[nodiscard]] T& value() { return std::get<T>(v_); }
  [[nodiscard]] const T& value() const { return std::get<T>(v_); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T& operator*() { return value(); }
  [[nodiscard]] const T& operator*() const { return value(); }

 private:
  std::variant<T, Err> v_;
};

/// Result specialization for operations with no payload.
class Status {
 public:
  Status() : e_(Err::kOk) {}
  Status(Err e) : e_(e) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return e_ == Err::kOk; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] Err error() const { return e_; }

  static Status Ok() { return Status(); }

 private:
  Err e_;
};

enum class FileType : std::uint8_t {
  kUnknown = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

/// Permission bits (POSIX subset).
constexpr std::uint16_t kModeTypeMask = 0xF000;
constexpr std::uint16_t kModeRegular = 0x8000;
constexpr std::uint16_t kModeDirectory = 0x4000;
constexpr std::uint16_t kModeSymlink = 0xA000;
constexpr std::uint16_t kPermMask = 0x0FFF;

constexpr std::uint16_t make_mode(FileType t, std::uint16_t perm) {
  switch (t) {
    case FileType::kRegular:
      return kModeRegular | (perm & kPermMask);
    case FileType::kDirectory:
      return kModeDirectory | (perm & kPermMask);
    case FileType::kSymlink:
      return kModeSymlink | (perm & kPermMask);
    default:
      return perm & kPermMask;
  }
}

constexpr FileType type_of_mode(std::uint16_t mode) {
  switch (mode & kModeTypeMask) {
    case kModeRegular:
      return FileType::kRegular;
    case kModeDirectory:
      return FileType::kDirectory;
    case kModeSymlink:
      return FileType::kSymlink;
    default:
      return FileType::kUnknown;
  }
}

/// stat(2)-style attributes.
struct Attr {
  Ino ino = kInvalidIno;
  std::uint16_t mode = 0;
  std::uint16_t nlink = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint32_t nblocks = 0;  // data blocks allocated
  sim::Time atime = 0;
  sim::Time mtime = 0;
  sim::Time ctime = 0;

  [[nodiscard]] FileType type() const { return type_of_mode(mode); }
};

/// setattr(2)-style partial update; unset fields are untouched.
struct SetAttr {
  std::int32_t mode = -1;      // new permission bits, or -1
  std::int64_t uid = -1;
  std::int64_t gid = -1;
  std::int64_t size = -1;      // truncate target, or -1
  sim::Time atime = -1;
  sim::Time mtime = -1;
};

/// One readdir entry.
struct DirEntry {
  Ino ino;
  FileType type;
  std::string name;
};

/// access(2) probe bits.
constexpr int kAccessRead = 4;
constexpr int kAccessWrite = 2;
constexpr int kAccessExec = 1;
constexpr int kAccessExists = 0;

}  // namespace netstore::fs
