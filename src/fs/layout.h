// On-disk layout of the netstore ext3-like file system.
//
// The layout follows ext2/3's structure at 4 KB block size:
//
//   block 0                superblock
//   block 1                group descriptor table (one block, <=128 groups)
//   blocks 2 .. 2+J-1      journal region (J = sb.journal_blocks)
//   groups of 32768 blocks, each holding (at LBAs recorded in its group
//   descriptor): block bitmap (1), inode bitmap (1), inode table
//   (inodes_per_group * 128 B), then data blocks.
//
// Group 0's metadata is placed after the journal region by mkfs.  Every
// structure serializes to real bytes on the block device, so mount, crash
// recovery and journal replay read what was actually written.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "block/block.h"
#include "core/buffer_pool.h"
#include "fs/types.h"

namespace netstore::fs {

constexpr std::uint32_t kSuperMagic = 0x4E53'4653;  // "NSFS"
constexpr std::uint32_t kBlocksPerGroup = 32768;
constexpr std::uint32_t kInodeSize = 128;
constexpr std::uint32_t kInodesPerBlock = block::kBlockSize / kInodeSize;  // 32
constexpr std::uint32_t kDirectBlocks = 12;
constexpr std::uint32_t kPtrsPerBlock = block::kBlockSize / 4;  // 1024
constexpr std::uint32_t kMaxNameLen = 255;
constexpr std::uint32_t kFastSymlinkMax = 48;  // fits in the pointer area
constexpr std::uint16_t kMaxLinks = 32000;

/// Superblock (block 0).
struct SuperBlock {
  std::uint32_t magic = kSuperMagic;
  std::uint64_t total_blocks = 0;
  std::uint32_t group_count = 0;
  std::uint32_t inodes_per_group = 0;
  std::uint64_t journal_start = 2;
  std::uint32_t journal_blocks = 0;
  std::uint64_t journal_sequence = 1;  // sequence of the first live txn
  std::uint32_t journal_tail = 0;      // journal offset of the first live txn
  std::uint8_t clean = 1;              // 0 after mount, 1 after unmount

  void encode(block::MutBlockView out) const;
  /// encode() into a fresh pool frame, ready to hand to a block device.
  [[nodiscard]] core::BufRef encode_frame() const;
  static SuperBlock decode(block::BlockView in);
};

/// Group descriptor (32 bytes each, packed into block 1).
struct GroupDesc {
  std::uint64_t block_bitmap = 0;
  std::uint64_t inode_bitmap = 0;
  std::uint64_t inode_table = 0;
  std::uint32_t free_blocks = 0;
  std::uint32_t free_inodes = 0;

  static constexpr std::uint32_t kEncodedSize = 32;
  void encode(std::uint8_t* out) const;
  static GroupDesc decode(const std::uint8_t* in);
};

/// On-disk inode (128 bytes).
struct RawInode {
  std::uint16_t mode = 0;
  std::uint16_t nlink = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint32_t nblocks = 0;
  std::int64_t atime = 0;
  std::int64_t mtime = 0;
  std::int64_t ctime = 0;
  std::uint32_t direct[kDirectBlocks] = {};
  std::uint32_t indirect = 0;
  std::uint32_t dindirect = 0;
  // Fast symlinks store the target inline over the pointer area; the
  // inode carries it here for simplicity (same bytes on disk).
  char symlink_target[kFastSymlinkMax + 8] = {};

  void encode(std::uint8_t* out) const;           // writes kInodeSize bytes
  static RawInode decode(const std::uint8_t* in);  // reads kInodeSize bytes

  [[nodiscard]] bool is_fast_symlink() const {
    return type_of_mode(mode) == FileType::kSymlink &&
           size <= kFastSymlinkMax;
  }
};

/// Directory entry header on disk (ext2 format): ino(4) rec_len(2)
/// name_len(1) type(1) name(name_len), rec_len 4-byte aligned.
struct RawDirent {
  std::uint32_t ino;
  std::uint16_t rec_len;
  std::uint8_t name_len;
  std::uint8_t type;

  static constexpr std::uint32_t kHeaderSize = 8;

  [[nodiscard]] static std::uint16_t size_for_name(std::uint32_t name_len) {
    return static_cast<std::uint16_t>((kHeaderSize + name_len + 3) & ~3u);
  }
};

/// Journal block tags.
constexpr std::uint32_t kJournalDescriptorMagic = 0x4A44'4553;  // "JDES"
constexpr std::uint32_t kJournalCommitMagic = 0x4A43'4F4D;      // "JCOM"

/// Journal descriptor block: magic, sequence, count, then `count` target
/// LBAs (u64 each).
struct JournalDescriptor {
  std::uint64_t sequence = 0;
  std::uint32_t count = 0;
  static constexpr std::uint32_t kMaxTags =
      (block::kBlockSize - 16) / 8;  // 510 logged blocks per descriptor

  void encode(block::MutBlockView out, const std::uint64_t* lbas) const;
  /// Returns false when `in` is not a descriptor block.
  static bool decode(block::BlockView in, JournalDescriptor& out,
                     std::uint64_t* lbas);
};

/// Journal revoke block (JBD-style): freed metadata blocks whose earlier
/// journal copies must not be replayed (they may have been reallocated as
/// data).  A revoke in transaction N suppresses replay of the block in
/// every transaction with sequence <= N.
struct JournalRevoke {
  std::uint64_t sequence = 0;
  std::uint32_t count = 0;
  static constexpr std::uint32_t kMaxTags = (block::kBlockSize - 16) / 8;

  void encode(block::MutBlockView out, const std::uint64_t* lbas) const;
  static bool decode(block::BlockView in, JournalRevoke& out,
                     std::uint64_t* lbas);
};

constexpr std::uint32_t kJournalRevokeMagic = 0x4A52'4556;  // "JREV"

/// Journal commit block: magic + sequence.
struct JournalCommit {
  std::uint64_t sequence = 0;

  void encode(block::MutBlockView out) const;
  static bool decode(block::BlockView in, JournalCommit& out);
};

}  // namespace netstore::fs
