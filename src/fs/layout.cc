#include "fs/layout.h"

#include "core/check.h"

namespace netstore::fs {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
void put_i64(std::uint8_t* p, std::int64_t v) { std::memcpy(p, &v, 8); }

std::uint16_t get_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
std::int64_t get_i64(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

void SuperBlock::encode(block::MutBlockView out) const {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  std::uint8_t* p = out.data();
  put_u32(p + 0, magic);
  put_u64(p + 8, total_blocks);
  put_u32(p + 16, group_count);
  put_u32(p + 20, inodes_per_group);
  put_u64(p + 24, journal_start);
  put_u32(p + 32, journal_blocks);
  put_u64(p + 40, journal_sequence);
  put_u32(p + 48, journal_tail);
  out[52] = clean;
}

core::BufRef SuperBlock::encode_frame() const {
  core::BufRef frame = core::BufferPool::instance().alloc();
  encode(frame.mutable_view());
  return frame;
}

SuperBlock SuperBlock::decode(block::BlockView in) {
  SuperBlock sb;
  const std::uint8_t* p = in.data();
  sb.magic = get_u32(p + 0);
  sb.total_blocks = get_u64(p + 8);
  sb.group_count = get_u32(p + 16);
  sb.inodes_per_group = get_u32(p + 20);
  sb.journal_start = get_u64(p + 24);
  sb.journal_blocks = get_u32(p + 32);
  sb.journal_sequence = get_u64(p + 40);
  sb.journal_tail = get_u32(p + 48);
  sb.clean = in[52];
  return sb;
}

void GroupDesc::encode(std::uint8_t* out) const {
  put_u64(out + 0, block_bitmap);
  put_u64(out + 8, inode_bitmap);
  put_u64(out + 16, inode_table);
  put_u32(out + 24, free_blocks);
  put_u32(out + 28, free_inodes);
}

GroupDesc GroupDesc::decode(const std::uint8_t* in) {
  GroupDesc gd;
  gd.block_bitmap = get_u64(in + 0);
  gd.inode_bitmap = get_u64(in + 8);
  gd.inode_table = get_u64(in + 16);
  gd.free_blocks = get_u32(in + 24);
  gd.free_inodes = get_u32(in + 28);
  return gd;
}

void RawInode::encode(std::uint8_t* out) const {
  std::memset(out, 0, kInodeSize);
  put_u16(out + 0, mode);
  put_u16(out + 2, nlink);
  put_u32(out + 4, uid);
  put_u32(out + 8, gid);
  put_u64(out + 12, size);
  put_u32(out + 20, nblocks);
  put_i64(out + 24, atime);
  put_i64(out + 32, mtime);
  put_i64(out + 40, ctime);
  if (is_fast_symlink()) {
    std::memcpy(out + 48, symlink_target, sizeof(symlink_target));
  } else {
    for (std::uint32_t i = 0; i < kDirectBlocks; ++i) {
      put_u32(out + 48 + i * 4, direct[i]);
    }
    put_u32(out + 48 + kDirectBlocks * 4, indirect);
    put_u32(out + 48 + kDirectBlocks * 4 + 4, dindirect);
  }
}

RawInode RawInode::decode(const std::uint8_t* in) {
  RawInode ri;
  ri.mode = get_u16(in + 0);
  ri.nlink = get_u16(in + 2);
  ri.uid = get_u32(in + 4);
  ri.gid = get_u32(in + 8);
  ri.size = get_u64(in + 12);
  ri.nblocks = get_u32(in + 20);
  ri.atime = get_i64(in + 24);
  ri.mtime = get_i64(in + 32);
  ri.ctime = get_i64(in + 40);
  if (ri.is_fast_symlink()) {
    std::memcpy(ri.symlink_target, in + 48, sizeof(ri.symlink_target));
  } else {
    for (std::uint32_t i = 0; i < kDirectBlocks; ++i) {
      ri.direct[i] = get_u32(in + 48 + i * 4);
    }
    ri.indirect = get_u32(in + 48 + kDirectBlocks * 4);
    ri.dindirect = get_u32(in + 48 + kDirectBlocks * 4 + 4);
  }
  return ri;
}

void JournalDescriptor::encode(block::MutBlockView out,
                               const std::uint64_t* lbas) const {
  NETSTORE_CHECK_LE(count, kMaxTags);
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  put_u32(out.data(), kJournalDescriptorMagic);
  put_u64(out.data() + 4, sequence);
  put_u32(out.data() + 12, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    put_u64(out.data() + 16 + static_cast<std::size_t>(i) * 8, lbas[i]);
  }
}

bool JournalDescriptor::decode(block::BlockView in, JournalDescriptor& out,
                               std::uint64_t* lbas) {
  if (get_u32(in.data()) != kJournalDescriptorMagic) return false;
  out.sequence = get_u64(in.data() + 4);
  out.count = get_u32(in.data() + 12);
  if (out.count > kMaxTags) return false;
  for (std::uint32_t i = 0; i < out.count; ++i) {
    lbas[i] = get_u64(in.data() + 16 + static_cast<std::size_t>(i) * 8);
  }
  return true;
}

void JournalRevoke::encode(block::MutBlockView out,
                           const std::uint64_t* lbas) const {
  NETSTORE_CHECK_LE(count, kMaxTags);
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  put_u32(out.data(), kJournalRevokeMagic);
  put_u64(out.data() + 4, sequence);
  put_u32(out.data() + 12, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    put_u64(out.data() + 16 + static_cast<std::size_t>(i) * 8, lbas[i]);
  }
}

bool JournalRevoke::decode(block::BlockView in, JournalRevoke& out,
                           std::uint64_t* lbas) {
  if (get_u32(in.data()) != kJournalRevokeMagic) return false;
  out.sequence = get_u64(in.data() + 4);
  out.count = get_u32(in.data() + 12);
  if (out.count > kMaxTags) return false;
  for (std::uint32_t i = 0; i < out.count; ++i) {
    lbas[i] = get_u64(in.data() + 16 + static_cast<std::size_t>(i) * 8);
  }
  return true;
}

void JournalCommit::encode(block::MutBlockView out) const {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  put_u32(out.data(), kJournalCommitMagic);
  put_u64(out.data() + 4, sequence);
}

bool JournalCommit::decode(block::BlockView in, JournalCommit& out) {
  if (get_u32(in.data()) != kJournalCommitMagic) return false;
  out.sequence = get_u64(in.data() + 4);
  return true;
}

std::string to_string(Err e) {
  switch (e) {
    case Err::kOk:
      return "OK";
    case Err::kNoEnt:
      return "ENOENT";
    case Err::kExist:
      return "EEXIST";
    case Err::kNotDir:
      return "ENOTDIR";
    case Err::kIsDir:
      return "EISDIR";
    case Err::kNotEmpty:
      return "ENOTEMPTY";
    case Err::kAccess:
      return "EACCES";
    case Err::kPerm:
      return "EPERM";
    case Err::kNoSpace:
      return "ENOSPC";
    case Err::kNameTooLong:
      return "ENAMETOOLONG";
    case Err::kInval:
      return "EINVAL";
    case Err::kIo:
      return "EIO";
    case Err::kFBig:
      return "EFBIG";
    case Err::kStale:
      return "ESTALE";
    case Err::kXDev:
      return "EXDEV";
    case Err::kMLink:
      return "EMLINK";
  }
  return "E?";
}

}  // namespace netstore::fs
