#include "fs/ext3.h"

#include <algorithm>
#include <array>
#include <bit>
#include "core/buffer_pool.h"
#include "core/check.h"
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace netstore::fs {

using block::kBlockSize;
using block::Lba;

namespace {

constexpr std::uint32_t kMaxSymlinkDepth = 8;
// First read-ahead window on a sequential streak, before readahead_max
// clamps it.
constexpr std::uint32_t kReadaheadMin = 4;

std::uint8_t type_to_raw(FileType t) { return static_cast<std::uint8_t>(t); }
FileType raw_to_type(std::uint8_t t) { return static_cast<FileType>(t); }

/// First-fit search: the lowest clear bit among the first `nbits` bits of
/// `map` (bit i is bit i % 8 of byte i / 8), or `nbits` if all are set.
/// Scans 64 bits at a time, so a partial last word also reads bits past
/// `nbits`; mkfs keeps nbits <= 8 * kBlockSize, so they lie in the block.
std::uint32_t first_clear_bit(const block::BlockBuf& map,
                              std::uint32_t nbits) {
  NETSTORE_DCHECK_LE(nbits, 8 * kBlockSize);
  for (std::uint32_t base = 0; base < nbits; base += 64) {
    // Eight bytes as one little-endian word, so word bit i is map bit
    // base + i.  Spelled out over a pointer, GCC compiles it to one load.
    const std::uint8_t* p = map.data() + base / 8;
    const std::uint64_t word =
        std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
        std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
        std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
        std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
    if (word != ~std::uint64_t{0}) {
      const auto ones = static_cast<std::uint32_t>(std::countr_one(word));
      return std::min(nbits, base + ones);
    }
  }
  return nbits;
}

}  // namespace

Ext3Fs::Ext3Fs(sim::Env& env, block::BlockDevice& dev, Ext3Params params)
    : env_(env), dev_(dev), params_(params) {}

Ext3Fs::~Ext3Fs() = default;

// ---------------------------------------------------------------------------
// mkfs / mount / unmount
// ---------------------------------------------------------------------------

void Ext3Fs::mkfs(block::BlockDevice& dev, const MkfsOptions& opts) {
  const std::uint64_t total = dev.block_count();
  const auto ngroups = static_cast<std::uint32_t>(
      (total + kBlocksPerGroup - 1) / kBlocksPerGroup);
  if (ngroups == 0 || ngroups * GroupDesc::kEncodedSize > kBlockSize) {
    throw std::invalid_argument("unsupported volume size");
  }
  // The inode bitmap is one block, and the root inode needs a table block.
  if (opts.inodes_per_group < kInodesPerBlock ||
      opts.inodes_per_group > 8 * kBlockSize) {
    throw std::invalid_argument("unsupported inodes_per_group");
  }
  const std::uint32_t itable_blocks =
      opts.inodes_per_group / kInodesPerBlock;

  SuperBlock sb;
  sb.total_blocks = total;
  sb.group_count = ngroups;
  sb.inodes_per_group = opts.inodes_per_group;
  sb.journal_start = 2;
  sb.journal_blocks = opts.journal_blocks;
  sb.journal_sequence = 1;
  sb.journal_tail = 0;
  sb.clean = 1;

  // Group 0's metadata sits after the journal region.
  const Lba g0_meta = sb.journal_start + sb.journal_blocks;
  std::vector<GroupDesc> groups(ngroups);
  for (std::uint32_t g = 0; g < ngroups; ++g) {
    const Lba base = static_cast<Lba>(g) * kBlocksPerGroup;
    const Lba meta = (g == 0) ? g0_meta : base;
    groups[g].block_bitmap = meta;
    groups[g].inode_bitmap = meta + 1;
    groups[g].inode_table = meta + 2;
    groups[g].free_inodes = opts.inodes_per_group;
  }

  std::vector<std::uint8_t> buf(kBlockSize);
  // Each metadata block is built in `buf` and handed to the device in a
  // pool frame of its own, which the device then shares.
  auto write_buf = [&](Lba lba) {
    core::BufRef frame = core::BufferPool::instance().alloc();
    std::copy(buf.begin(), buf.end(), frame.mutable_data());
    dev.write(lba, {&frame, 1}, block::WriteMode::kAsync);
  };

  // Per-group block bitmaps: mark metadata blocks (and, in group 0, the
  // superblock/GDT/journal; in the last group, blocks beyond the device)
  // as in use.
  for (std::uint32_t g = 0; g < ngroups; ++g) {
    const Lba base = static_cast<Lba>(g) * kBlocksPerGroup;
    std::fill(buf.begin(), buf.end(), 0);
    auto set_bit = [&](std::uint64_t bit) {
      buf[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    };
    auto mark = [&](Lba lba) {
      if (lba >= base && lba < base + kBlocksPerGroup) {
        set_bit(lba - base);
      }
    };
    if (g == 0) {
      mark(0);  // superblock
      mark(1);  // GDT
      for (std::uint32_t j = 0; j < sb.journal_blocks; ++j) {
        mark(sb.journal_start + j);
      }
    }
    mark(groups[g].block_bitmap);
    mark(groups[g].inode_bitmap);
    for (std::uint32_t j = 0; j < itable_blocks; ++j) {
      mark(groups[g].inode_table + j);
    }
    // Blocks beyond the end of the device (short last group).  These can
    // overlap the inode-table marks above, so the free count is taken
    // from the finished bitmap, not incremented per mark.
    for (Lba b = base; b < base + kBlocksPerGroup; ++b) {
      if (b >= total) set_bit(b - base);
    }
    std::uint32_t used = 0;
    for (const std::uint8_t byte : buf) {
      used += static_cast<std::uint32_t>(std::popcount(byte));
    }
    groups[g].free_blocks = kBlocksPerGroup - used;
    write_buf(groups[g].block_bitmap);

    // Inode bitmap: all free, except inode 1 (root) in group 0 and, in a
    // short last group, inodes whose table block lies past the device end
    // (allocating one would read/write beyond the array).
    std::fill(buf.begin(), buf.end(), 0);
    const std::uint64_t usable_itable_blocks =
        groups[g].inode_table >= total
            ? 0
            : std::min<std::uint64_t>(itable_blocks,
                                      total - groups[g].inode_table);
    const auto usable_inodes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(opts.inodes_per_group,
                                usable_itable_blocks * kInodesPerBlock));
    for (std::uint32_t i = usable_inodes; i < opts.inodes_per_group; ++i) {
      buf[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
    groups[g].free_inodes = usable_inodes;
    if (g == 0) {
      buf[0] |= 1;
      groups[g].free_inodes--;
    }
    write_buf(groups[g].inode_bitmap);
  }

  // Root inode (ino 1 = group 0, index 0): empty directory.
  std::fill(buf.begin(), buf.end(), 0);
  RawInode root;
  root.mode = make_mode(FileType::kDirectory, 0755);
  root.nlink = 2;
  root.encode(buf.data());
  write_buf(groups[0].inode_table);

  // GDT.
  std::fill(buf.begin(), buf.end(), 0);
  for (std::uint32_t g = 0; g < ngroups; ++g) {
    groups[g].encode(buf.data() +
                     static_cast<std::size_t>(g) * GroupDesc::kEncodedSize);
  }
  write_buf(1);

  // Superblock last.
  sb.encode(block::MutBlockView{buf.data(), kBlockSize});
  write_buf(0);
  dev.flush();
}

void Ext3Fs::mount() {
  NETSTORE_CHECK(!mounted_, "double mount");
  dir_index_.clear();
  bcache_ = std::make_unique<Bcache>(dev_, params_.bcache_capacity_blocks);

  // Superblock.
  block::BlockBuf& sb_buf = bcache_->get(0);
  sb_ = SuperBlock::decode(
      block::BlockView{sb_buf.data(), kBlockSize});
  if (sb_.magic != kSuperMagic) {
    throw std::runtime_error("mount: bad superblock magic (not formatted?)");
  }

  if (!sb_.clean) {
    // Crash recovery; operates below the cache, so drop the stale copy of
    // any block replay might rewrite (superblock included).
    const std::uint64_t replayed = Journal::replay(dev_, sb_);
    (void)replayed;
    bcache_->crash();
    bcache_ = std::make_unique<Bcache>(dev_, params_.bcache_capacity_blocks);
  }

  // Group descriptors (cached for the life of the mount).
  block::BlockBuf& gdt = bcache_->get(1);
  groups_.resize(sb_.group_count);
  for (std::uint32_t g = 0; g < sb_.group_count; ++g) {
    groups_[g] = GroupDesc::decode(
        gdt.data() + static_cast<std::size_t>(g) * GroupDesc::kEncodedSize);
  }

  // Mark mounted-dirty on disk so a crash triggers replay.
  sb_.clean = 0;
  const core::BufRef sb_frame = sb_.encode_frame();
  dev_.write(0, {&sb_frame, 1}, block::WriteMode::kAsync);

  journal_ = std::make_unique<Journal>(env_, dev_, *bcache_, sb_,
                                       params_.commit_interval);
  journal_->set_audit(params_.invariant_audits);
  pages_ = std::make_unique<PageCache>(env_, dev_, params_.page_cache);
  mounted_ = true;
}

void Ext3Fs::unmount() {
  NETSTORE_CHECK(mounted_, "unmount of an unmounted fs");
  pages_->clear();
  journal_->sync();
  journal_->stop();
  sb_.clean = 1;
  const core::BufRef sb_frame = sb_.encode_frame();
  dev_.write(0, {&sb_frame, 1}, block::WriteMode::kSync);
  dev_.flush();
  bcache_->drop_clean_all();
  readstate_.clear();
  dir_index_.clear();
  mounted_ = false;
}

void Ext3Fs::sync() {
  pages_->flush_all(true);
  journal_->sync();
}

void Ext3Fs::crash() {
  pages_->crash();
  journal_->stop();
  bcache_->crash();
  readstate_.clear();
  dir_index_.clear();
  mounted_ = false;
}

std::uint64_t Ext3Fs::free_blocks() const {
  std::uint64_t n = 0;
  for (const auto& g : groups_) n += g.free_blocks;
  return n;
}

std::uint64_t Ext3Fs::free_inodes() const {
  std::uint64_t n = 0;
  for (const auto& g : groups_) n += g.free_inodes;
  return n;
}

// ---------------------------------------------------------------------------
// Inode and allocation plumbing
// ---------------------------------------------------------------------------

Ext3Fs::InodeLoc Ext3Fs::locate(Ino ino) const {
  NETSTORE_CHECK_NE(ino, kInvalidIno);
  const std::uint64_t zero_based = ino - 1;
  const auto group =
      static_cast<std::uint32_t>(zero_based / sb_.inodes_per_group);
  const auto index =
      static_cast<std::uint32_t>(zero_based % sb_.inodes_per_group);
  NETSTORE_CHECK_LT(group, sb_.group_count);
  return InodeLoc{
      .group = group,
      .table_block = groups_[group].inode_table + index / kInodesPerBlock,
      .byte_offset = (index % kInodesPerBlock) * kInodeSize,
  };
}

RawInode Ext3Fs::read_inode(Ino ino) {
  const InodeLoc loc = locate(ino);
  block::BlockBuf& buf = bcache_->get(loc.table_block);
  return RawInode::decode(buf.data() + loc.byte_offset);
}

void Ext3Fs::write_inode(Ino ino, const RawInode& ri) {
  const InodeLoc loc = locate(ino);
  block::BlockBuf& buf = bcache_->get(loc.table_block);
  ri.encode(buf.data() + loc.byte_offset);
  journal_->dirty_metadata(loc.table_block);
}

void Ext3Fs::update_group_desc(std::uint32_t group) {
  block::BlockBuf& gdt = bcache_->get(1);
  groups_[group].encode(gdt.data() +
                        static_cast<std::size_t>(group) *
                            GroupDesc::kEncodedSize);
  journal_->dirty_metadata(1);
}

Result<Ino> Ext3Fs::alloc_inode(bool is_dir, std::uint32_t parent_group) {
  // Directory placement follows Linux 2.4's find_group_dir: pick the
  // group with the most free blocks (among those with free inodes), so
  // consecutive mkdirs co-locate until the group fills.  Files co-locate
  // with their parent directory.
  std::uint32_t group = sb_.group_count;
  if (is_dir) {
    // Two passes with slack: take the first group within 64 blocks of the
    // emptiest, so consecutive directory creations stay in one group
    // instead of drifting (matching 2.4's observable behaviour).
    std::uint32_t best_free = 0;
    for (std::uint32_t g = 0; g < sb_.group_count; ++g) {
      if (groups_[g].free_inodes > 0) {
        best_free = std::max(best_free, groups_[g].free_blocks);
      }
    }
    for (std::uint32_t g = 0; g < sb_.group_count; ++g) {
      if (groups_[g].free_inodes > 0 &&
          groups_[g].free_blocks + 64 >= best_free) {
        group = g;
        break;
      }
    }
  } else {
    if (groups_[parent_group].free_inodes > 0) {
      group = parent_group;
    } else {
      for (std::uint32_t g = 0; g < sb_.group_count; ++g) {
        if (groups_[g].free_inodes > 0) {
          group = g;
          break;
        }
      }
    }
  }
  if (group >= sb_.group_count) return Err::kNoSpace;

  block::BlockBuf& bitmap = bcache_->get(groups_[group].inode_bitmap);
  const std::uint32_t i = first_clear_bit(bitmap, sb_.inodes_per_group);
  if (i == sb_.inodes_per_group) {
    return Err::kNoSpace;  // GDT count was stale; should not happen
  }
  bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  journal_->dirty_metadata(groups_[group].inode_bitmap);
  groups_[group].free_inodes--;
  update_group_desc(group);
  return static_cast<Ino>(group) * sb_.inodes_per_group + i + 1;
}

void Ext3Fs::free_inode(Ino ino) {
  const std::uint64_t zero_based = ino - 1;
  const auto group =
      static_cast<std::uint32_t>(zero_based / sb_.inodes_per_group);
  const auto index =
      static_cast<std::uint32_t>(zero_based % sb_.inodes_per_group);
  block::BlockBuf& bitmap = bcache_->get(groups_[group].inode_bitmap);
  bitmap[index / 8] &= static_cast<std::uint8_t>(~(1u << (index % 8)));
  journal_->dirty_metadata(groups_[group].inode_bitmap);
  groups_[group].free_inodes++;
  update_group_desc(group);
  dir_index_.erase(ino);  // the number may next name another directory
}

Result<Lba> Ext3Fs::alloc_block(std::uint32_t goal_group) {
  for (std::uint32_t i = 0; i < sb_.group_count; ++i) {
    const std::uint32_t g = (goal_group + i) % sb_.group_count;
    if (groups_[g].free_blocks == 0) continue;
    block::BlockBuf& bitmap = bcache_->get(groups_[g].block_bitmap);
    const std::uint32_t bit = first_clear_bit(bitmap, kBlocksPerGroup);
    if (bit == kBlocksPerGroup) continue;
    bitmap[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    journal_->dirty_metadata(groups_[g].block_bitmap);
    groups_[g].free_blocks--;
    update_group_desc(g);
    return static_cast<Lba>(g) * kBlocksPerGroup + bit;
  }
  return Err::kNoSpace;
}

void Ext3Fs::free_block(Lba lba) {
  // JBD revocation: a freed block's stale journal/checkpoint copies must
  // never overwrite whatever it is reallocated for.
  journal_->forget_metadata(lba);
  const auto group = static_cast<std::uint32_t>(lba / kBlocksPerGroup);
  const auto bit = static_cast<std::uint32_t>(lba % kBlocksPerGroup);
  block::BlockBuf& bitmap = bcache_->get(groups_[group].block_bitmap);
  bitmap[bit / 8] &= static_cast<std::uint8_t>(~(1u << (bit % 8)));
  journal_->dirty_metadata(groups_[group].block_bitmap);
  groups_[group].free_blocks++;
  update_group_desc(group);
}

// ---------------------------------------------------------------------------
// Block mapping
// ---------------------------------------------------------------------------

Result<Lba> Ext3Fs::bmap(Ino ino, RawInode& ri, std::uint64_t index,
                         bool alloc, bool& inode_dirtied) {
  const std::uint32_t goal = locate(ino).group;

  auto alloc_data_block = [&]() -> Result<Lba> {
    Result<Lba> r = alloc_block(goal);
    if (r) {
      ri.nblocks++;
      inode_dirtied = true;
    }
    return r;
  };

  if (index < kDirectBlocks) {
    if (ri.direct[index] == 0) {
      if (!alloc) return static_cast<Lba>(0);
      Result<Lba> r = alloc_data_block();
      if (!r) return r;
      ri.direct[index] = static_cast<std::uint32_t>(*r);
    }
    return static_cast<Lba>(ri.direct[index]);
  }

  auto through_indirect = [&](std::uint32_t& slot,
                              std::uint64_t slot_index) -> Result<Lba> {
    // `slot` holds the LBA of an indirect block; slot_index indexes into it.
    if (slot == 0) {
      if (!alloc) return static_cast<Lba>(0);
      Result<Lba> r = alloc_block(goal);
      if (!r) return r;
      slot = static_cast<std::uint32_t>(*r);
      inode_dirtied = true;
      block::BlockBuf& ib = bcache_->get_new(slot);
      (void)ib;  // zero-filled
      journal_->dirty_metadata(slot);
    }
    std::uint32_t entry;
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(&entry, bcache_->get(slot).data() + slot_index * 4, 4);
    if (entry == 0) {
      if (!alloc) return static_cast<Lba>(0);
      Result<Lba> r = alloc_data_block();
      if (!r) return r;
      entry = static_cast<std::uint32_t>(*r);
      // The allocation may have committed `slot`: write the entry through
      // a fresh reference, not into the frame the journal now holds.
      // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
      std::memcpy(bcache_->refetch(slot).data() + slot_index * 4, &entry, 4);
      journal_->dirty_metadata(slot);
    }
    return static_cast<Lba>(entry);
  };

  std::uint64_t rel = index - kDirectBlocks;
  if (rel < kPtrsPerBlock) {
    return through_indirect(ri.indirect, rel);
  }

  rel -= kPtrsPerBlock;
  if (rel >= static_cast<std::uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    return Err::kFBig;
  }
  const std::uint64_t l1 = rel / kPtrsPerBlock;
  const std::uint64_t l2 = rel % kPtrsPerBlock;

  // First level of the double-indirect tree.
  if (ri.dindirect == 0) {
    if (!alloc) return static_cast<Lba>(0);
    Result<Lba> r = alloc_block(goal);
    if (!r) return r;
    ri.dindirect = static_cast<std::uint32_t>(*r);
    inode_dirtied = true;
    bcache_->get_new(ri.dindirect);
    journal_->dirty_metadata(ri.dindirect);
  }
  block::BlockBuf& l1_block = bcache_->get(ri.dindirect);
  std::uint32_t l2_lba;
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(&l2_lba, l1_block.data() + l1 * 4, 4);
  if (l2_lba == 0) {
    if (!alloc) return static_cast<Lba>(0);
    Result<Lba> r = alloc_block(goal);
    if (!r) return r;
    l2_lba = static_cast<std::uint32_t>(*r);
    // Re-fetch: the alloc may have evicted/touched cache entries.
    block::BlockBuf& l1b = bcache_->get(ri.dindirect);
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(l1b.data() + l1 * 4, &l2_lba, 4);
    journal_->dirty_metadata(ri.dindirect);
    bcache_->get_new(l2_lba);
    journal_->dirty_metadata(l2_lba);
  }
  std::uint32_t slot = l2_lba;
  Result<Lba> out = through_indirect(slot, l2);
  // through_indirect can't change `slot` here (it's nonzero), so no
  // write-back of the slot value is needed.
  return out;
}

void Ext3Fs::free_blocks_from(Ino ino, RawInode& ri,
                              std::uint64_t from_index) {
  if (type_of_mode(ri.mode) == FileType::kSymlink && ri.is_fast_symlink()) {
    return;  // no data blocks
  }
  const std::uint64_t npages =
      (ri.size + kBlockSize - 1) / kBlockSize;

  // Free data blocks.
  for (std::uint64_t idx = from_index; idx < npages; ++idx) {
    bool dummy = false;
    Result<Lba> r = bmap(ino, ri, idx, /*alloc=*/false, dummy);
    if (r && *r != 0) {
      free_block(*r);
      ri.nblocks--;
    }
  }

  // Clear pointers and free wholly-unused indirect blocks.
  for (std::uint64_t idx = from_index;
       idx < std::min<std::uint64_t>(npages, kDirectBlocks); ++idx) {
    ri.direct[idx] = 0;
  }
  if (ri.indirect != 0) {
    if (from_index <= kDirectBlocks) {
      free_block(ri.indirect);
      ri.indirect = 0;
    } else if (from_index < kDirectBlocks + kPtrsPerBlock) {
      block::BlockBuf& ib = bcache_->get(ri.indirect);
      std::memset(ib.data() + (from_index - kDirectBlocks) * 4, 0,
                  (kPtrsPerBlock - (from_index - kDirectBlocks)) * 4);
      journal_->dirty_metadata(ri.indirect);
    }
  }
  if (ri.dindirect != 0) {
    const std::uint64_t dstart = kDirectBlocks + kPtrsPerBlock;
    // Walk a copy of the first-level table: free_block() can commit the
    // journal, which hands the cached table's frame to the device, so no
    // reference into it may be held across the loop.
    std::array<std::uint32_t, kPtrsPerBlock> l1;
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(l1.data(), bcache_->get(ri.dindirect).data(), kBlockSize);
    bool l1_dirty = false;
    for (std::uint64_t i = 0; i < kPtrsPerBlock; ++i) {
      const std::uint32_t l2_lba = l1[i];
      if (l2_lba == 0) continue;
      const std::uint64_t cover_start = dstart + i * kPtrsPerBlock;
      if (from_index <= cover_start) {
        free_block(l2_lba);
        l1[i] = 0;
        l1_dirty = true;
      } else if (from_index < cover_start + kPtrsPerBlock) {
        block::BlockBuf& l2 = bcache_->get(l2_lba);
        std::memset(l2.data() + (from_index - cover_start) * 4, 0,
                    (kPtrsPerBlock - (from_index - cover_start)) * 4);
        journal_->dirty_metadata(l2_lba);
      }
    }
    if (l1_dirty) {
      // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
      std::memcpy(bcache_->refetch(ri.dindirect).data(), l1.data(), kBlockSize);
      journal_->dirty_metadata(ri.dindirect);
    }
    if (from_index <= dstart) {
      free_block(ri.dindirect);
      ri.dindirect = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Directory blocks
// ---------------------------------------------------------------------------

namespace {

/// Reads the dirent header at `pos`.  False past the block's end or at a
/// rec_len that would overrun it (the scans stop there: corruption guard).
bool read_dirent(const block::BlockBuf& buf, std::uint32_t pos,
                 RawDirent& de) {
  if (pos + RawDirent::kHeaderSize > kBlockSize) return false;
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(&de.ino, buf.data() + pos, 4);
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(&de.rec_len, buf.data() + pos + 4, 2);
  de.name_len = buf[pos + 6];
  de.type = buf[pos + 7];
  return de.rec_len >= RawDirent::kHeaderSize && pos + de.rec_len <= kBlockSize;
}

std::string_view dirent_name(const block::BlockBuf& buf, std::uint32_t pos,
                             const RawDirent& de) {
  return {reinterpret_cast<const char*>(buf.data() + pos + 8), de.name_len};
}

/// The largest record the dirent at hand can take: a free entry's whole
/// span, or the slack after a live entry's name.
std::uint16_t room(const RawDirent& de) {
  if (de.ino == 0) return de.rec_len;
  const std::uint16_t used = RawDirent::size_for_name(de.name_len);
  return de.rec_len > used ? static_cast<std::uint16_t>(de.rec_len - used) : 0;
}

struct DirCursor {
  std::uint32_t pos = 0;

  bool next(const block::BlockBuf& buf, RawDirent& de, std::string& name) {
    for (; read_dirent(buf, pos, de); pos += de.rec_len) {
      if (de.ino != 0) {
        name.assign(dirent_name(buf, pos, de));
        return true;
      }
    }
    return false;
  }
};

void write_dirent_at(block::BlockBuf& buf, std::uint32_t pos,
                     std::uint32_t ino, std::uint16_t rec_len,
                     const std::string& name, std::uint8_t type) {
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(buf.data() + pos, &ino, 4);
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(buf.data() + pos + 4, &rec_len, 2);
  buf[pos + 6] = static_cast<std::uint8_t>(name.size());
  buf[pos + 7] = type;
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(buf.data() + pos + 8, name.data(), name.size());
}
}  // namespace

Ext3Fs::DirIndex& Ext3Fs::dir_index(Ino dir, const RawInode& dri) {
  DirIndex& ix = dir_index_[dir];
  NETSTORE_CHECK_LE(ix.max_slot.size(), dri.size / kBlockSize,
                    "directory index outlived its directory");
  return ix;
}

block::BlockBuf* Ext3Fs::dir_block(DirIndex& ix, Ino dir, RawInode& dri,
                                   std::uint64_t b, Lba& lba) {
  NETSTORE_DCHECK_LE(b, ix.max_slot.size());
  const bool fresh = b == ix.max_slot.size();
  bool dummy = false;
  Result<Lba> r = bmap(dir, dri, b, /*alloc=*/false, dummy);
  if (!r || *r == 0) {
    if (fresh) ix.max_slot.push_back(0);  // a hole holds and takes nothing
    return nullptr;
  }
  lba = *r;
  block::BlockBuf& buf = bcache_->get(*r);
  if (fresh) index_block(ix, b, buf);
  return &buf;
}

void Ext3Fs::index_block(DirIndex& ix, std::uint64_t b,
                         const block::BlockBuf& buf) {
  std::uint16_t best = 0;
  RawDirent de;
  for (std::uint32_t pos = 0; read_dirent(buf, pos, de); pos += de.rec_len) {
    dirents_parsed_++;
    best = std::max(best, room(de));
    if (de.ino != 0) {
      // emplace: an earlier block's copy of a name wins, as in a scan.
      ix.names.try_emplace(std::string(dirent_name(buf, pos, de)),
                           DirIndex::Entry{b, de.ino, raw_to_type(de.type)});
    }
  }
  ix.max_slot.push_back(best);
}

std::uint16_t Ext3Fs::max_slot(const block::BlockBuf& buf) {
  std::uint16_t best = 0;
  RawDirent de;
  for (std::uint32_t pos = 0; read_dirent(buf, pos, de); pos += de.rec_len) {
    dirents_parsed_++;
    best = std::max(best, room(de));
  }
  return best;
}

bool Ext3Fs::find_in_block(const block::BlockBuf& buf, const std::string& name,
                           RawDirent& de, std::uint32_t& pos,
                           std::uint32_t& prev_pos) {
  prev_pos = kBlockSize;  // sentinel: none
  for (pos = 0; read_dirent(buf, pos, de); prev_pos = pos, pos += de.rec_len) {
    dirents_parsed_++;
    if (de.ino != 0 && dirent_name(buf, pos, de) == name) return true;
  }
  return false;
}

const Ext3Fs::DirIndex::Entry* Ext3Fs::dir_locate(DirIndex& ix, Ino dir,
                                                  RawInode& dri,
                                                  const std::string& name,
                                                  Lba& lba,
                                                  block::BlockBuf*& buf) {
  // Element pointers, unlike iterators, survive the rehash of a parse.
  auto hit = ix.names.find(name);
  const DirIndex::Entry* e = hit == ix.names.end() ? nullptr : &hit->second;
  const std::uint64_t nblocks = dri.size / kBlockSize;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const bool fresh = b == ix.max_slot.size();
    buf = dir_block(ix, dir, dri, b, lba);
    if (buf == nullptr) continue;
    if (e == nullptr && fresh) {
      auto it = ix.names.find(name);
      if (it != ix.names.end()) e = &it->second;  // in the block just parsed
    }
    if (e == nullptr || e->block != b) continue;
    if (params_.invariant_audits) {
      RawDirent de;
      std::uint32_t pos = 0;
      std::uint32_t prev_pos = 0;
      const bool found = find_in_block(*buf, name, de, pos, prev_pos);
      NETSTORE_CHECK(found, "directory index: name not in its block");
      NETSTORE_CHECK_EQ(de.ino, e->ino, "directory index: stale ino");
      NETSTORE_CHECK(raw_to_type(de.type) == e->type,
                     "directory index: stale type");
    }
    return e;
  }
  return nullptr;
}

Result<Ino> Ext3Fs::dir_find(Ino dir, RawInode& dri, const std::string& name,
                             FileType* type_out) {
  Lba lba = 0;
  block::BlockBuf* buf = nullptr;
  const DirIndex::Entry* e =
      dir_locate(dir_index(dir, dri), dir, dri, name, lba, buf);
  if (e == nullptr) return Err::kNoEnt;
  if (type_out) *type_out = e->type;
  return e->ino;
}

Status Ext3Fs::dir_add(Ino dir, RawInode& dri, const std::string& name,
                       Ino ino, FileType type) {
  if (name.size() > kMaxNameLen) return Err::kNameTooLong;
  const std::uint16_t needed =
      RawDirent::size_for_name(static_cast<std::uint32_t>(name.size()));

  DirIndex& ix = dir_index(dir, dri);
  const std::uint64_t nblocks = dri.size / kBlockSize;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    Lba lba = 0;
    block::BlockBuf* buf = dir_block(ix, dir, dri, b, lba);
    if (buf == nullptr) continue;
    if (params_.invariant_audits) {
      NETSTORE_CHECK_EQ(ix.max_slot[b], max_slot(*buf),
                        "directory index: stale free-slot size");
    }
    if (ix.max_slot[b] < needed) continue;
    // First fit within the block, as a scan of every block would find.
    RawDirent de;
    std::uint32_t pos = 0;
    bool fits = false;
    for (; read_dirent(*buf, pos, de); pos += de.rec_len) {
      dirents_parsed_++;
      if (room(de) >= needed) {
        fits = true;
        break;
      }
    }
    NETSTORE_CHECK(fits, "directory index: no slot found");
    if (de.ino == 0) {
      // Claim the free slot, keeping its rec_len (covers the free span).
      write_dirent_at(*buf, pos, static_cast<std::uint32_t>(ino), de.rec_len,
                      name, type_to_raw(type));
    } else {
      // Split the slack after the live entry.
      const std::uint16_t used = RawDirent::size_for_name(de.name_len);
      const auto new_rec = static_cast<std::uint16_t>(de.rec_len - used);
      // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
      std::memcpy(buf->data() + pos + 4, &used, 2);
      write_dirent_at(*buf, pos + used, static_cast<std::uint32_t>(ino),
                      new_rec, name, type_to_raw(type));
    }
    ix.max_slot[b] = max_slot(*buf);
    ix.names.try_emplace(name, DirIndex::Entry{b, ino, type});
    journal_->dirty_metadata(lba);
    return Status::Ok();
  }

  // No room: append a fresh directory block.  The walk above indexed every
  // block, so the new one extends the parsed prefix.
  bool inode_dirtied = false;
  Result<Lba> r = bmap(dir, dri, nblocks, /*alloc=*/true, inode_dirtied);
  if (!r) return r.error();
  block::BlockBuf& buf = bcache_->get_new(*r);
  write_dirent_at(buf, 0, static_cast<std::uint32_t>(ino),
                  static_cast<std::uint16_t>(kBlockSize), name,
                  type_to_raw(type));
  ix.max_slot.push_back(max_slot(buf));
  ix.names.try_emplace(name, DirIndex::Entry{nblocks, ino, type});
  journal_->dirty_metadata(*r);
  dri.size += kBlockSize;
  return Status::Ok();
}

Status Ext3Fs::dir_remove(Ino dir, RawInode& dri, const std::string& name) {
  DirIndex& ix = dir_index(dir, dri);
  Lba lba = 0;
  block::BlockBuf* buf = nullptr;
  const DirIndex::Entry* e = dir_locate(ix, dir, dri, name, lba, buf);
  if (e == nullptr) return Err::kNoEnt;

  RawDirent de;
  std::uint32_t pos = 0;
  std::uint32_t prev_pos = 0;
  const bool found = find_in_block(*buf, name, de, pos, prev_pos);
  NETSTORE_CHECK(found, "directory index: name not in its block");
  if (prev_pos != kBlockSize) {
    // Fold into the previous entry's rec_len.
    std::uint16_t prev_rec;
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(&prev_rec, buf->data() + prev_pos + 4, 2);
    prev_rec = static_cast<std::uint16_t>(prev_rec + de.rec_len);
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(buf->data() + prev_pos + 4, &prev_rec, 2);
  } else {
    const std::uint32_t zero = 0;
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(buf->data() + pos, &zero, 4);
  }
  ix.max_slot[e->block] = max_slot(*buf);
  ix.names.erase(name);
  journal_->dirty_metadata(lba);
  return Status::Ok();
}

Result<bool> Ext3Fs::dir_empty(Ino dir, RawInode& dri) {
  const std::uint64_t nblocks = dri.size / kBlockSize;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    bool dummy = false;
    Result<Lba> r = bmap(dir, dri, b, /*alloc=*/false, dummy);
    if (!r || *r == 0) continue;
    block::BlockBuf& buf = bcache_->get(*r);
    DirCursor cur;
    RawDirent de;
    std::string name;
    if (cur.next(buf, de, name)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Public inode-level operations
// ---------------------------------------------------------------------------

Result<Ino> Ext3Fs::lookup(Ino dir, const std::string& name) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  return dir_find(dir, dri, name);
}

Result<Attr> Ext3Fs::getattr(Ino ino) {
  const RawInode ri = read_inode(ino);
  if (ri.nlink == 0 && ino != kRootIno) {
#ifdef NETSTORE_DEBUG_STALE
    // netstore-lint: allow(raw-print) -- opt-in debug diagnostic
    std::fprintf(stderr, "STALE getattr ino=%llu\n",
                 (unsigned long long)ino);
#endif
    return Err::kStale;
  }
  Attr a;
  a.ino = ino;
  a.mode = ri.mode;
  a.nlink = ri.nlink;
  a.uid = ri.uid;
  a.gid = ri.gid;
  a.size = ri.size;
  a.nblocks = ri.nblocks;
  a.atime = ri.atime;
  a.mtime = ri.mtime;
  a.ctime = ri.ctime;
  return a;
}

Status Ext3Fs::access(Ino ino, int amode) {
  const RawInode ri = read_inode(ino);
  if (ri.nlink == 0 && ino != kRootIno) return Err::kStale;
  // Single-user (root) simulation: everything readable/writable; exec
  // requires some x bit, as for real root.
  if ((amode & kAccessExec) != 0 && (ri.mode & 0111) == 0 &&
      type_of_mode(ri.mode) != FileType::kDirectory) {
    return Err::kAccess;
  }
  return Status::Ok();
}

Result<Ino> Ext3Fs::create(Ino dir, const std::string& name,
                           std::uint16_t perm) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  if (dir_find(dir, dri, name)) return Err::kExist;

  Result<Ino> ino = alloc_inode(/*is_dir=*/false, locate(dir).group);
  if (!ino) return ino;
  RawInode ri;
  ri.mode = make_mode(FileType::kRegular, perm);
  ri.nlink = 1;
  ri.atime = ri.mtime = ri.ctime = env_.now();
  write_inode(*ino, ri);

  if (Status s = dir_add(dir, dri, name, *ino, FileType::kRegular); !s) {
    free_inode(*ino);
    return s.error();
  }
  dri.mtime = dri.ctime = env_.now();
  write_inode(dir, dri);
  return ino;
}

Result<Ino> Ext3Fs::mkdir(Ino dir, const std::string& name,
                          std::uint16_t perm) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  if (dri.nlink >= kMaxLinks) return Err::kMLink;
  if (dir_find(dir, dri, name)) return Err::kExist;

  Result<Ino> ino = alloc_inode(/*is_dir=*/true, locate(dir).group);
  if (!ino) return ino;
  RawInode ri;
  ri.mode = make_mode(FileType::kDirectory, perm);
  ri.nlink = 2;
  ri.atime = ri.mtime = ri.ctime = env_.now();

  // Pre-allocate the first directory block (as ext2 does for "."/"..").
  bool dummy = false;
  Result<Lba> blk = bmap(*ino, ri, 0, /*alloc=*/true, dummy);
  if (!blk) {
    free_inode(*ino);
    return blk.error();
  }
  block::BlockBuf& buf = bcache_->get_new(*blk);
  // One empty dirent spanning the block.
  const std::uint32_t zero = 0;
  const auto span = static_cast<std::uint16_t>(kBlockSize);
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(buf.data(), &zero, 4);
  // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(buf.data() + 4, &span, 2);
  journal_->dirty_metadata(*blk);
  ri.size = kBlockSize;
  write_inode(*ino, ri);

  if (Status s = dir_add(dir, dri, name, *ino, FileType::kDirectory); !s) {
    free_block(*blk);
    free_inode(*ino);
    return s.error();
  }
  dri.nlink++;
  dri.mtime = dri.ctime = env_.now();
  write_inode(dir, dri);
  return ino;
}

Result<Ino> Ext3Fs::symlink(Ino dir, const std::string& name,
                            const std::string& target) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  if (dir_find(dir, dri, name)) return Err::kExist;
  if (target.size() > kBlockSize) return Err::kNameTooLong;

  Result<Ino> ino = alloc_inode(/*is_dir=*/false, locate(dir).group);
  if (!ino) return ino;
  RawInode ri;
  ri.mode = make_mode(FileType::kSymlink, 0777);
  ri.nlink = 1;
  ri.atime = ri.mtime = ri.ctime = env_.now();
  ri.size = target.size();
  if (target.size() <= kFastSymlinkMax) {
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(ri.symlink_target, target.data(), target.size());
  } else {
    bool dummy = false;
    Result<Lba> blk = bmap(*ino, ri, 0, /*alloc=*/true, dummy);
    if (!blk) {
      free_inode(*ino);
      return blk.error();
    }
    block::BlockBuf& buf = bcache_->get_new(*blk);
    // metadata bytes, not payload  netstore-lint: allow(raw-datapath-memcpy)
    std::memcpy(buf.data(), target.data(), target.size());
    journal_->dirty_metadata(*blk);
  }
  write_inode(*ino, ri);

  if (Status s = dir_add(dir, dri, name, *ino, FileType::kSymlink); !s) {
    free_inode(*ino);
    return s.error();
  }
  dri.mtime = dri.ctime = env_.now();
  write_inode(dir, dri);
  return ino;
}

Status Ext3Fs::link(Ino dir, const std::string& name, Ino target) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  if (dir_find(dir, dri, name)) return Err::kExist;

  RawInode ti = read_inode(target);
  if (type_of_mode(ti.mode) == FileType::kDirectory) return Err::kPerm;
  if (ti.nlink >= kMaxLinks) return Err::kMLink;

  if (Status s = dir_add(dir, dri, name, target, type_of_mode(ti.mode)); !s) {
    return s;
  }
  ti.nlink++;
  ti.ctime = env_.now();
  write_inode(target, ti);
  dri.mtime = dri.ctime = env_.now();
  write_inode(dir, dri);
  return Status::Ok();
}

Status Ext3Fs::remove_common(Ino dir, const std::string& name,
                             bool want_dir) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;
  Result<Ino> found = dir_find(dir, dri, name);
  if (!found) return found.error();

  RawInode ti = read_inode(*found);
  const bool is_dir = type_of_mode(ti.mode) == FileType::kDirectory;
  if (want_dir && !is_dir) return Err::kNotDir;
  if (!want_dir && is_dir) return Err::kIsDir;
  if (want_dir) {
    Result<bool> empty = dir_empty(*found, ti);
    if (!empty) return empty.error();
    if (!*empty) return Err::kNotEmpty;
  }

  if (Status s = dir_remove(dir, dri, name); !s) return s;

  if (want_dir) {
    free_blocks_from(*found, ti, 0);
    ti.nlink = 0;
    write_inode(*found, ti);
    free_inode(*found);
    dri.nlink--;
  } else {
    ti.nlink--;
    ti.ctime = env_.now();
    if (ti.nlink == 0) {
      pages_->drop_inode(*found);
      free_blocks_from(*found, ti, 0);
      ti.size = 0;
      write_inode(*found, ti);
      free_inode(*found);
    } else {
      write_inode(*found, ti);
    }
  }
  dri.mtime = dri.ctime = env_.now();
  write_inode(dir, dri);
  readstate_.erase(*found);
  return Status::Ok();
}

Status Ext3Fs::unlink(Ino dir, const std::string& name) {
  return remove_common(dir, name, /*want_dir=*/false);
}

Status Ext3Fs::rmdir(Ino dir, const std::string& name) {
  return remove_common(dir, name, /*want_dir=*/true);
}

Status Ext3Fs::rename(Ino sdir, const std::string& sname, Ino ddir,
                      const std::string& dname) {
  RawInode sdri = read_inode(sdir);
  if (type_of_mode(sdri.mode) != FileType::kDirectory) return Err::kNotDir;
  FileType stype{};
  Result<Ino> src = dir_find(sdir, sdri, sname, &stype);
  if (!src) return src.error();
  const bool src_is_dir = stype == FileType::kDirectory;

  RawInode ddri = read_inode(ddir);
  if (type_of_mode(ddri.mode) != FileType::kDirectory) return Err::kNotDir;
  Result<Ino> dst = dir_find(ddir, ddri, dname);
  if (dst) {
    if (*dst == *src) return Status::Ok();  // POSIX: same file, no-op
    // Replace an existing target.
    RawInode dsti = read_inode(*dst);
    const bool dst_is_dir = type_of_mode(dsti.mode) == FileType::kDirectory;
    if (src_is_dir && !dst_is_dir) return Err::kNotDir;
    if (!src_is_dir && dst_is_dir) return Err::kIsDir;
    Status removed = src_is_dir ? rmdir(ddir, dname) : unlink(ddir, dname);
    if (!removed) return removed;
    ddri = read_inode(ddir);  // refresh after removal
  }

  if (Status s = dir_remove(sdir, sdri, sname); !s) return s;
  sdri.mtime = sdri.ctime = env_.now();
  if (sdir == ddir) {
    if (Status s = dir_add(sdir, sdri, dname, *src, stype); !s) return s;
    write_inode(sdir, sdri);
  } else {
    write_inode(sdir, sdri);
    ddri = read_inode(ddir);
    if (Status s = dir_add(ddir, ddri, dname, *src, stype); !s) return s;
    if (src_is_dir) {
      sdri = read_inode(sdir);
      sdri.nlink--;
      write_inode(sdir, sdri);
      ddri.nlink++;
    }
    ddri.mtime = ddri.ctime = env_.now();
    write_inode(ddir, ddri);
  }

  RawInode si = read_inode(*src);
  si.ctime = env_.now();
  write_inode(*src, si);
  return Status::Ok();
}

Result<std::vector<DirEntry>> Ext3Fs::readdir(Ino dir) {
  RawInode dri = read_inode(dir);
  if (type_of_mode(dri.mode) != FileType::kDirectory) return Err::kNotDir;

  std::vector<DirEntry> out;
  const std::uint64_t nblocks = dri.size / kBlockSize;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    bool dummy = false;
    Result<Lba> r = bmap(dir, dri, b, /*alloc=*/false, dummy);
    if (!r || *r == 0) continue;
    block::BlockBuf& buf = bcache_->get(*r);
    DirCursor cur;
    RawDirent de;
    std::string name;
    while (cur.next(buf, de, name)) {
      out.push_back(DirEntry{de.ino, raw_to_type(de.type), name});
      cur.pos += de.rec_len;
    }
  }
  dri.atime = env_.now();
  write_inode(dir, dri);
  return out;
}

Result<std::string> Ext3Fs::readlink(Ino ino) {
  RawInode ri = read_inode(ino);
  if (type_of_mode(ri.mode) != FileType::kSymlink) return Err::kInval;
  std::string target;
  if (ri.is_fast_symlink()) {
    target.assign(ri.symlink_target, ri.size);
  } else {
    bool dummy = false;
    Result<Lba> blk = bmap(ino, ri, 0, /*alloc=*/false, dummy);
    if (!blk || *blk == 0) return Err::kIo;
    block::BlockBuf& buf = bcache_->get(*blk);
    target.assign(reinterpret_cast<const char*>(buf.data()), ri.size);
  }
  ri.atime = env_.now();
  write_inode(ino, ri);
  return target;
}

Status Ext3Fs::setattr(Ino ino, const SetAttr& sa) {
  RawInode ri = read_inode(ino);
  if (ri.nlink == 0 && ino != kRootIno) return Err::kStale;

  if (sa.mode >= 0) {
    ri.mode = static_cast<std::uint16_t>((ri.mode & kModeTypeMask) |
                                         (sa.mode & kPermMask));
  }
  if (sa.uid >= 0) ri.uid = static_cast<std::uint32_t>(sa.uid);
  if (sa.gid >= 0) ri.gid = static_cast<std::uint32_t>(sa.gid);
  if (sa.atime >= 0) ri.atime = sa.atime;
  if (sa.mtime >= 0) ri.mtime = sa.mtime;
  if (sa.size >= 0) {
    if (type_of_mode(ri.mode) == FileType::kDirectory) return Err::kIsDir;
    const auto new_size = static_cast<std::uint64_t>(sa.size);
    if (new_size < ri.size) {
      const std::uint64_t keep_pages =
          (new_size + kBlockSize - 1) / kBlockSize;
      pages_->drop_inode(ino, keep_pages);
      free_blocks_from(ino, ri, keep_pages);
      // Zero the tail of a partial final block so a later size extension
      // exposes zeros, not the truncated-away bytes (POSIX).
      const auto tail = static_cast<std::uint32_t>(new_size % kBlockSize);
      if (tail != 0) {
        bool dummy = false;
        Result<Lba> last =
            bmap(ino, ri, new_size / kBlockSize, /*alloc=*/false, dummy);
        if (last && *last != 0) {
          const std::uint64_t index = new_size / kBlockSize;
          if (!pages_->contains(ino, index)) {
            std::vector<core::BufRef> got;
            dev_.read(*last, 1, got);
            pages_->insert_clean(ino, index, *last, std::move(got.front()),
                                 env_.now());
          }
          block::BlockBuf& page = pages_->write_page(ino, index, *last);
          std::memset(page.data() + tail, 0, kBlockSize - tail);
        }
      }
    }
    ri.size = new_size;
    ri.mtime = env_.now();
  }
  ri.ctime = env_.now();
  write_inode(ino, ri);
  return Status::Ok();
}

Result<std::uint32_t> Ext3Fs::read_pages(
    Ino ino, std::uint64_t off, std::uint64_t want,
    sim::FuncRef<void(const core::BufRef& page, std::uint32_t page_off,
                      std::uint32_t len)>
        sink) {
  RawInode ri = read_inode(ino);
  if (type_of_mode(ri.mode) == FileType::kDirectory) return Err::kIsDir;
  if (off >= ri.size) return 0u;

  const auto n =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(want, ri.size - off));
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t index = pos / kBlockSize;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t len =
        std::min<std::uint32_t>(n - done, kBlockSize - page_off);

    const core::BufRef* page = pages_->find(ino, index);
    if (!page) {
      bool dummy = false;
      Result<Lba> lba = bmap(ino, ri, index, /*alloc=*/false, dummy);
      if (!lba) return lba.error();
      if (*lba == 0) {
        // Hole: share the pool's zero page — no device access, no copy.
        pages_->insert_clean(ino, index, 0,
                             core::BufferPool::instance().zero_page(),
                             env_.now());
      } else {
        // Demand read.  Within this request, coalesce the contiguous
        // uncached run into one device command (the block layer merges
        // adjacent buffers of a single large read), up to 64 KB.
        const std::uint64_t last_index = (off + n - 1) / kBlockSize;
        std::uint32_t run = 1;
        Lba prev = *lba;
        while (run < 16 && index + run <= last_index &&
               !pages_->contains(ino, index + run)) {
          bool d2 = false;
          Result<Lba> next = bmap(ino, ri, index + run, /*alloc=*/false, d2);
          if (!next || *next != prev + 1) break;
          prev = *next;
          run++;
        }
        // The device hands back shared frames and the page cache adopts
        // the handles.
        std::vector<core::BufRef> refs;
        refs.reserve(run);
        dev_.read(*lba, run, refs);
        for (std::uint32_t j = 0; j < run; ++j) {
          pages_->insert_clean(ino, index + j, *lba + j, std::move(refs[j]),
                               env_.now());
        }
      }
      page = pages_->find(ino, index);
      NETSTORE_CHECK(page, "page vanished during read");
    }
    sink(*page, page_off, len);
    done += len;

    do_readahead(ino, ri, index);
  }

  ri.atime = env_.now();
  write_inode(ino, ri);
  return n;
}

Result<std::uint32_t> Ext3Fs::read(Ino ino, std::uint64_t off,
                                   std::span<std::uint8_t> out) {
  std::size_t at = 0;
  return read_pages(ino, off, out.size(),
                    [&](const core::BufRef& page, std::uint32_t page_off,
                        std::uint32_t len) {
                      // The sanctioned user-buffer boundary: the one place
                      // on the read data path where payload bytes leave
                      // pooled frames.
                      core::copy_out(out.data() + at, page.data() + page_off,
                                     len);
                      at += len;
                    });
}

Result<std::uint32_t> Ext3Fs::read(Ino ino, std::uint64_t off,
                                   std::uint32_t want, core::IoVec& out) {
  return read_pages(ino, off, want,
                    [&](const core::BufRef& page, std::uint32_t page_off,
                        std::uint32_t len) {
                      out.push_back(core::BufSlice{page, page_off, len});
                    });
}

void Ext3Fs::do_readahead(Ino ino, RawInode& ri, std::uint64_t index) {
  ReadState& rs = readstate_[ino];
  if (index == rs.last_index) return;  // same page as previous chunk
  if (index == rs.last_index + 1) {
    rs.streak++;
  } else {
    rs.streak = 1;
    rs.window = 0;
  }
  rs.last_index = index;
  if (rs.streak < 2 || params_.readahead_max == 0) return;

  rs.window =
      std::min(std::max(kReadaheadMin, rs.window * 2), params_.readahead_max);
  const std::uint64_t max_page =
      ri.size == 0 ? 0 : (ri.size - 1) / kBlockSize;
  for (std::uint64_t j = index + 1;
       j <= std::min(index + rs.window, max_page); ++j) {
    if (pages_->contains(ino, j)) continue;
    bool dummy = false;
    Result<Lba> lba = bmap(ino, ri, j, /*alloc=*/false, dummy);
    if (!lba || *lba == 0) continue;
    // The device hands back pooled frames and the page cache adopts the
    // handles, valid from the prefetch's completion time.
    std::vector<core::BufRef> refs;
    auto ready = dev_.prefetch(*lba, 1, refs);
    if (!ready) return;  // device has no async path; skip read-ahead
    pages_->insert_clean(ino, j, *lba, std::move(refs.front()), *ready);
  }
}

Result<Lba> Ext3Fs::prepare_write_block(Ino ino, RawInode& ri,
                                        std::uint64_t pos, std::uint32_t len,
                                        bool& inode_dirtied) {
  const std::uint64_t index = pos / kBlockSize;
  const bool was_mapped = [&] {
    bool dummy = false;
    Result<Lba> r = bmap(ino, ri, index, /*alloc=*/false, dummy);
    return r && *r != 0;
  }();

  Result<Lba> lba = bmap(ino, ri, index, /*alloc=*/true, inode_dirtied);
  if (!lba) return lba;

  // Partial overwrite of existing data needs the old contents.
  const bool partial = len < kBlockSize;
  if (partial && was_mapped && !pages_->contains(ino, index) &&
      pos < ri.size + len) {
    std::vector<core::BufRef> got;
    dev_.read(*lba, 1, got);
    pages_->insert_clean(ino, index, *lba, std::move(got.front()), env_.now());
  }
  return lba;
}

Result<std::uint32_t> Ext3Fs::write(Ino ino, std::uint64_t off,
                                    std::span<const std::uint8_t> in) {
  RawInode ri = read_inode(ino);
  if (type_of_mode(ri.mode) == FileType::kDirectory) return Err::kIsDir;

  const auto n = static_cast<std::uint32_t>(in.size());
  bool inode_dirtied = false;
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint64_t pos = off + done;
    const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t len =
        std::min<std::uint32_t>(n - done, kBlockSize - page_off);
    Result<Lba> lba = prepare_write_block(ino, ri, pos, len, inode_dirtied);
    if (!lba) return lba.error();
    block::BlockBuf& page = pages_->write_page(ino, pos / kBlockSize, *lba);
    // The sanctioned user-buffer boundary: the one place on the write data
    // path where payload bytes enter pooled frames.
    core::copy_in(page.data() + page_off, in.data() + done, len);
    done += len;
  }

  if (off + n > ri.size) ri.size = off + n;
  ri.mtime = ri.ctime = env_.now();
  write_inode(ino, ri);
  (void)inode_dirtied;  // write_inode covers it
  return n;
}

Result<std::uint32_t> Ext3Fs::write(Ino ino, std::uint64_t off,
                                    const core::IoVec& in) {
  // The payload arrives as pooled-frame slices that were already charged
  // at the caller's user boundary.  Slices that cover a whole aligned
  // block are adopted outright (install_dirty); sub-block slices merge
  // into the resident page with an uncharged copy — those bytes never
  // cross a user boundary here.
  RawInode ri = read_inode(ino);
  if (type_of_mode(ri.mode) == FileType::kDirectory) return Err::kIsDir;

  const auto n = static_cast<std::uint32_t>(in.total_bytes());
  bool inode_dirtied = false;
  std::uint32_t done = 0;
  for (const core::BufSlice& s : in) {
    std::uint32_t sdone = 0;
    while (sdone < s.len) {
      const std::uint64_t pos = off + done;
      const std::uint64_t index = pos / kBlockSize;
      const auto page_off = static_cast<std::uint32_t>(pos % kBlockSize);
      const std::uint32_t len = std::min<std::uint32_t>(
          s.len - sdone, kBlockSize - page_off);
      Result<Lba> lba = prepare_write_block(ino, ri, pos, len, inode_dirtied);
      if (!lba) return lba.error();
      if (page_off == 0 && s.off == 0 && s.len == kBlockSize) {
        // Whole aligned frame: the cache adopts the handle; a later
        // mutation of either alias un-shares via copy-on-write.
        pages_->install_dirty(ino, index, *lba, s.buf);
      } else {
        block::BlockBuf& page = pages_->write_page(ino, index, *lba);
        // Sub-block merge between two pooled frames; charged at the user
        // boundary upstream.  netstore-lint: allow(raw-datapath-memcpy)
        std::memcpy(page.data() + page_off, s.data() + sdone, len);
      }
      sdone += len;
      done += len;
    }
  }

  if (off + n > ri.size) ri.size = off + n;
  ri.mtime = ri.ctime = env_.now();
  write_inode(ino, ri);
  (void)inode_dirtied;
  return n;
}

Status Ext3Fs::fsync(Ino ino) {
  pages_->flush_inode(ino);
  journal_->commit(true);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

Result<Ino> Ext3Fs::resolve(const std::string& path, bool follow_last) {
  std::string work = path;
  for (std::uint32_t depth = 0; depth <= kMaxSymlinkDepth; ++depth) {
    const std::vector<std::string> parts = split_path(work);
    Ino cur = kRootIno;
    bool restarted = false;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      RawInode ri = read_inode(cur);
      if (type_of_mode(ri.mode) != FileType::kDirectory) return Err::kNotDir;
      Result<Ino> next = dir_find(cur, ri, parts[i]);
      if (!next) return next.error();

      const RawInode ni = read_inode(*next);
      const bool last = (i + 1 == parts.size());
      if (type_of_mode(ni.mode) == FileType::kSymlink &&
          (!last || follow_last)) {
        Result<std::string> target = readlink(*next);
        if (!target) return target.error();
        // Rebuild: symlink target replaces this component.
        std::string rest;
        for (std::size_t j = i + 1; j < parts.size(); ++j) {
          rest += "/" + parts[j];
        }
        if (!target->empty() && (*target)[0] == '/') {
          work = *target + rest;
        } else {
          std::string prefix;
          for (std::size_t j = 0; j < i; ++j) prefix += "/" + parts[j];
          work = prefix + "/" + *target + rest;
        }
        restarted = true;
        break;
      }
      cur = *next;
    }
    if (!restarted) return cur;
  }
  return Err::kInval;  // ELOOP, approximated
}

Result<Ino> Ext3Fs::resolve_parent(const std::string& path,
                                   std::string& leaf) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.empty()) return Err::kInval;
  leaf = parts.back();
  std::string parent;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    parent += "/" + parts[i];
  }
  if (parent.empty()) parent = "/";
  return resolve(parent);
}

}  // namespace netstore::fs
