// Common block-layer definitions.
//
// netstore uses a single block size everywhere (4 KB), matching both the
// ext3 configuration in the paper's testbed and the page size of the
// simulated clients.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace netstore::block {

/// Size of one block in bytes.
constexpr std::uint32_t kBlockSize = 4096;

/// Logical block address.
using Lba = std::uint64_t;

/// One block's worth of bytes.
using BlockBuf = std::array<std::uint8_t, kBlockSize>;

/// Read-only view of exactly one block.
using BlockView = std::span<const std::uint8_t, kBlockSize>;

/// Mutable view of exactly one block.
using MutBlockView = std::span<std::uint8_t, kBlockSize>;

}  // namespace netstore::block
