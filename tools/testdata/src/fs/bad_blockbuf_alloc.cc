// Fixture: heap-allocating BlockBuf frames outside core::BufferPool.
// Every 4 KB frame on the data path must come from the pool (as a
// core::BufRef) so the steady state is allocation-free and layers share
// pages copy-on-write, so each raw allocation below must trip the
// raw-blockbuf-alloc rule.
#include <memory>

namespace netstore::block {
struct BlockBuf;
}

namespace netstore::fsx {

using block::BlockBuf;

void cache_insert() {
  auto a = std::make_unique<BlockBuf>();          // BAD: raw-blockbuf-alloc
  auto b = std::make_unique<block::BlockBuf>();   // BAD: raw-blockbuf-alloc
  auto c = std::make_shared<BlockBuf>();          // BAD: raw-blockbuf-alloc
  auto d = std::make_shared<block::BlockBuf>();   // BAD: raw-blockbuf-alloc
  BlockBuf* e = new BlockBuf();                   // BAD: raw-blockbuf-alloc
  auto* f = new block::BlockBuf();                // BAD: raw-blockbuf-alloc
  (void)a, (void)b, (void)c, (void)d;
  delete e;
  delete f;
}

void measurement_baseline() {
  // Suppressed: deliberately measuring the allocation the pool replaced.
  // netstore-lint: allow(raw-blockbuf-alloc) -- deep-copy cost baseline
  auto probe = std::make_unique<BlockBuf>();
  (void)probe;
}

}  // namespace netstore::fsx
