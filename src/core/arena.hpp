// Monotonic (bump) arena allocation for hot-path scratch storage.
//
// The packer event loop and the OPT_total evaluate phase are O(1)-ish per
// step algorithmically, yet a general-purpose heap charges them node
// allocations, size-class locks and pointer chasing on every operation. A
// monotonic arena removes all of that: allocation is a pointer bump inside a
// chunk, deallocation does not exist, and reuse happens wholesale through
// reset(). The design follows the constant-cost discipline of o1heap-style
// allocators (see SNIPPETS.md) in the special case this library needs —
// scratch memory whose lifetime ends at a well-defined reset point.
//
// Rules of use (docs/performance.md "Memory architecture"):
//   * Addresses returned by allocate() are stable until reset(): chunks are
//     never reallocated or moved, so spans handed out earlier stay valid as
//     later allocations happen. Indices into those spans are therefore
//     stable too.
//   * reset() invalidates every span at once but *keeps* the chunks, so a
//     steady-state consumer (one reset per snapshot/evaluation) reaches a
//     high-water mark after the first few iterations and never touches the
//     heap again. That is the property the zero-allocation regression test
//     asserts via chunk_count().
//   * rewind(marker()) releases only the allocations made after the marker —
//     used by dedup paths that provisionally copy a key into the arena and
//     drop it again when the key turns out to be a duplicate.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace dbp {

/// Chunked bump allocator. Not thread-safe: one arena per worker.
class MonotonicArena {
 public:
  /// `first_chunk_bytes` seeds the geometric chunk schedule; subsequent
  /// chunks double so the total chunk count stays logarithmic in the
  /// high-water footprint.
  explicit MonotonicArena(std::size_t first_chunk_bytes = kDefaultFirstChunk)
      : next_chunk_bytes_(first_chunk_bytes == 0 ? kDefaultFirstChunk
                                                 : first_chunk_bytes) {}

  static constexpr std::size_t kDefaultFirstChunk = std::size_t{64} * 1024;

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;
  MonotonicArena(MonotonicArena&&) = default;
  MonotonicArena& operator=(MonotonicArena&&) = default;

  /// Raw allocation; `align` must be a power of two. Never returns null.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    DBP_REQUIRE(align != 0 && (align & (align - 1)) == 0,
                "arena alignment must be a power of two");
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (chunk_ >= chunks_.size() || offset + bytes > chunks_[chunk_].size) {
      advance_chunk(bytes + align);
      offset = (used_ + align - 1) & ~(align - 1);
    }
    std::byte* result = chunks_[chunk_].data.get() + offset;
    used_ = offset + bytes;
    return result;
  }

  /// A typed uninitialized array. T must be trivially destructible — reset()
  /// drops storage without running destructors.
  template <typename T>
  [[nodiscard]] std::span<T> allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructor calls");
    if (count == 0) return {};
    T* data = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    return {data, count};
  }

  /// Releases every allocation while keeping the chunks, so the next cycle
  /// runs entirely inside already-owned memory.
  void reset() noexcept {
    chunk_ = 0;
    used_ = 0;
  }

  /// Position of the bump pointer; pass to rewind() to drop everything
  /// allocated after this point (chunks are kept). Only positions obtained
  /// from the *current* cycle (since the last reset) are valid.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Marker marker() const noexcept { return {chunk_, used_}; }

  void rewind(Marker m) noexcept {
    chunk_ = m.chunk;
    used_ = m.used;
  }

  /// Heap chunks ever acquired: the test hook. A steady-state consumer's
  /// chunk_count() stops growing after warm-up; the zero-allocation test
  /// pins that.
  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Moves to the next chunk that can hold `needed` bytes, acquiring a new
  /// one (doubling schedule) when no owned chunk is large enough.
  void advance_chunk(std::size_t needed) {
    const std::size_t start = chunks_.empty() ? 0 : chunk_ + 1;
    for (std::size_t c = start; c < chunks_.size(); ++c) {
      if (chunks_[c].size >= needed) {
        chunk_ = c;
        used_ = 0;
        return;
      }
    }
    while (next_chunk_bytes_ < needed) next_chunk_bytes_ *= 2;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(next_chunk_bytes_),
                            next_chunk_bytes_});
    next_chunk_bytes_ *= 2;
    chunk_ = chunks_.size() - 1;
    used_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;           // index of the chunk being bumped
  std::size_t used_ = 0;            // bytes consumed in that chunk
  std::size_t next_chunk_bytes_;    // size of the next chunk to acquire
};

}  // namespace dbp
