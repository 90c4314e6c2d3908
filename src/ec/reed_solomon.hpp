// Systematic Reed-Solomon erasure coding theta(m, n) (paper §2.1, §5.1.2).
//
// The original object is split into m data chunks; k = n - m parity chunks
// are generated so that *any* m of the n chunks reconstruct the data.  The
// encode matrix is an n x m Vandermonde right-normalized so its top m rows
// are the identity (systematic: the first m chunks are the data verbatim).
// Every m-row submatrix stays invertible under that normalization, which is
// the any-m-of-n guarantee RS-Paxos relies on.
//
// The byte work runs through the vectorized GF(256) region kernels
// (gf_kernels.hpp) with cache-blocked striping — every parity/output row is
// updated while an input block is still L1/L2-resident — and large payloads
// shard across the nested-safe parallel_for.  Outputs are bit-identical to
// the scalar path on every dispatch tier (GF arithmetic is exact), so coded
// bytes never depend on the host CPU, shard count, or thread schedule.
//
// Decode-matrix inversions are memoized per instance, keyed by the
// erasure-pattern bitmask: repeated degraded reads with the same surviving
// set pay the Gauss-Jordan invert once.  `shared(m, n)` returns a
// process-wide instance so independent callers (Paxos replicas, recovery)
// also share encode matrices and warm decode caches.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ec/gf_matrix.hpp"
#include "util/bytes.hpp"

namespace jupiter {

using Chunk = std::vector<std::uint8_t>;
/// A borrowed chunk: its index in [0, n) and a view of its bytes.
using ChunkView = std::pair<int, std::span<const std::uint8_t>>;

class ReedSolomon {
 public:
  /// theta(m, n): m data chunks, n total.  Requires 1 <= m <= n < 256.
  ReedSolomon(int m, int n);

  // The decode-matrix cache owns a mutex; instances are shared by
  // reference (see shared()), not copied.
  ReedSolomon(const ReedSolomon&) = delete;
  ReedSolomon& operator=(const ReedSolomon&) = delete;

  /// Process-wide memoized instance for theta(m, n) — thread-safe; callers
  /// that code with the same parameters share one encode matrix and one
  /// decode-matrix cache instead of rebuilding both per call.
  static const ReedSolomon& shared(int m, int n);

  int data_chunks() const { return m_; }
  int total_chunks() const { return n_; }
  int parity_chunks() const { return n_ - m_; }

  /// Splits `data` into m chunks (zero-padded to a multiple of m) and
  /// returns all n coded chunks.  Chunk size is ceil(size / m) (at least
  /// 1); the original size must be carried out-of-band (RS-Paxos stores it
  /// in the log entry).
  std::vector<Chunk> encode(const std::vector<std::uint8_t>& data) const;
  /// The same n chunks, byte for byte, without copying the payload: a data
  /// row that lies wholly inside `data` is a view of it, so it pins
  /// `data`'s buffer.  Only a row that needs zero padding is copied; parity
  /// rows own their bytes.
  std::vector<SharedBytes> encode_shared(const SharedBytes& data) const;

  /// Encodes pre-split chunks (all the same size).
  std::vector<Chunk> encode_chunks(const std::vector<Chunk>& data) const;

  /// Reconstructs the m data chunks from any >= m available chunks.
  /// `have[i]` pairs a chunk index in [0, n) with a view of its contents;
  /// the chunks are read in place, not copied.  Returns nullopt if fewer
  /// than m distinct chunks are supplied.
  std::optional<std::vector<Chunk>> reconstruct(
      const std::vector<ChunkView>& have) const;

  /// Reconstructs and concatenates the data chunks, trimming to
  /// `original_size`.  Borrows the chunks.
  std::optional<std::vector<std::uint8_t>> decode(
      std::span<const ChunkView> have, std::size_t original_size) const;
  /// decode() over owned chunks: views them and decodes.
  std::optional<std::vector<std::uint8_t>> decode(
      const std::vector<std::pair<int, Chunk>>& have,
      std::size_t original_size) const;

  const GFMatrix& encode_matrix() const { return matrix_; }

  /// Number of memoized decode-matrix inversions (tests/benchmarks).
  std::size_t decode_cache_size() const;

 private:
  // 256-bit erasure-pattern bitmask: bit i set <=> chunk i was used.
  using PatternKey = std::array<std::uint64_t, 4>;

  /// The inverted decode matrix for the (sorted, distinct) surviving-row
  /// set, memoized by bitmask.  The returned pointer stays valid for the
  /// instance's lifetime (no eviction).
  const GFMatrix* decode_matrix_for(
      const std::vector<std::size_t>& rows) const;

  /// Bytes per chunk for a payload of `size` bytes.
  std::size_t chunk_len(std::size_t size) const;
  /// The k parity rows of the m data rows `src`, `len` bytes each.
  std::vector<Chunk> parity(const std::vector<const std::uint8_t*>& src,
                            std::size_t len) const;

  int m_, n_;
  GFMatrix matrix_;  // n x m, top m rows identity

  mutable std::mutex cache_mu_;
  // Ordered map: deterministic iteration, and node stability keeps the
  // pointers decode_matrix_for hands out valid across later insertions.
  mutable std::map<PatternKey, GFMatrix> decode_cache_;
};

}  // namespace jupiter
