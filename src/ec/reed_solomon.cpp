#include "ec/reed_solomon.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ec/gf_kernels.hpp"
#include "obs/obs.hpp"
#include "util/shared_state_audit.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {
namespace {

// Cache-blocked striping: within one block every output row consumes the
// input column while it is still L1/L2-resident (m input blocks + k output
// blocks of 8 KiB stay well inside L2 for the storage-service shapes).
constexpr std::size_t kBlockBytes = 8 * 1024;

// Payload shards handed to parallel_for.  Shards are byte-disjoint and every
// output byte depends only on the same offset of the inputs, so the result
// is identical for any shard count / thread schedule.
constexpr std::size_t kShardBytes = 128 * 1024;

/// dst[r][lo, hi) = sum_c mat(row0 + r, c) * src[c][lo, hi), blocked.  The
/// first term is written, not accumulated, so dst's prior bytes are never
/// read.
void coded_mul_range(const GFMatrix& mat, std::size_t row0,
                     const std::vector<const std::uint8_t*>& src,
                     const std::vector<std::uint8_t*>& dst, std::size_t lo,
                     std::size_t hi) {
  for (std::size_t b0 = lo; b0 < hi; b0 += kBlockBytes) {
    const std::size_t blen = std::min(kBlockBytes, hi - b0);
    for (std::size_t c = 0; c < src.size(); ++c) {
      const std::uint8_t* s = src[c] + b0;
      for (std::size_t r = 0; r < dst.size(); ++r) {
        if (c == 0) {
          gf_mul_region(mat.at(row0 + r, c), s, dst[r] + b0, blen);
        } else {
          gf_muladd_region(mat.at(row0 + r, c), s, dst[r] + b0, blen);
        }
      }
    }
  }
}

/// Full-length coded product, sharded across the global pool when large.
void coded_mul(const GFMatrix& mat, std::size_t row0,
               const std::vector<const std::uint8_t*>& src,
               const std::vector<std::uint8_t*>& dst, std::size_t len) {
  if (dst.empty() || len == 0) return;
  if (len >= 2 * kShardBytes) {
    const std::size_t shards = (len + kShardBytes - 1) / kShardBytes;
    // par: owned — shards write disjoint [lo, hi) byte ranges of dst
    parallel_for(global_pool(), shards, [&](std::size_t i) {
      const std::size_t lo = i * kShardBytes;
      const std::size_t hi = std::min(lo + kShardBytes, len);
      coded_mul_range(mat, row0, src, dst, lo, hi);
    });
  } else {
    coded_mul_range(mat, row0, src, dst, 0, len);
  }
}

}  // namespace

ReedSolomon::ReedSolomon(int m, int n) : m_(m), n_(n) {
  if (m < 1 || n < m || n >= GF256::kFieldSize) {
    throw std::invalid_argument("bad theta(m, n)");
  }
  GFMatrix v = GFMatrix::vandermonde(static_cast<std::size_t>(n),
                                     static_cast<std::size_t>(m));
  // Right-normalize: V * (top m rows)^-1 makes the top the identity while
  // preserving invertibility of every m-row submatrix.
  std::vector<std::size_t> top(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) top[static_cast<std::size_t>(i)] = static_cast<std::size_t>(i);
  matrix_ = v.mul(v.select_rows(top).inverted());
}

const ReedSolomon& ReedSolomon::shared(int m, int n) {
  // Coding output is independent of which thread populates an entry first.
  // detlint: allow(par-shared) — guards the manifest-listed registry below
  static std::mutex mu;
  static std::map<std::pair<int, int>, ReedSolomon>* registry =
      new std::map<std::pair<int, int>, ReedSolomon>();  // leaked: outlives all users
  // detlint: allow(par-shared) — the registry's audit token, same guard
  static AuditToken audit("ReedSolomon::shared", AuditMode::kSerialized);
  std::lock_guard<std::mutex> lk(mu);
  AuditWriteScope scope(audit, "ReedSolomon::shared");
  auto it = registry->find({m, n});
  if (it == registry->end()) {
    it = registry
             ->emplace(std::piecewise_construct,
                       std::forward_as_tuple(m, n),
                       std::forward_as_tuple(m, n))
             .first;
  }
  return it->second;
}

std::vector<Chunk> ReedSolomon::encode_chunks(
    const std::vector<Chunk>& data) const {
  if (static_cast<int>(data.size()) != m_) {
    throw std::invalid_argument("need exactly m data chunks");
  }
  std::size_t len = data[0].size();
  std::vector<const std::uint8_t*> src;
  src.reserve(data.size());
  for (const auto& c : data) {
    if (c.size() != len) throw std::invalid_argument("unequal chunk sizes");
    src.push_back(c.data());
  }
  // Systematic: the data rows are the input verbatim.
  std::vector<Chunk> out = parity(src, len);
  out.insert(out.begin(), data.begin(), data.end());
  return out;
}

std::size_t ReedSolomon::chunk_len(std::size_t size) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  return std::max<std::size_t>((size + m - 1) / m, 1);  // never empty
}

namespace {

/// Data row `c` of `data` split into rows of `len` bytes, zero-padded.
Chunk padded_row(std::span<const std::uint8_t> data, int c, std::size_t len) {
  const std::size_t lo =
      std::min(static_cast<std::size_t>(c) * len, data.size());
  const std::size_t hi = std::min(lo + len, data.size());
  Chunk row;
  row.reserve(len);
  row.assign(data.begin() + static_cast<std::ptrdiff_t>(lo),
             data.begin() + static_cast<std::ptrdiff_t>(hi));
  row.resize(len, 0);
  return row;
}

void observe_encode(std::size_t bytes) {
  if (obs::Registry* reg = obs::metrics()) {
    // Payload-size distribution feeding the SIMD kernels; one TLS load and
    // a branch when observability is off, so the 1.97 GB/s path is safe.
    reg->det_histogram("ec.encode_bytes").observe(bytes);
  }
}

}  // namespace

std::vector<Chunk> ReedSolomon::encode(
    const std::vector<std::uint8_t>& data) const {
  observe_encode(data.size());
  const std::size_t len = chunk_len(data.size());
  std::vector<Chunk> out;
  out.reserve(static_cast<std::size_t>(n_));
  std::vector<const std::uint8_t*> src;
  src.reserve(static_cast<std::size_t>(m_));
  for (int c = 0; c < m_; ++c) {
    out.push_back(padded_row(data, c, len));
    src.push_back(out.back().data());
  }
  for (Chunk& row : parity(src, len)) out.push_back(std::move(row));
  return out;
}

std::vector<SharedBytes> ReedSolomon::encode_shared(
    const SharedBytes& data) const {
  observe_encode(data.size());
  const std::size_t len = chunk_len(data.size());
  std::vector<SharedBytes> out;
  out.reserve(static_cast<std::size_t>(n_));
  std::vector<const std::uint8_t*> src;
  src.reserve(static_cast<std::size_t>(m_));
  for (int c = 0; c < m_; ++c) {
    const std::size_t lo = static_cast<std::size_t>(c) * len;
    if (lo + len <= data.size()) {
      out.push_back(data.view(data.span().subspan(lo, len)));
    } else {
      out.emplace_back(padded_row(data.span(), c, len));
    }
    src.push_back(out.back().data());
  }
  for (Chunk& row : parity(src, len)) out.emplace_back(std::move(row));
  return out;
}

std::vector<Chunk> ReedSolomon::parity(
    const std::vector<const std::uint8_t*>& src, std::size_t len) const {
  std::vector<Chunk> rows;
  rows.reserve(static_cast<std::size_t>(n_ - m_));
  std::vector<std::uint8_t*> dst;
  dst.reserve(static_cast<std::size_t>(n_ - m_));
  for (int r = m_; r < n_; ++r) {
    // coded_mul writes every byte; std::vector still value-initializes.
    dst.push_back(rows.emplace_back(len).data());
  }
  coded_mul(matrix_, static_cast<std::size_t>(m_), src, dst, len);
  return rows;
}

const GFMatrix* ReedSolomon::decode_matrix_for(
    const std::vector<std::size_t>& rows) const {
  PatternKey key{};
  for (std::size_t idx : rows) key[idx / 64] |= std::uint64_t{1} << (idx % 64);
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    auto it = decode_cache_.find(key);
    if (it != decode_cache_.end()) return &it->second;
  }
  // Invert outside the lock (Gauss-Jordan is the expensive part); a racing
  // duplicate computes the same matrix and the first insert wins.
  GFMatrix inv = matrix_.select_rows(rows).inverted();
  std::lock_guard<std::mutex> lk(cache_mu_);
  auto it = decode_cache_.emplace(key, std::move(inv)).first;
  return &it->second;
}

std::size_t ReedSolomon::decode_cache_size() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return decode_cache_.size();
}

std::optional<std::vector<Chunk>> ReedSolomon::reconstruct(
    const std::vector<ChunkView>& have) const {
  // Deduplicate indices, keep the first m.
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> rows;
  for (const auto& [idx, chunk] : have) {
    if (idx < 0 || idx >= n_) throw std::out_of_range("chunk index");
    bool dup = false;
    for (const auto& [i, _] : rows) {
      if (i == static_cast<std::size_t>(idx)) {
        dup = true;
        break;
      }
    }
    if (!dup) rows.emplace_back(static_cast<std::size_t>(idx), chunk);
    if (static_cast<int>(rows.size()) == m_) break;
  }
  if (static_cast<int>(rows.size()) < m_) return std::nullopt;

  std::size_t len = rows[0].second.size();
  for (const auto& [_, c] : rows) {
    if (c.size() != len) throw std::invalid_argument("unequal chunk sizes");
  }

  // Canonical row order for the memoized decode matrix.  Sorting permutes
  // matrix rows and chunk rows together, which leaves the solved data
  // unchanged (same linear system, reordered equations — GF arithmetic is
  // exact, so bit-identical too).
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<Chunk> data;
  data.reserve(static_cast<std::size_t>(m_));

  // Fast path: all m data chunks survived (sorted + distinct + < m means
  // exactly rows 0..m-1) — the decode matrix is the identity, and each data
  // row is a copy of its chunk.
  if (rows.back().first < static_cast<std::size_t>(m_)) {
    for (const auto& [_, c] : rows) data.emplace_back(c.begin(), c.end());
    return data;
  }
  // coded_mul writes every byte; std::vector still value-initializes.
  for (int r = 0; r < m_; ++r) data.emplace_back(len);

  std::vector<std::size_t> idxs;
  idxs.reserve(rows.size());
  for (const auto& [i, _] : rows) idxs.push_back(i);
  const GFMatrix* dec = decode_matrix_for(idxs);

  std::vector<const std::uint8_t*> src;
  src.reserve(rows.size());
  for (const auto& [_, c] : rows) src.push_back(c.data());
  std::vector<std::uint8_t*> dst;
  dst.reserve(data.size());
  for (auto& d : data) dst.push_back(d.data());
  coded_mul(*dec, 0, src, dst, len);
  return data;
}

std::optional<std::vector<std::uint8_t>> ReedSolomon::decode(
    const std::vector<std::pair<int, Chunk>>& have,
    std::size_t original_size) const {
  std::vector<ChunkView> views(have.begin(), have.end());
  return decode(views, original_size);
}

std::optional<std::vector<std::uint8_t>> ReedSolomon::decode(
    std::span<const ChunkView> have, std::size_t original_size) const {
  auto data = reconstruct({have.begin(), have.end()});
  if (!data) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve((*data).size() * (*data)[0].size());
  for (const auto& c : *data) out.insert(out.end(), c.begin(), c.end());
  if (out.size() < original_size) {
    throw std::invalid_argument("original_size larger than decoded data");
  }
  out.resize(original_size);
  return out;
}

}  // namespace jupiter
