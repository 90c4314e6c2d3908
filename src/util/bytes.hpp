// Byte buffers.  ByteWriter/ByteReader serialize commands: fixed-width
// little-endian integers and length-prefixed strings, deterministic across
// platforms, which replicated state machines require.  SharedBytes is the
// immutable, shared buffer that Paxos values travel in; ByteSlice is an
// owning view of part of one, which is how a state machine keeps an op's
// bytes without copying them out of the log.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jupiter {

/// Immutable, reference-counted bytes.  A copy shares the one allocation,
/// so a value held by a message in flight, an acceptor, a learner and a
/// chunk log costs its bytes once.  Equality compares content, not
/// identity.  An empty buffer allocates nothing.  Readers take it as the
/// `const std::vector<std::uint8_t>&` it converts to.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Takes ownership of `bytes` without copying them.  Implicit, so a
  /// freshly built vector assigns straight into a value's payload.
  SharedBytes(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const std::vector<std::uint8_t>>(
                                 std::move(bytes))) {}

  const std::vector<std::uint8_t>& vec() const {
    return buf_ ? *buf_ : kNoBytes;
  }
  operator const std::vector<std::uint8_t>&() const { return vec(); }

  std::size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  /// Start of the shared allocation; nullptr when empty.  Two buffers with
  /// the same non-null data() share storage.
  const std::uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.buf_ == b.buf_ || a.vec() == b.vec();
  }

 private:
  inline static const std::vector<std::uint8_t> kNoBytes{};
  std::shared_ptr<const std::vector<std::uint8_t>> buf_;
};

/// A sub-range of a SharedBytes buffer that keeps the whole buffer alive:
/// one op of a batched log entry, or the value inside a put command, held
/// by a state machine at the cost of a reference, not a copy.  Equality
/// compares content.
class ByteSlice {
 public:
  ByteSlice() = default;
  /// The whole of `buf`.
  explicit ByteSlice(SharedBytes buf)
      : buf_(std::move(buf)), len_(buf_.size()) {}
  /// The part of `buf` that `part` views.  Throws std::out_of_range unless
  /// `part` lies inside `buf`; an empty `part` is an empty slice.
  ByteSlice(SharedBytes buf, std::span<const std::uint8_t> part)
      : buf_(std::move(buf)), len_(part.size()) {
    if (part.empty()) return;
    const std::uint8_t* lo = buf_.data();
    const std::uint8_t* hi = lo + buf_.size();
    std::less<const std::uint8_t*> before;
    if (lo == nullptr || before(part.data(), lo) ||
        before(hi, part.data() + part.size())) {
      throw std::out_of_range("slice outside its buffer");
    }
    off_ = static_cast<std::size_t>(part.data() - lo);
  }

  const std::uint8_t* data() const {
    return buf_.empty() ? nullptr : buf_.data() + off_;
  }
  std::size_t size() const { return len_; }
  std::span<const std::uint8_t> span() const { return {data(), len_}; }
  /// The buffer this slice pins.
  const SharedBytes& buffer() const { return buf_; }

  friend bool operator==(const ByteSlice& a, const ByteSlice& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  SharedBytes buf_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return static_cast<std::int64_t>(v);
  }
  std::string str() {
    std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    auto b = bytes_view();
    return {b.begin(), b.end()};
  }
  /// A length-prefixed byte string, viewed in place in the reader's buffer.
  std::span<const std::uint8_t> bytes_view() {
    std::uint32_t len = u32();
    need(len);
    auto b = buf_.subspan(pos_, len);
    pos_ += len;
    return b;
  }
  bool done() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw std::out_of_range("short buffer");
  }
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace jupiter
