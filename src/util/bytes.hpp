// Byte buffers.  ByteWriter/ByteReader serialize commands: fixed-width
// little-endian integers and length-prefixed strings, deterministic across
// platforms, which replicated state machines require.  SharedBytes is the
// one immutable byte type of the Paxos path: a view of all or part of a
// shared buffer, so a value, one op of a batch, a stored put or a
// systematic Reed-Solomon chunk is held without copying its bytes.
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

/// Immutable, reference-counted bytes: a view of all or part of one shared
/// allocation.  A copy shares the allocation, so a value held by a message
/// in flight, an acceptor, a learner, a chunk log and a state machine costs
/// its bytes once.  A view of part of it (view()) keeps the whole
/// allocation alive.  Equality compares content, not identity.  An empty
/// view allocates and pins nothing.  Readers take span().
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Takes ownership of `bytes` without copying them.  Implicit, so a
  /// freshly built vector assigns straight into a value's payload.
  SharedBytes(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const std::vector<std::uint8_t>>(
                                 std::move(bytes))),
        data_(buf_ ? buf_->data() : nullptr),
        size_(buf_ ? buf_->size() : 0) {}

  SharedBytes(const SharedBytes&) = default;
  SharedBytes& operator=(const SharedBytes&) = default;
  /// A moved-from view is empty.
  SharedBytes(SharedBytes&& other) noexcept
      : buf_(std::move(other.buf_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    buf_ = std::move(other.buf_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// The part of this view that `part` covers, sharing its allocation.
  /// Throws std::out_of_range unless `part` lies inside this view; an empty
  /// `part` gives an empty view.
  SharedBytes view(std::span<const std::uint8_t> part) const {
    if (part.empty()) return {};
    std::less<const std::uint8_t*> before;
    if (data_ == nullptr || before(part.data(), data_) ||
        before(data_ + size_, part.data() + part.size())) {
      throw std::out_of_range("view outside its buffer");
    }
    SharedBytes v;
    v.buf_ = buf_;
    v.data_ = part.data();
    v.size_ = part.size();
    return v;
  }

  /// The whole allocation this view lies in (empty when it pins none).
  SharedBytes buffer() const {
    SharedBytes b;
    if (buf_) {
      b.buf_ = buf_;
      b.data_ = buf_->data();
      b.size_ = buf_->size();
    }
    return b;
  }

  /// First byte of the view; nullptr when empty.
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::uint8_t> span() const { return {data_, size_}; }
  /// An owned copy of the bytes.  Explicit, so no copy is ever implicit.
  explicit operator std::vector<std::uint8_t>() const {
    return std::vector<std::uint8_t>(data_, data_ + size_);
  }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return (a.data_ == b.data_ && a.size_ == b.size_) ||
           std::ranges::equal(a.span(), b.span());
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> buf_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
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
