// Byte buffers.  ByteWriter/ByteReader serialize commands: fixed-width
// little-endian integers and length-prefixed strings, deterministic across
// platforms, which replicated state machines require.  SharedBytes is the
// immutable, shared buffer that Paxos values travel in.
#pragma once

#include <cstdint>
#include <memory>
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

class ByteWriter {
 public:
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
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

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
    std::uint32_t len = u32();
    need(len);
    std::vector<std::uint8_t> b(buf_.begin() + static_cast<long>(pos_),
                                buf_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return b;
  }
  bool done() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw std::out_of_range("short buffer");
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace jupiter
