#include "paxos/types.hpp"

#include <algorithm>
#include <stdexcept>

namespace jupiter::paxos {

std::vector<std::uint8_t> encode_config(const std::vector<NodeId>& members) {
  std::vector<std::uint8_t> out;
  auto put32 = [&out](std::int32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put32(static_cast<std::int32_t>(members.size()));
  for (NodeId id : members) put32(id);
  return out;
}

std::vector<NodeId> decode_config(const std::vector<std::uint8_t>& bytes) {
  auto get32 = [&bytes](std::size_t off) {
    if (off + 4 > bytes.size()) throw std::invalid_argument("short config");
    std::int32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::int32_t>(bytes[off + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  std::int32_t count = get32(0);
  if (count < 0 || static_cast<std::size_t>(count) * 4 + 4 != bytes.size()) {
    throw std::invalid_argument("bad config payload");
  }
  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    members.push_back(get32(4 + static_cast<std::size_t>(i) * 4));
  }
  return members;
}

std::vector<std::uint8_t> encode_batch(const std::vector<SharedBytes>& ops) {
  std::size_t total = 4;
  for (const auto& op : ops) total += 4 + op.size();
  std::vector<std::uint8_t> out;
  out.reserve(total);
  auto put32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put32(static_cast<std::uint32_t>(ops.size()));
  for (const auto& op : ops) {
    put32(static_cast<std::uint32_t>(op.size()));
    out.insert(out.end(), op.span().begin(), op.span().end());
  }
  return out;
}

std::vector<std::span<const std::uint8_t>> batch_ops(
    std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  auto get32 = [&bytes, &off]() {
    if (off + 4 > bytes.size()) throw std::invalid_argument("short batch");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[off++]) << (8 * i);
    }
    return v;
  };
  std::uint32_t count = get32();
  std::vector<std::span<const std::uint8_t>> ops;
  // Every op costs at least its 4-byte prefix: a corrupt count cannot
  // reserve more than the buffer could hold.
  ops.reserve(std::min<std::size_t>(count, bytes.size() / 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = get32();
    if (off + len > bytes.size()) throw std::invalid_argument("short batch op");
    ops.push_back(bytes.subspan(off, len));
    off += len;
  }
  if (off != bytes.size()) throw std::invalid_argument("trailing batch bytes");
  return ops;
}

std::vector<std::vector<std::uint8_t>> decode_batch(
    const std::vector<std::uint8_t>& bytes) {
  auto views = batch_ops(bytes);
  std::vector<std::vector<std::uint8_t>> ops;
  ops.reserve(views.size());
  for (auto op : views) ops.emplace_back(op.begin(), op.end());
  return ops;
}

}  // namespace jupiter::paxos
