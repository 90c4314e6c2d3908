#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace jupiter {
namespace {

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.i64(-123456789012345LL);
  w.str("hello");
  w.bytes(std::vector<std::uint8_t>{1, 2, 3});
  auto buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.i64(), -123456789012345LL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EmptyStringAndBytes) {
  ByteWriter w;
  w.str("");
  w.bytes({});
  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ShortBufferThrows) {
  std::vector<std::uint8_t> buf = {1, 2};
  ByteReader r(buf);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.str("hello");
  auto buf = w.take();
  buf.resize(buf.size() - 2);
  ByteReader r(buf);
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  auto buf = w.take();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, DoneIsFalseMidway) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  auto buf = w.take();
  ByteReader r(buf);
  r.u8();
  EXPECT_FALSE(r.done());
  r.u8();
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace jupiter
