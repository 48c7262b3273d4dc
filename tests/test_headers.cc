// Header codec tests: roundtrips, checksum verification, corruption
// detection, and interop between the server-side codecs (src/net/headers)
// and the independent client-side raw builders (src/workload/wire).

#include <gtest/gtest.h>

#include "src/net/headers.h"
#include "src/workload/wire.h"

namespace escort {
namespace {

class HeaderTest : public ::testing::Test {
 protected:
  HeaderTest() {
    KernelConfig kc;
    kc.start_softclock = false;
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
  }

  Message NewMessage(uint64_t cap = 2048, uint64_t headroom = kFullHeadroom) {
    return Message::Alloc(kernel_.get(), kernel_->domain(0), kKernelDomain, {kKernelDomain},
                          cap, headroom);
  }

  EventQueue eq_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(HeaderTest, EthRoundtrip) {
  Message msg = NewMessage();
  EthHeader hdr;
  hdr.dst = MacAddr::FromIndex(7);
  hdr.src = MacAddr::FromIndex(9);
  hdr.ethertype = kEtherTypeIp;
  ASSERT_TRUE(WriteEthHeader(msg, kKernelDomain, hdr));
  auto parsed = ParseEthHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIp);
}

TEST_F(HeaderTest, ArpRoundtrip) {
  Message msg = NewMessage();
  ArpPacket pkt;
  pkt.opcode = 1;
  pkt.sender_mac = MacAddr::FromIndex(3);
  pkt.sender_ip = Ip4Addr::FromOctets(10, 0, 0, 3);
  pkt.target_mac = MacAddr{};
  pkt.target_ip = Ip4Addr::FromOctets(10, 0, 0, 1);
  ASSERT_TRUE(WriteArpPacket(msg, kKernelDomain, pkt));
  auto parsed = ParseArpPacket(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode, 1);
  EXPECT_EQ(parsed->sender_ip, pkt.sender_ip);
  EXPECT_EQ(parsed->target_ip, pkt.target_ip);
  EXPECT_EQ(parsed->sender_mac, pkt.sender_mac);
}

TEST_F(HeaderTest, IpRoundtripWithValidChecksum) {
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "payload!", 8);
  Ip4Header hdr;
  hdr.src = Ip4Addr::FromOctets(10, 0, 1, 1);
  hdr.dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  hdr.protocol = kIpProtoTcp;
  hdr.id = 42;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, hdr));
  auto parsed = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->total_length, kIpHeaderLen + 8);
  EXPECT_EQ(parsed->id, 42);
}

TEST_F(HeaderTest, IpChecksumDetectsCorruption) {
  Message msg = NewMessage();
  Ip4Header hdr;
  hdr.src = Ip4Addr::FromOctets(1, 2, 3, 4);
  hdr.dst = Ip4Addr::FromOctets(5, 6, 7, 8);
  hdr.protocol = kIpProtoTcp;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, hdr));
  // Flip a bit in the TTL field.
  msg.buffer()->bytes()[msg.headroom() + 8] ^= 0x01;
  auto parsed = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

class TcpHeaderSizes : public HeaderTest, public ::testing::WithParamInterface<uint64_t> {};

TEST_P(TcpHeaderSizes, TcpRoundtripWithPayload) {
  uint64_t payload_len = GetParam();
  Message msg = NewMessage(payload_len + 64);
  std::vector<uint8_t> payload(payload_len);
  for (uint64_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  msg.Append(kKernelDomain, payload.data(), payload.size());

  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 5555;
  hdr.dst_port = 80;
  hdr.seq = 123456;
  hdr.ack = 654321;
  hdr.flags = kTcpAck | kTcpPsh;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));

  auto parsed = ParseTcpHeader(msg, kKernelDomain, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src_port, 5555);
  EXPECT_EQ(parsed->seq, 123456u);
  EXPECT_EQ(parsed->flags, kTcpAck | kTcpPsh);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, TcpHeaderSizes,
                         ::testing::Values(0, 1, 2, 3, 63, 64, 128, 1024, 1460));

TEST_F(HeaderTest, TcpChecksumDetectsPayloadCorruption) {
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "GET / HTTP/1.0\r\n\r\n", 18);
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 1;
  hdr.dst_port = 80;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));
  msg.buffer()->bytes()[msg.headroom() + kTcpHeaderLen + 4] ^= 0xff;
  auto parsed = ParseTcpHeader(msg, kKernelDomain, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

TEST_F(HeaderTest, TcpChecksumBoundToPseudoHeader) {
  Message msg = NewMessage();
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 1;
  hdr.dst_port = 80;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));
  // Same bytes against a different pseudo-header (spoofed source).
  auto parsed = ParseTcpHeader(msg, kKernelDomain, Ip4Addr::FromOctets(9, 9, 9, 9), dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

// Interop: frames built by the client-side wire codec must parse with the
// server-side codecs and vice versa.
TEST_F(HeaderTest, WireBuilderInteropsWithServerCodecs) {
  MacAddr cm = MacAddr::FromIndex(100);
  MacAddr sm = MacAddr::FromIndex(1);
  Ip4Addr ci = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr si = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader tcp;
  tcp.src_port = 4242;
  tcp.dst_port = 80;
  tcp.seq = 77;
  tcp.flags = kTcpSyn;
  std::vector<uint8_t> frame = BuildTcpFrame(cm, sm, ci, si, tcp, {'h', 'i'});

  Message msg = NewMessage(frame.size(), 0);
  msg.Append(kKernelDomain, frame.data(), frame.size());

  auto eth = ParseEthHeader(msg, kKernelDomain);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->dst, sm);
  ASSERT_TRUE(msg.Strip(kEthHeaderLen));

  auto ip = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->checksum_ok);
  EXPECT_EQ(ip->src, ci);
  ASSERT_TRUE(msg.Strip(kIpHeaderLen));

  auto parsed = ParseTcpHeader(msg, kKernelDomain, ci, si);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src_port, 4242);
  EXPECT_EQ(parsed->flags, kTcpSyn);
}

TEST_F(HeaderTest, ServerFramesParseWithWireParser) {
  // Build a server-side frame: TCP + IP + ETH via the Message codecs.
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "response", 8);
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 0, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 1, 1);
  TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = 4242;
  tcp.seq = 99;
  tcp.flags = kTcpAck | kTcpPsh;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, tcp, src, dst));
  Ip4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = kIpProtoTcp;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, ip));
  EthHeader eth;
  eth.dst = MacAddr::FromIndex(100);
  eth.src = MacAddr::FromIndex(1);
  eth.ethertype = kEtherTypeIp;
  ASSERT_TRUE(WriteEthHeader(msg, kKernelDomain, eth));

  auto frame = ParseFrame(msg.CopyOut(kKernelDomain));
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(frame->is_tcp);
  EXPECT_TRUE(frame->ip.checksum_ok);
  EXPECT_TRUE(frame->tcp.checksum_ok);
  EXPECT_EQ(frame->tcp.src_port, 80);
  EXPECT_EQ(std::string(frame->payload.begin(), frame->payload.end()), "response");
}

TEST(AddressTest, SubnetMatching) {
  Subnet trusted{Ip4Addr::FromOctets(10, 0, 0, 0), 8};
  EXPECT_TRUE(trusted.Contains(Ip4Addr::FromOctets(10, 200, 3, 4)));
  EXPECT_FALSE(trusted.Contains(Ip4Addr::FromOctets(192, 168, 1, 1)));
  Subnet all{Ip4Addr{0}, 0};
  EXPECT_TRUE(all.Contains(Ip4Addr::FromOctets(8, 8, 8, 8)));
  Subnet host{Ip4Addr::FromOctets(10, 0, 0, 1), 32};
  EXPECT_TRUE(host.Contains(Ip4Addr::FromOctets(10, 0, 0, 1)));
  EXPECT_FALSE(host.Contains(Ip4Addr::FromOctets(10, 0, 0, 2)));
}

TEST(AddressTest, Formatting) {
  EXPECT_EQ(Ip4Addr::FromOctets(10, 0, 0, 1).ToString(), "10.0.0.1");
  EXPECT_EQ((Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8}).ToString(), "10.0.0.0/8");
  MacAddr mac = MacAddr::FromIndex(1);
  EXPECT_EQ(mac.ToString(), "02:00:00:00:00:01");
  EXPECT_TRUE(MacAddr::Broadcast().IsBroadcast());
}

TEST(AddressTest, MacIndexInvertsFromIndex) {
  for (uint64_t i : {0ULL, 1ULL, 255ULL, 256ULL, 250000ULL, 0xffffffffULL}) {
    EXPECT_EQ(MacAddr::FromIndex(i).ToIndex(), i);
  }
  // FromIndex keeps the low 32 bits.
  EXPECT_EQ(MacAddr::FromIndex(0x100000005ULL).ToIndex(), 5u);
  EXPECT_FALSE(MacAddr::Broadcast().ToIndex().has_value());
  EXPECT_FALSE(MacAddr{}.ToIndex().has_value());
  MacAddr mac = MacAddr::FromIndex(9);
  mac.bytes[1] = 0x01;
  EXPECT_FALSE(mac.ToIndex().has_value());
  // Ascending index is ascending byte order.
  EXPECT_LT(MacAddr::FromIndex(255).bytes, MacAddr::FromIndex(256).bytes);
  EXPECT_LT(MacAddr::FromIndex(65535).bytes, MacAddr::FromIndex(250000).bytes);
}

TEST(AddressTest, ArpTableInsertOverwriteAndMiss) {
  ArpTable table;
  const Ip4Addr a = Ip4Addr::FromOctets(10, 0, 1, 1);
  const Ip4Addr b = Ip4Addr::FromOctets(10, 0, 1, 2);
  const Ip4Addr c = Ip4Addr::FromOctets(10, 8, 0, 0);
  EXPECT_FALSE(table.Find(a).has_value());
  // Out of order: the middle entry lands between its neighbours.
  table.Set(c, MacAddr::FromIndex(3));
  table.Set(a, MacAddr::FromIndex(1));
  table.Set(b, MacAddr::FromIndex(2));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(a), MacAddr::FromIndex(1));
  EXPECT_EQ(table.Find(b), MacAddr::FromIndex(2));
  EXPECT_EQ(table.Find(c), MacAddr::FromIndex(3));

  table.Set(b, MacAddr::FromIndex(20));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(b), MacAddr::FromIndex(20));
  EXPECT_EQ(table.Find(a), MacAddr::FromIndex(1));

  EXPECT_FALSE(table.Find(Ip4Addr::FromOctets(10, 0, 1, 0)).has_value());   // below all
  EXPECT_FALSE(table.Find(Ip4Addr::FromOctets(10, 0, 1, 3)).has_value());   // between
  EXPECT_FALSE(table.Find(Ip4Addr::FromOctets(10, 9, 0, 0)).has_value());   // above all
}

TEST(AddressTest, ConnKeyOrderingAndEquality) {
  ConnKey a{Ip4Addr{1}, 80, Ip4Addr{2}, 4000};
  ConnKey b{Ip4Addr{1}, 80, Ip4Addr{2}, 4001};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a == b);
  ConnKey c = a;
  EXPECT_TRUE(a == c);
}

}  // namespace
}  // namespace escort
