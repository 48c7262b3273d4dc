// Unit-level network tests: routing table, ARP protocol behaviour, and the
// web server under each of the three configurable schedulers.

#include <gtest/gtest.h>

#include "tests/testbed.h"

namespace escort {
namespace {

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable table;
  table.Add(Route{Subnet{Ip4Addr{0}, 0}, Ip4Addr::FromOctets(10, 0, 0, 254), 10});  // default gw
  table.Add(Route{Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8}, Ip4Addr{0}, 5});     // on-link

  // 10/8 destination: on-link (next hop == destination).
  auto hop = table.Lookup(Ip4Addr::FromOctets(10, 1, 2, 3));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, Ip4Addr::FromOctets(10, 1, 2, 3));

  // Anything else: via the default gateway.
  hop = table.Lookup(Ip4Addr::FromOctets(8, 8, 8, 8));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, Ip4Addr::FromOctets(10, 0, 0, 254));
}

TEST(RoutingTable, EmptyTableIsUnroutable) {
  RoutingTable table;
  EXPECT_FALSE(table.Lookup(Ip4Addr::FromOctets(1, 2, 3, 4)).has_value());
}

TEST(RoutingTable, MetricBreaksTies) {
  RoutingTable table;
  table.Add(Route{Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8}, Ip4Addr::FromOctets(10, 9, 9, 1), 20});
  table.Add(Route{Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8}, Ip4Addr::FromOctets(10, 9, 9, 2), 5});
  auto hop = table.Lookup(Ip4Addr::FromOctets(10, 1, 1, 1));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, Ip4Addr::FromOctets(10, 9, 9, 2));
}

TEST(ArpModule, ResolveAfterStaticEntry) {
  Testbed tb(ServerConfig::kAccounting);
  ArpModule* arp = tb.server->arp();
  EXPECT_FALSE(arp->Resolve(Ip4Addr::FromOctets(10, 0, 5, 5)).has_value());
  arp->AddEntry(Ip4Addr::FromOctets(10, 0, 5, 5), MacAddr::FromIndex(55));
  auto mac = arp->Resolve(Ip4Addr::FromOctets(10, 0, 5, 5));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddr::FromIndex(55));
}

TEST(ArpModule, LearnsFromIncomingRequests) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  size_t before = tb.server->arp()->table_size();
  ArpPacket req;
  req.opcode = 1;
  req.sender_mac = MacAddr::FromIndex(200);
  req.sender_ip = Ip4Addr::FromOctets(10, 0, 9, 9);
  req.target_ip = tb.server->options().ip;
  m->Transmit(BuildArpFrame(MacAddr::FromIndex(200), MacAddr::Broadcast(), req));
  tb.RunFor(0.05);
  EXPECT_EQ(tb.server->arp()->table_size(), before + 1);
  EXPECT_EQ(tb.server->arp()->requests_answered(), 1u);
  auto mac = tb.server->arp()->Resolve(Ip4Addr::FromOctets(10, 0, 9, 9));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddr::FromIndex(200));
}

TEST(ArpModule, RequestsForOthersNotAnswered) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  ArpPacket req;
  req.opcode = 1;
  req.sender_mac = m->mac();
  req.sender_ip = m->ip();
  req.target_ip = Ip4Addr::FromOctets(10, 0, 0, 200);  // not the server
  m->Transmit(BuildArpFrame(m->mac(), MacAddr::Broadcast(), req));
  tb.RunFor(0.05);
  EXPECT_EQ(tb.server->arp()->requests_answered(), 0u);
}

TEST(IpModule, UnroutableOutboundTriggersArpRequest) {
  Testbed tb(ServerConfig::kAccounting);
  // A SYN from a peer the server has no ARP entry for: the SYN-ACK cannot
  // be sent, so IP kicks off resolution; the client answers the request,
  // and the server's SYN-ACK retransmission then succeeds.
  Ip4Addr ip = Ip4Addr::FromOctets(10, 0, 1, 77);
  ClientMachine fresh(&tb.eq, tb.link.get(), MacAddr::FromIndex(77), ip,
                      NetworkModel::Calibrated(), 3);
  fresh.AddArpEntry(tb.server->options().ip, tb.server->options().mac);
  // NOTE: no tb.server->AddArpEntry for this client.
  HttpClient client(&fresh, tb.server->options().ip, "/doc1b");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(2.0);
  EXPECT_GT(tb.server->ip_module()->unroutable(), 0u);
  EXPECT_EQ(client.completed(), 1u);  // recovered via ARP + retransmit
}

class SchedulerSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerSweep, WebServerWorksUnderEveryScheduler) {
  WebServerOptions opts;
  opts.scheduler = GetParam();
  Testbed tb(ServerConfig::kAccounting, opts);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1k");
  client.max_requests = 5;
  client.Start();
  tb.RunFor(1.0);
  EXPECT_EQ(client.completed(), 5u);
  EXPECT_EQ(client.failed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::Values(SchedulerKind::kPriority,
                                           SchedulerKind::kProportionalShare),
                         [](const ::testing::TestParamInfo<SchedulerKind>& pinfo) {
                           switch (pinfo.param) {
                             case SchedulerKind::kPriority: return "priority";
                             case SchedulerKind::kProportionalShare: return "stride";
                           }
                           return "?";
                         });

TEST(EthDriver, NonIpNonArpFramesDropped) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  // An IPX-ish frame: ethertype 0x8137.
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(tb.server->options().mac.bytes.begin(), 6, frame.begin());
  std::copy_n(m->mac().bytes.begin(), 6, frame.begin() + 6);
  frame[12] = 0x81;
  frame[13] = 0x37;
  m->Transmit(frame);
  tb.RunFor(0.05);
  EXPECT_EQ(tb.server->paths().drop_count("eth-type"), 1u);
}

TEST(EthDriver, FramesForOtherMacsIgnored) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  TcpHeader syn;
  syn.src_port = 1;
  syn.dst_port = 80;
  syn.flags = kTcpSyn;
  // Unicast-addressed to a third party, but delivered here (hub behaviour
  // is emulated by addressing the frame to the server MAC at the link
  // layer destination while the inner dst differs — build to wrong MAC).
  std::vector<uint8_t> frame = BuildTcpFrame(m->mac(), MacAddr::FromIndex(42), m->ip(),
                                             tb.server->options().ip, syn, {});
  // Force-deliver to the server as if the hub flooded it.
  tb.server->DeliverFrame(frame);
  tb.RunFor(0.05);
  EXPECT_EQ(tb.server->paths().drop_count("eth-notus"), 1u);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 0u);
}

}  // namespace
}  // namespace escort
