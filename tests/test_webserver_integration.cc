// End-to-end integration tests: the full web server over real frames, in
// all three configurations — request completion, accounting conservation,
// resource reclamation, DoS policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/sim/metrics.h"
#include "tests/testbed.h"

namespace escort {
namespace {

class ConfigSweep : public ::testing::TestWithParam<ServerConfig> {};

TEST_P(ConfigSweep, ClientFetchesDocumentEndToEnd) {
  Testbed tb(GetParam());
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1k");
  client.max_requests = 3;
  client.Start();
  tb.RunFor(1.0);

  EXPECT_EQ(client.completed(), 3u);
  EXPECT_EQ(client.failed(), 0u);
  // 3 x (response header + 1024 bytes body).
  EXPECT_GT(client.bytes_received(), 3 * 1024u);
  EXPECT_EQ(tb.server->http()->responses_sent(), 3u);
}

TEST_P(ConfigSweep, AccountingConservationUnderLoad) {
  Testbed tb(GetParam());
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        std::make_unique<HttpClient>(tb.AddClient(i), tb.server->options().ip, "/doc1b"));
    clients.back()->Start(CyclesFromMillis(i));
  }
  tb.RunFor(0.5);
  // Every cycle of simulated time is charged to exactly one owner. The
  // snapshot is taken mid-flight; the kernel reports the one in-flight busy
  // segment's uncharged cycles, making the invariant exact at any instant.
  CycleLedger ledger = tb.server->kernel().Snapshot();
  int64_t elapsed =
      static_cast<int64_t>(tb.eq.now() - tb.server->kernel().start_time());
  EXPECT_EQ(static_cast<int64_t>(ledger.Total()) +
                tb.server->kernel().UnsettledBusyCycles(),
            elapsed);
  EXPECT_GT(ledger.Get("Main Active Path"), 0u);
  EXPECT_GT(ledger.Get("Passive SYN Path"), 0u);
}

TEST_P(ConfigSweep, PathsAreReclaimedAfterConnectionsClose) {
  Testbed tb(GetParam());
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 5;
  client.Start();
  tb.RunFor(1.5);

  EXPECT_EQ(client.completed(), 5u);
  // All active paths destroyed: only the boot-time paths remain (ARP path +
  // two passive listeners).
  EXPECT_EQ(tb.server->paths().live_count(), 3u);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 0u);
}

TEST_P(ConfigSweep, NotFoundProduces404) {
  Testbed tb(GetParam());
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/missing");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(0.5);
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(tb.server->http()->errors_sent(), 1u);
  EXPECT_EQ(tb.server->fs()->lookup_failures(), 1u);
}

TEST_P(ConfigSweep, BenignCgiProducesOutput) {
  Testbed tb(GetParam());
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/cgi-bin/hello");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(0.5);
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(tb.server->cgi()->scripts_started(), 1u);
  EXPECT_GT(client.bytes_received(), 30u);  // "Hello from the Escort CGI module\n"
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigSweep,
                         ::testing::Values(ServerConfig::kScout, ServerConfig::kAccounting,
                                           ServerConfig::kAccountingPd),
                         [](const ::testing::TestParamInfo<ServerConfig>& pinfo) { return ServerConfigName(pinfo.param); });

TEST(WebServerIntegration, FsCacheMissesDiskThenHits) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc10k");
  client.max_requests = 3;
  client.Start();
  tb.RunFor(1.5);
  EXPECT_EQ(client.completed(), 3u);
  EXPECT_EQ(tb.server->fs()->cache_misses(), 1u);  // first access reads the disk
  EXPECT_EQ(tb.server->fs()->cache_hits(), 2u);
  EXPECT_EQ(tb.server->scsi()->reads_issued(), 1u);
}

TEST(WebServerIntegration, RunawayCgiIsDetectedAndKilled) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  CgiAttacker attacker(m, tb.server->options().ip, CyclesFromSeconds(10));  // one attack
  attacker.Start();
  tb.RunFor(0.5);

  EXPECT_EQ(tb.server->cgi()->runaways_started(), 1u);
  EXPECT_EQ(tb.server->kernel().runaway_detections(), 1u);
  EXPECT_EQ(tb.server->paths_killed(), 1u);
  // The runaway burned roughly the 2 ms budget before detection.
  EXPECT_GT(tb.server->cgi()->runaway_chunks_run(), 10u);
  // All path resources reclaimed; only boot paths remain.
  EXPECT_EQ(tb.server->paths().live_count(), 3u);
  EXPECT_GT(tb.server->kill_cost_cycles().Mean(), 0.0);
}

TEST(WebServerIntegration, RunawayDoesNotStarveOtherClients) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* good = tb.AddClient(0);
  HttpClient client(good, tb.server->options().ip, "/doc1b");
  client.Start();
  ClientMachine* bad = tb.AddClient(1);
  CgiAttacker attacker(bad, tb.server->options().ip, CyclesFromMillis(100));
  attacker.Start(CyclesFromMillis(50));
  tb.RunFor(1.0);

  EXPECT_GT(tb.server->paths_killed(), 3u);
  // The good client keeps completing requests throughout.
  EXPECT_GT(client.completed(), 100u);
}

TEST(WebServerIntegration, SynFloodDroppedAtDemuxTrustedUnaffected) {
  Testbed tb(ServerConfig::kAccounting);
  // Untrusted SYN attacker at 2000/s.
  MacAddr amac = MacAddr::FromIndex(60);
  SynAttacker attacker(&tb.eq, tb.link.get(), amac, Ip4Addr::FromOctets(192, 168, 9, 9),
                       tb.server->options().ip, tb.server->options().mac, 2000.0);
  attacker.Start();

  ClientMachine* good = tb.AddClient(0);
  HttpClient client(good, tb.server->options().ip, "/doc1b");
  client.Start();
  tb.RunFor(1.0);

  TcpListener* untrusted = tb.server->untrusted_listener();
  EXPECT_GT(attacker.syns_sent(), 1500u);
  EXPECT_GT(untrusted->syns_dropped_at_demux, 1000u);
  // Half-open connections bounded by the listener budget.
  EXPECT_LE(untrusted->syn_recvd, tb.server->options().untrusted_syn_limit);
  // Trusted client service continues.
  EXPECT_GT(client.completed(), 100u);
  EXPECT_EQ(client.failed(), 0u);
}

TEST(WebServerIntegration, HalfOpenConnectionsTimeOutAndAreReclaimed) {
  WebServerOptions opts;
  opts.untrusted_syn_limit = 0;  // no demux budget: rely on SYN_RECVD timeout
  Testbed tb(ServerConfig::kAccounting, opts);
  MacAddr amac = MacAddr::FromIndex(60);
  SynAttacker attacker(&tb.eq, tb.link.get(), amac, Ip4Addr::FromOctets(192, 168, 9, 9),
                       tb.server->options().ip, tb.server->options().mac, 100.0);
  attacker.Start();
  tb.RunFor(0.4);
  EXPECT_GT(tb.server->tcp()->conn_count(), 10u);  // half-open paths alive
  attacker.Stop();
  // The untrusted listener slow-walks half-open connections for 1.5 s;
  // everything must be reclaimed afterwards.
  tb.RunFor(2.0);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 0u);
  EXPECT_EQ(tb.server->paths().live_count(), 3u);
}

TEST(WebServerIntegration, QosStreamHoldsRateUnderLoad) {
  Testbed tb(ServerConfig::kAccounting);
  std::vector<std::unique_ptr<HttpClient>> churn;
  for (int i = 0; i < 8; ++i) {
    churn.push_back(
        std::make_unique<HttpClient>(tb.AddClient(i), tb.server->options().ip, "/doc1b"));
    churn.back()->Start(CyclesFromMillis(i));
  }
  ClientMachine* qm = tb.AddClient(40);
  QosReceiver receiver(qm, tb.server->options().ip);
  receiver.Start();
  tb.RunFor(0.5);
  receiver.meter().OpenWindow(tb.eq.now());
  tb.RunFor(1.0);
  double rate = receiver.meter().CloseWindowBytesPerSec(tb.eq.now());
  EXPECT_NEAR(rate, 1e6, 0.02e6);  // within 2% in the unit test
  EXPECT_EQ(tb.server->http()->streams_started(), 1u);
}

TEST(WebServerIntegration, PdConfigCrossesDomains) {
  Testbed tb(ServerConfig::kAccountingPd);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(0.5);
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_GT(tb.server->kernel().pd_crossings(), 10u);
  EXPECT_EQ(tb.server->kernel().crossing_violations(), 0u);
  // Every module got its own domain: privileged + 8 modules.
  EXPECT_EQ(tb.server->kernel().domains().size(), 9u);
}

TEST(WebServerIntegration, IllegalCrossingKillsTheConnectionPath) {
  MetricsRegistry metrics;
  WebServerOptions opts;
  opts.metrics = &metrics;
  Testbed tb(ServerConfig::kAccountingPd, opts);
  ClientMachine* m = tb.AddClient(0);
  FnConnOwner owner;
  m->OpenConnection(tb.server->options().ip, 80, &owner)->Connect();
  tb.RunFor(0.05);

  Path* conn = nullptr;
  for (Path* p : tb.server->paths().live_paths()) {
    if (p->attrs.GetStr("role") == "tcp-active") {
      conn = p;
    }
  }
  ASSERT_NE(conn, nullptr);
  std::vector<PdId> stage_pds = conn->StageDomains();
  PdId outside = kKernelDomain;
  for (const auto& pd : tb.server->kernel().domains()) {
    if (pd->pd_id() != kKernelDomain &&
        std::find(stage_pds.begin(), stage_pds.end(), pd->pd_id()) == stage_pds.end()) {
      outside = pd->pd_id();
      break;
    }
  }
  ASSERT_NE(outside, kKernelDomain);

  // Enter the path's first domain, then jump to one the path never maps.
  Thread* t = conn->threads().front();
  t->Push(100, stage_pds.front(), nullptr);
  t->Push(100, outside, nullptr);
  tb.RunFor(0.05);

  EXPECT_EQ(tb.server->kernel().crossing_violations(), 1u);
  EXPECT_EQ(tb.server->paths_killed(), 1u);
  ASSERT_NE(metrics.FindCounter("server.paths_killed"), nullptr);
  EXPECT_EQ(metrics.FindCounter("server.paths_killed")->value(), 1u);
  EXPECT_EQ(tb.server->kill_cost_cycles().count(), 1u);
}

TEST(WebServerIntegration, ScoutConfigHasNoAccountingOverhead) {
  Testbed tb(ServerConfig::kScout);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 2;
  client.Start();
  tb.RunFor(0.5);
  EXPECT_EQ(client.completed(), 2u);
  EXPECT_EQ(tb.server->kernel().accounting_overhead_cycles(), 0u);
  EXPECT_EQ(tb.server->kernel().pd_crossings(), 0u);
}

TEST(WebServerIntegration, ArpRequestsAreAnswered) {
  Testbed tb(ServerConfig::kAccounting);
  // A client without a preloaded server ARP entry resolves it first.
  Ip4Addr ip = Ip4Addr::FromOctets(10, 0, 1, 200);
  ClientMachine fresh(&tb.eq, tb.link.get(), MacAddr::FromIndex(77), ip,
                      NetworkModel::Calibrated(), 99);
  tb.server->AddArpEntry(ip, fresh.mac());

  ArpPacket req;
  req.opcode = 1;
  req.sender_mac = fresh.mac();
  req.sender_ip = ip;
  req.target_ip = tb.server->options().ip;
  fresh.Transmit(BuildArpFrame(fresh.mac(), MacAddr::Broadcast(), req));
  tb.RunFor(0.05);

  EXPECT_EQ(tb.server->arp()->requests_answered(), 1u);
  // The reply taught the client the server's MAC; a TCP connection works.
  HttpClient client(&fresh, tb.server->options().ip, "/doc1b");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(0.5);
  EXPECT_EQ(client.completed(), 1u);
}

TEST(WebServerIntegration, RetransmissionRecoversFromFrameLoss) {
  Testbed tb(ServerConfig::kAccounting);
  tb.link->set_drop_every(29);  // drop ~3.5% of frames
  ClientMachine* m = tb.AddClient(0);
  m->retransmit_timeout = CyclesFromMillis(300);
  m->max_retransmits = 12;
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 10;
  client.Start();
  tb.RunFor(12.0);
  EXPECT_EQ(client.completed(), 10u);
  EXPECT_GT(tb.link->frames_dropped(), 0u);
}

}  // namespace
}  // namespace escort
