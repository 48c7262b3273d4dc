#include "layer_drivers.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "src/server/detect.h"
#include "src/server/health.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/workload/network.h"
#include "src/workload/wire.h"

namespace perfbench {

using escort::Cycles;
using escort::CyclesFromMicros;
using escort::CyclesFromMillis;
using escort::EscortWebServer;
using escort::EventQueue;
using escort::Ip4Addr;
using escort::MacAddr;
using escort::ServerConfig;

namespace {

// 1500 batches leave 15 samples above the p99, enough to report it.
constexpr int kBatches = 1500;
// Queue depth and timer population are capped at 2^22 (above the
// million-client workload's population).
constexpr uint64_t kMaxPopulation = uint64_t{1} << 22;

// The testbed's fixed addressing (src/workload/experiment.cc).
const Ip4Addr kSynAttackerIp = Ip4Addr::FromOctets(192, 168, 9, 9);
const MacAddr kSynAttackerMac = MacAddr::FromIndex(60);
constexpr int kClientAddrs = 64;
Ip4Addr ClientIp(int i) { return Ip4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(1 + i)); }
MacAddr ClientMac(int i) { return MacAddr::FromIndex(100 + static_cast<uint64_t>(i)); }

// One Escort server on its own queue and link, with the benchmark's client
// addresses in its ARP table (as the testbed pre-seeds them).
struct ServerWorld {
  explicit ServerWorld(ServerConfig config, escort::MetricsRegistry* metrics = nullptr)
      : link(&eq, escort::NetworkModel::Calibrated()) {
    escort::WebServerOptions opts;
    opts.config = config;
    opts.metrics = metrics;
    server = std::make_unique<EscortWebServer>(&eq, &link, opts);
    for (int i = 0; i < kClientAddrs; ++i) {
      server->AddArpEntry(ClientIp(i), ClientMac(i));
    }
  }
  void RunFor(Cycles d) { eq.RunUntil(eq.now() + d); }

  EventQueue eq;
  escort::SharedLink link;
  std::unique_ptr<EscortWebServer> server;
};

std::vector<uint8_t> TcpFrame(Ip4Addr src, MacAddr src_mac, uint16_t src_port, uint8_t flags,
                              uint32_t seq, uint32_t ack = 0,
                              const std::vector<uint8_t>& payload = {}) {
  escort::TcpHeader hdr;
  hdr.src_port = src_port;
  hdr.dst_port = 80;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.flags = flags;
  escort::WebServerOptions defaults;
  return escort::BuildTcpFrame(src_mac, defaults.mac, src, defaults.ip, hdr, payload);
}

uint64_t DocumentSize(const std::string& doc) {
  for (const auto& d : escort::WebServerOptions{}.documents) {
    if (d.name == doc) {
      return d.size;
    }
  }
  throw std::invalid_argument("unknown document " + doc);
}

// Attacker SYNs per benign connection as a deterministic sequence: the
// number to send before each connection, so that n connections carry
// round(n * rate) SYNs in all.
class SynMix {
 public:
  explicit SynMix(double syn_per_conn) : rate_(syn_per_conn) {}
  int Next() {
    owed_ += rate_;
    int n = static_cast<int>(owed_);
    owed_ -= n;
    return n;
  }

 private:
  double rate_;
  double owed_ = 0.5;
};

escort::KernelConfig KernelConfigFor(ServerConfig config) {
  escort::KernelConfig kc;
  kc.accounting = config != ServerConfig::kScout;
  kc.protection_domains = config == ServerConfig::kAccountingPd;
  kc.scheduler = escort::WebServerOptions{}.scheduler;
  kc.start_softclock = false;
  return kc;
}

// ScheduleAt + Step at the workload's queue depth: every step fires the
// earliest event and one new event keeps the depth constant. The sweep JSON
// records no event-heap depth, but every armed timer is a pending queue
// entry, so the recorded timer high-water mark is the depth used: the
// queue's recorded lower bound.
void DriveEventQueue(const LayerShape& shape, SpanLog* log, int parent, escort::Rng& rng) {
  constexpr int kOps = 128;
  const Cycles horizon = CyclesFromMillis(10.0);
  ScopedSpan layer(log, "sim.event_queue", parent);
  EventQueue eq;
  uint64_t depth = std::min(static_cast<uint64_t>(shape.timer_population), kMaxPopulation);
  for (uint64_t i = 0; i < depth; ++i) {
    eq.ScheduleAt(rng.NextBelow(horizon), [] {});
  }
  std::vector<Cycles> delays(kOps);
  for (int b = 0; b < kBatches; ++b) {
    for (Cycles& d : delays) {
      d = 1 + rng.NextBelow(horizon);
    }
    int span = log->Open("sim.event_queue.op", layer.id());
    for (Cycles d : delays) {
      eq.ScheduleAt(eq.now() + d, [] {});
      eq.Step();
    }
    log->Close(span, kOps);
  }
}

// Timer arm / cancel / fire at the workload's armed-timer high-water mark.
// One iteration cancels a random armed timer, arms two and fires one: four
// timer operations, and the population stays constant.
void DriveTimerWheel(const LayerShape& shape, SpanLog* log, int parent, escort::Rng& rng) {
  constexpr int kIters = 64;
  const Cycles horizon = CyclesFromMillis(200.0);
  ScopedSpan layer(log, "sim.timer_wheel", parent);
  EventQueue eq;
  uint64_t population =
      std::clamp(static_cast<uint64_t>(shape.timer_population), uint64_t{1}, kMaxPopulation);
  std::vector<EventQueue::TimerId> armed(population);
  for (auto& id : armed) {
    id = eq.ScheduleTimerAt(1 + rng.NextBelow(horizon), [] {});
  }
  std::vector<uint64_t> slots(2 * kIters);
  std::vector<Cycles> delays(2 * kIters);
  for (int b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < slots.size(); ++i) {
      slots[i] = rng.NextBelow(population);
      delays[i] = 1 + rng.NextBelow(horizon);
    }
    int span = log->Open("sim.timer_wheel.op", layer.id());
    for (size_t i = 0; i < slots.size(); i += 2) {
      eq.CancelTimer(armed[slots[i]]);
      armed[slots[i]] = eq.ScheduleTimerAt(eq.now() + delays[i], [] {});
      armed[slots[i + 1]] = eq.ScheduleTimerAt(eq.now() + delays[i + 1], [] {});
      eq.Step();
    }
    log->Close(span, 4 * kIters);
  }
}

// One metrics-plane tick: MetricsRegistry::Sample then HealthMonitor::Sample
// over the metric population an Escort server registers.
void DriveMetrics(const LayerShape& shape, SpanLog* log, int parent) {
  constexpr int kOps = 8;
  const Cycles interval = CyclesFromMillis(5.0);
  ScopedSpan layer(log, "sim.metrics", parent);
  escort::MetricsRegistry registry;
  ServerWorld world(shape.configs.front(), &registry);
  escort::HealthConfig hc;
  hc.total_pages = world.server->kernel().pages().total_pages();
  escort::HealthMonitor health(&registry, hc);
  Cycles now = 0;
  for (int b = 0; b < kBatches; ++b) {
    int span = log->Open("sim.metrics.op", layer.id());
    for (int k = 0; k < kOps; ++k) {
      now += interval;
      registry.Sample(now);
      health.Sample(now);
    }
    log->Close(span, kOps);
  }
}

// Thread::Push of one yielding work item plus the drain that dispatches it,
// alternating over the workload's configurations. With protection domains
// on, consecutive items alternate domains, so each one crosses.
void DriveDispatch(const LayerShape& shape, SpanLog* log, int parent) {
  constexpr int kOps = 32;
  constexpr Cycles kItemCost = 1000;
  ScopedSpan layer(log, "kernel.dispatch", parent);
  struct World {
    EventQueue eq;
    std::unique_ptr<escort::Kernel> kernel;
    escort::Thread* thread = nullptr;
    escort::PdId pds[2] = {escort::kKernelDomain, escort::kKernelDomain};
  };
  std::vector<std::unique_ptr<World>> worlds;
  for (ServerConfig config : shape.configs) {
    auto w = std::make_unique<World>();
    w->kernel = std::make_unique<escort::Kernel>(&w->eq, KernelConfigFor(config));
    w->thread = w->kernel->CreateThread(w->kernel->kernel_owner(), "perfbench");
    if (w->kernel->config().protection_domains) {
      w->pds[1] = w->kernel->CreateDomain("perfbench")->pd_id();
    }
    worlds.push_back(std::move(w));
  }
  for (int b = 0; b < kBatches; ++b) {
    World& w = *worlds[static_cast<size_t>(b) % worlds.size()];
    int span = log->Open("kernel.dispatch.op", layer.id());
    for (int k = 0; k < kOps; ++k) {
      w.thread->Push(kItemCost, w.pds[k & 1], nullptr, true);
      w.eq.RunToCompletion();
    }
    log->Close(span, kOps);
  }
}

// IOBuffer allocation and release through the kernel, cycling the
// workload's response sizes with one buffer in flight per live server
// connection (capped at 4096, a quarter of the kernel's pages at the
// largest document).
void DriveIoBuffers(const LayerShape& shape, SpanLog* log, int parent, DriverCounters* counters) {
  constexpr int kOps = 64;
  constexpr uint64_t kHeaderBytes = 256;
  ScopedSpan layer(log, "kernel.iobuffer", parent);
  EventQueue eq;
  escort::Kernel kernel(&eq, KernelConfigFor(shape.configs.front()));
  escort::Owner* owner = kernel.kernel_owner();
  const std::vector<escort::PdId> readers = {escort::kKernelDomain};
  std::vector<uint64_t> sizes;
  for (const std::string& doc : shape.docs) {
    sizes.push_back(DocumentSize(doc) + kHeaderBytes);
  }
  std::deque<escort::IoBuffer*> in_flight;
  size_t next = 0;
  auto alloc = [&] {
    return kernel.AllocIoBuffer(owner, sizes[next++ % sizes.size()], escort::kKernelDomain,
                                readers);
  };
  uint64_t working_set = std::min<uint64_t>(static_cast<uint64_t>(shape.buffers_in_flight), 4096);
  for (uint64_t i = 0; i < working_set; ++i) {
    in_flight.push_back(alloc());
  }
  uint64_t allocs0 = kernel.iobuffers().alloc_count();
  uint64_t hits0 = kernel.iobuffers().cache_hit_count();
  for (int b = 0; b < kBatches; ++b) {
    int span = log->Open("kernel.iobuffer.op", layer.id());
    for (int k = 0; k < kOps; ++k) {
      in_flight.push_back(alloc());
      kernel.UnlockIoBuffer(in_flight.front(), owner);
      in_flight.pop_front();
    }
    log->Close(span, kOps);
  }
  counters->emplace_back("kernel.iobuffer.allocs", kernel.iobuffers().alloc_count() - allocs0);
  counters->emplace_back("kernel.iobuffer.cache_hits",
                         kernel.iobuffers().cache_hit_count() - hits0);
  for (escort::IoBuffer* buf : in_flight) {
    kernel.UnlockIoBuffer(buf, owner);
  }
}

// The client side of the rx driver's connections: records, per client
// port, how far the server's byte stream has come and what it has
// acknowledged, so that the next scripted frame follows in sequence.
class ClientSide : public escort::NetEndpoint {
 public:
  struct Conn {
    bool syn_acked = false;
    bool fin = false;
    uint32_t rcv_next = 0;  // next sequence number expected from the server
    uint32_t acked = 0;     // highest acknowledgement the server sent
  };

  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    std::optional<escort::WireFrame> f = escort::ParseFrame(frame);
    if (!f || !f->is_tcp) {
      return;
    }
    const escort::TcpHeader& h = f->tcp;
    Conn& c = conns_[h.dst_port];
    if ((h.flags & escort::kTcpAck) != 0) {
      c.acked = std::max(c.acked, h.ack);
    }
    if ((h.flags & escort::kTcpSyn) != 0) {
      c.syn_acked = true;
      c.rcv_next = h.seq + 1;
      return;
    }
    if (h.seq != c.rcv_next) {
      return;  // a retransmission
    }
    c.rcv_next += static_cast<uint32_t>(f->payload.size());
    if ((h.flags & escort::kTcpFin) != 0) {
      c.fin = true;
      c.rcv_next += 1;
    }
  }

  const Conn& conn(uint16_t port) { return conns_[port]; }
  void Forget(uint16_t port) { conns_.erase(port); }

 private:
  std::map<uint16_t, Conn> conns_;
};

// EscortWebServer::DeliverFrame on frames built with BuildTcpFrame. The
// frames are the workload's mix: real connections from the trusted clients,
// each preceded by the attacker SYNs the workload sends per connection
// (which the untrusted listener's budget mostly drops at demux). A
// connection's SYN is untimed; then each batch of frames is timed from its
// delivery until the server's answer reaches the client:
//   attacker SYNs + handshake ACK + request  until the first response bytes,
//   each in-sequence ACK of the response     until more bytes or the FIN,
//   the client's FIN                         until the server acknowledges it.
// The server's queue never idles (the softclock ticks every 1 ms), so the
// answer, not an idle queue, ends a batch.
void DriveRx(const LayerShape& shape, SpanLog* log, int parent) {
  ScopedSpan layer(log, "net.rx", parent);
  struct RxWorld {
    explicit RxWorld(ServerConfig config) : server(config) {
      for (int i = 0; i < kClientAddrs; ++i) {
        server.link.Attach(ClientMac(i), &clients);
      }
    }
    ServerWorld server;
    ClientSide clients;
  };
  std::vector<std::unique_ptr<RxWorld>> worlds;
  for (ServerConfig config : shape.configs) {
    worlds.push_back(std::make_unique<RxWorld>(config));
  }
  SynMix mix(shape.syn_per_conn);
  uint16_t next_port = 1024;
  uint16_t attacker_port = 1;

  // Delivers `frames` and steps the queue until `answered()`; a batch that
  // is not answered within 100 ms of simulated time is an error. With
  // `timed`, the whole is one span.
  auto deliver = [&](RxWorld& w, const std::vector<std::vector<uint8_t>>& frames, bool timed,
                     const auto& answered) {
    EventQueue& eq = w.server.eq;
    const Cycles limit = eq.now() + CyclesFromMillis(100.0);
    int span = timed ? log->Open("net.rx.op", layer.id()) : -1;
    for (const auto& frame : frames) {
      w.server.server->DeliverFrame(frame);
    }
    Cycles next = 0;
    while (!answered()) {
      if (!eq.PeekNext(&next) || next > limit) {
        throw std::runtime_error("net.rx driver: the server did not answer");
      }
      eq.Step();
    }
    if (timed) {
      log->Close(span, frames.size());
    }
  };
  // One connection fetching `doc`. The first exchange per world and
  // document runs untimed, so that the timed ones find the document in the
  // file cache, as the workload's clients do.
  auto exchange = [&](RxWorld& w, int c, const std::string& doc, bool timed) {
    const uint16_t port = next_port;
    next_port = static_cast<uint16_t>(port == 65535 ? 1024 : port + 1);
    const Ip4Addr ip = ClientIp(c);
    const MacAddr mac = ClientMac(c);
    const std::string text = "GET " + doc + " HTTP/1.0\r\nHost: server\r\n\r\n";
    const std::vector<uint8_t> request(text.begin(), text.end());
    const uint32_t isn = 1000;
    const uint32_t snd_next = isn + 1 + static_cast<uint32_t>(request.size());
    const auto& conn = [&]() -> const ClientSide::Conn& { return w.clients.conn(port); };

    deliver(w, {TcpFrame(ip, mac, port, escort::kTcpSyn, isn)}, false,
            [&] { return conn().syn_acked; });
    std::vector<std::vector<uint8_t>> frames;
    for (int n = timed ? mix.Next() : 0; n > 0; --n) {
      attacker_port = static_cast<uint16_t>(attacker_port == 65535 ? 1 : attacker_port + 1);
      frames.push_back(TcpFrame(kSynAttackerIp, kSynAttackerMac, attacker_port, escort::kTcpSyn, 7));
    }
    const uint32_t syn_ack_end = conn().rcv_next;
    frames.push_back(TcpFrame(ip, mac, port, escort::kTcpAck, isn + 1, syn_ack_end));
    frames.push_back(TcpFrame(ip, mac, port, escort::kTcpAck | escort::kTcpPsh, isn + 1,
                              syn_ack_end, request));
    deliver(w, frames, timed, [&] { return conn().rcv_next != syn_ack_end; });
    while (!conn().fin) {
      const uint32_t received = conn().rcv_next;
      deliver(w, {TcpFrame(ip, mac, port, escort::kTcpAck, snd_next, received)}, timed,
              [&] { return conn().rcv_next != received; });
    }
    deliver(w,
            {TcpFrame(ip, mac, port, escort::kTcpFin | escort::kTcpAck, snd_next, conn().rcv_next)},
            timed, [&] { return conn().acked == snd_next + 1; });
    w.clients.Forget(port);
  };

  for (auto& w : worlds) {
    for (const std::string& doc : shape.docs) {
      exchange(*w, 0, doc, false);
    }
  }
  for (int b = 0; b < kBatches; ++b) {
    RxWorld& w = *worlds[static_cast<size_t>(b) % worlds.size()];
    const std::string& doc = shape.docs[static_cast<size_t>(b / worlds.size()) % shape.docs.size()];
    exchange(w, b % kClientAddrs, doc, true);
  }
}

// EscortWebServer::KillPathForViolation on live connection paths. Each
// batch opens fresh connections with trusted-client SYNs (untimed), then
// times killing every path they created.
void DriveKill(const LayerShape& shape, SpanLog* log, int parent, DriverCounters* counters) {
  constexpr int kConns = 8;
  ScopedSpan layer(log, "path.kill", parent);
  std::vector<std::unique_ptr<ServerWorld>> worlds;
  for (ServerConfig config : shape.configs) {
    worlds.push_back(std::make_unique<ServerWorld>(config));
  }
  uint64_t kills = 0;
  uint16_t port = 1024;
  std::vector<escort::Path*> fresh;
  for (int b = 0; b < kBatches; ++b) {
    ServerWorld& w = *worlds[static_cast<size_t>(b) % worlds.size()];
    const auto& live = w.server->paths().live_paths();
    std::set<escort::Path*> before(live.begin(), live.end());
    for (int k = 0; k < kConns; ++k) {
      int c = (b * kConns + k) % kClientAddrs;
      port = static_cast<uint16_t>(port == 65535 ? 1024 : port + 1);
      w.server->DeliverFrame(TcpFrame(ClientIp(c), ClientMac(c), port, escort::kTcpSyn, 1000));
    }
    w.RunFor(CyclesFromMillis(5.0));
    fresh.clear();
    for (escort::Path* p : w.server->paths().live_paths()) {
      if (before.count(p) == 0) {
        fresh.push_back(p);
      }
    }
    if (fresh.empty()) {
      throw std::runtime_error("path.kill driver: SYNs created no connection paths");
    }
    int span = log->Open("path.kill.op", layer.id());
    for (escort::Path* p : fresh) {
      w.server->KillPathForViolation(p);
    }
    log->Close(span, fresh.size());
    kills += fresh.size();
    w.RunFor(CyclesFromMillis(1.0));
  }
  counters->emplace_back("path.kill.kills", kills);
}

// SprtDetector::Observe on an outcome stream shaped like the workload's:
// completions from the trusted clients, each preceded by the attacker SYNs
// the workload sends per connection, observed as demux drops. Simulated
// time advances 1 ms between batches so subnet holdoffs expire as they
// would in a run.
void DriveDetect(const LayerShape& shape, SpanLog* log, int parent, DriverCounters* counters) {
  constexpr int kOps = 64;
  constexpr size_t kStream = 4096;
  ScopedSpan layer(log, "server.detect", parent);
  ServerWorld world(shape.configs.front());
  escort::DetectSpec spec;
  spec.mode = escort::DetectMode::kSprt;
  escort::SprtDetector detector(world.server.get(), nullptr, spec);
  std::vector<std::pair<Ip4Addr, escort::TcpConnOutcome>> stream;
  SynMix mix(shape.syn_per_conn);
  for (int c = 0; stream.size() < kStream; ++c) {
    for (int n = mix.Next(); n > 0; --n) {
      stream.emplace_back(kSynAttackerIp, escort::TcpConnOutcome::kSynDropped);
    }
    stream.emplace_back(ClientIp(c % kClientAddrs), escort::TcpConnOutcome::kCompleted);
  }
  size_t next = 0;
  for (int b = 0; b < kBatches; ++b) {
    int span = log->Open("server.detect.op", layer.id());
    for (int k = 0; k < kOps; ++k) {
      const auto& [addr, outcome] = stream[next++ % kStream];
      detector.Observe(addr, outcome);
    }
    log->Close(span, kOps);
    world.RunFor(CyclesFromMillis(1.0));
  }
  counters->emplace_back("server.detect.decisions", detector.detections().size());
}

}  // namespace

DriverCounters RunLayerDrivers(const LayerShape& shape, SpanLog* log, int parent) {
  if (shape.configs.empty() || shape.docs.empty()) {
    throw std::invalid_argument("layer drivers need at least one config and document");
  }
  escort::Rng rng(shape.seed);
  DriverCounters counters;
  if (shape.timer_population >= 0) {
    DriveEventQueue(shape, log, parent, rng);
    DriveTimerWheel(shape, log, parent, rng);
  }
  DriveMetrics(shape, log, parent);
  DriveDispatch(shape, log, parent);
  if (shape.buffers_in_flight >= 0) {
    DriveIoBuffers(shape, log, parent, &counters);
  }
  if (shape.syn_per_conn >= 0) {
    DriveRx(shape, log, parent);
  }
  DriveKill(shape, log, parent, &counters);
  if (shape.syn_per_conn >= 0) {
    DriveDetect(shape, log, parent, &counters);
  }
  return counters;
}

}  // namespace perfbench
