#include "src/workload/experiment.h"

#include <cstdlib>
#include <map>
#include <stdexcept>

#include "src/kernel/audit.h"
#include "src/server/policy.h"
#include "src/sim/parallel.h"

namespace escort {

const char* StopRuleName(StopRule rule) {
  switch (rule) {
    case StopRule::kWindow: return "window";
    case StopRule::kSerialRequests: return "serial_requests";
    case StopRule::kKills: return "kills";
  }
  return "?";
}

double EnvSeconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  double parsed = std::atof(v);
  return parsed > 0 ? parsed : fallback;
}

namespace {

// Fixed testbed addressing (Figure 7).
const Ip4Addr kServerIp = Ip4Addr::FromOctets(10, 0, 0, 1);
const MacAddr kServerMac = MacAddr::FromIndex(1);
const Ip4Addr kQosIp = Ip4Addr::FromOctets(10, 0, 2, 1);
const Ip4Addr kSynAttackerIp = Ip4Addr::FromOctets(192, 168, 9, 9);

// Client i's address. The first 254 stay on the historical 10.0.1/24 (the
// bench JSON goldens and every small-testbed test pin those bytes); larger
// cells spill into 10.8.0.0/13 and beyond, which the trusted 10/8 listener
// still covers. Good for ~16M clients before colliding with other subnets.
Ip4Addr ClientIp(int i) {
  if (i < 254) {
    return Ip4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(1 + i));
  }
  int j = i - 254;
  return Ip4Addr::FromOctets(10, static_cast<uint8_t>(8 + j / 65536),
                             static_cast<uint8_t>((j / 256) % 256),
                             static_cast<uint8_t>(j % 256));
}

// Client i's MAC index. The first 100 keep the historical 100+i; beyond
// that, jump past the CGI-attacker (200+i) and untrusted-test (300+i)
// ranges so a million clients never collide with another actor family.
uint64_t ClientMacIndex(int i) {
  return i < 100 ? 100 + static_cast<uint64_t>(i) : 1000 + static_cast<uint64_t>(i);
}
Ip4Addr CgiAttackerIp(int i) {
  return Ip4Addr::FromOctets(10, 0, 3, static_cast<uint8_t>(1 + i));
}

struct Testbed {
  EventQueue eq;
  std::unique_ptr<SharedLink> link;
  std::unique_ptr<EscortWebServer> server;
  std::unique_ptr<MonolithicServer> linux_server;
  // Declared after `server` so the end-of-run audit checks run while the
  // kernel is still alive (members are destroyed in reverse order).
  std::unique_ptr<AuditScope> audit;
  // Online detection (spec.detect.mode != kOff): the blacklist does the
  // containment, the detector feeds it. Declared after `server` so both
  // are destroyed first — the detector's destructor cancels its kernel
  // scan event and unhooks the path manager.
  std::unique_ptr<BlacklistPolicy> blacklist;
  std::unique_ptr<DetectionPolicy> detector;
  // One TcpPeer slab shared by every client machine (the flyweight
  // connection pool). Declared before `machines` so it outlives them: a
  // machine's destructor releases its slots.
  Slab<TcpPeer> peers;
  std::vector<std::unique_ptr<ClientMachine>> machines;
  std::vector<std::unique_ptr<HttpClient>> clients;
  std::vector<std::unique_ptr<CgiAttacker>> cgi_attackers;
  std::unique_ptr<SynAttacker> syn_attacker;
  std::unique_ptr<ClientMachine> qos_machine;
  std::unique_ptr<QosReceiver> qos_receiver;
  RateMeter completions;
};

std::unique_ptr<Testbed> BuildTestbed(const ExperimentSpec& spec, Tracer* tracer,
                                      MetricsRegistry* metrics) {
  auto tb = std::make_unique<Testbed>();
  tb->link = std::make_unique<SharedLink>(&tb->eq, NetworkModel::Calibrated());

  if (spec.linux_server) {
    tb->linux_server =
        std::make_unique<MonolithicServer>(&tb->eq, tb->link.get(), kServerMac, kServerIp,
                                           spec.server_options.costs);
    for (const auto& doc : spec.server_options.documents) {
      tb->linux_server->AddDocument(doc.name, doc.size);
    }
  } else {
    WebServerOptions opts = spec.server_options;
    opts.config = spec.config;
    opts.mac = kServerMac;
    opts.ip = kServerIp;
    opts.tracer = tracer;
    opts.metrics = metrics;
    tb->server = std::make_unique<EscortWebServer>(&tb->eq, tb->link.get(), opts);
    // Every experiment run doubles as a resource-conservation audit
    // (enforced — i.e. violations abort — under ESCORT_AUDIT builds).
    tb->audit = std::make_unique<AuditScope>(&tb->server->kernel());
    if (spec.blacklist || spec.detect.mode != DetectMode::kOff) {
      // One strike blacklists. Runaway kills record strikes only in
      // blacklist cells: in a detection cell the detector alone feeds the
      // blacklist, so the measured containment (and every false positive)
      // is attributable to it.
      BlacklistPolicy::Options bl;
      bl.chain_violation_hook = spec.blacklist;
      tb->blacklist = std::make_unique<BlacklistPolicy>(tb->server.get(), bl);
    }
    if (spec.detect.mode != DetectMode::kOff) {
      // Detections chain into the blacklist: one confirmed detection is
      // one strike, and the baseline learns from the env-resolved warmup
      // window (same clock RunExperiment uses).
      tb->detector =
          MakeDetector(tb->server.get(), tb->blacklist.get(), spec.detect,
                       CyclesFromSeconds(EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s)));
    }
  }

  // Every machine (client, attacker, QoS endpoint) is its own event
  // stream; stream ids follow construction order, and equal-time events
  // are ordered by them.
  auto actor_stream = [&]() { return tb->eq.NewStream(); };

  auto add_machine = [&](Ip4Addr ip, uint64_t mac_index, const NetworkModel& model,
                         uint64_t seed) {
    auto machine = std::make_unique<ClientMachine>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(mac_index), ip, model, seed, &tb->peers);
    machine->AddArpEntry(kServerIp, kServerMac);
    if (tb->server != nullptr) {
      tb->server->AddArpEntry(ip, machine->mac());
    }
    tb->machines.push_back(std::move(machine));
    return tb->machines.back().get();
  };

  // Regular clients. Table 1's serial client runs on the paper's
  // micro-measurement host: a fast client, so idle time reflects the wire,
  // not a slow client.
  NetworkModel client_model = NetworkModel::Calibrated();
  if (spec.stop == StopRule::kSerialRequests) {
    client_model.client_processing = CyclesFromMicros(250);
  }
  for (int i = 0; i < spec.clients; ++i) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    ClientMachine* m = add_machine(ClientIp(i), ClientMacIndex(i), client_model,
                                   0xc11e47 + static_cast<uint64_t>(i));
    auto client = std::make_unique<HttpClient>(m, kServerIp, spec.doc);
    client->set_meter(&tb->completions);
    client->Start(CyclesFromMillis(static_cast<double>(i % 37) * 0.9));
    tb->clients.push_back(std::move(client));
  }

  // CGI attackers (trusted subnet, like regular clients).
  for (int i = 0; i < spec.cgi_attackers; ++i) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    ClientMachine* m = add_machine(CgiAttackerIp(i), 200 + static_cast<uint64_t>(i),
                                   NetworkModel::Calibrated(),
                                   0xa77acc + static_cast<uint64_t>(i));
    auto attacker = std::make_unique<CgiAttacker>(m, kServerIp, spec.cgi_attack_period);
    attacker->Start(CyclesFromMillis(5.0 + static_cast<double>(i % 50) * 19.0));
    tb->cgi_attackers.push_back(std::move(attacker));
  }

  // QoS stream.
  if (spec.qos_stream) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    tb->qos_machine = std::make_unique<ClientMachine>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(50), kQosIp, NetworkModel::Calibrated(),
        0x9075ULL, &tb->peers);
    tb->qos_machine->AddArpEntry(kServerIp, kServerMac);
    if (tb->server != nullptr) {
      tb->server->AddArpEntry(kQosIp, tb->qos_machine->mac());
    }
    tb->qos_receiver = std::make_unique<QosReceiver>(tb->qos_machine.get(), kServerIp);
    tb->qos_receiver->Start(CyclesFromMillis(3.0));
  }

  // SYN attacker (untrusted subnet).
  if (spec.syn_attack_rate > 0) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    MacAddr amac = MacAddr::FromIndex(60);
    tb->syn_attacker = std::make_unique<SynAttacker>(&tb->eq, tb->link.get(), amac,
                                                     kSynAttackerIp, kServerIp, kServerMac,
                                                     spec.syn_attack_rate);
    // The attacker is not attached to the link: SYN-ACKs to it vanish,
    // exactly like replies to a spoofed source.
    tb->syn_attacker->Start(CyclesFromMillis(1.0));
  }

  return tb;
}

// Table 1's serial protocol (StopRule::kSerialRequests): warm-up requests,
// then an idle gap that lets their teardown settle before the window opens.
constexpr uint64_t kSerialWarmupRequests = 5;
constexpr Cycles kSerialSettle = CyclesFromMillis(50);

// The one instrumentation tick (DESIGN.md §6.10): a self-rescheduling
// stream-0 event every kMetricsSampleInterval, bounded by `end` so RunUntil
// always drains. Scheduled from the main context and rescheduled from its
// own, both stream 0, so the sampled series and every incident decision
// are part of the queue's deterministic total order.
class MetricsSampler {
 public:
  MetricsSampler(EventQueue* eq, Kernel* kernel, MetricsRegistry* registry,
                 HealthMonitor* health, Cycles end)
      : eq_(eq),
        kernel_(kernel),
        registry_(registry),
        health_(health),
        end_(end),
        timers_armed_(ESCORT_METRIC_GAUGE(registry, "sim.timers_armed",
                                          "timer-wheel resident timers")) {}
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  void ScheduleAt(Cycles at) {
    if (at > end_) {
      return;
    }
    eq_->ScheduleAt(at, [this, at] {
      Sample(eq_->now());
      ScheduleAt(at + kMetricsSampleInterval);
    });
  }

 private:
  // One account label's ledger gauges, looked up when the label first
  // appears, and its sums for the tick being taken (zero between ticks).
  struct Label {
    MetricGauge* cycles = nullptr;
    MetricGauge* pages = nullptr;
    MetricGauge* threads = nullptr;
    MetricGauge* iobuffer_locks = nullptr;
    ResourceUsage sum;
  };

  Label& LabelFor(const std::string& label) {
    auto [it, inserted] = labels_.try_emplace(label);
    Label& l = it->second;
    if (inserted) {
      l.cycles = ESCORT_METRIC_GAUGE(registry_, "kernel.cycles." + label,
                                     "cycles charged to this ledger account");
      l.pages = ESCORT_METRIC_GAUGE(registry_, "kernel.pages." + label,
                                    "pages held by this account's live owners");
      l.threads = ESCORT_METRIC_GAUGE(registry_, "kernel.threads." + label,
                                      "threads of this account's live owners");
      l.iobuffer_locks = ESCORT_METRIC_GAUGE(registry_, "kernel.iobuffer_locks." + label,
                                             "IOBuffer locks held by this account's live owners");
    }
    return l;
  }

  // One pass over the kernel's owners sets the four gauges of every label
  // seen so far: its cycles as Kernel::Snapshot() counts them (retired
  // owners included; 0 for a label Snapshot() no longer lists) and its
  // live owners' pages, threads and IOBuffer locks. Then every counter and
  // gauge is snapshotted into its series and the health monitor evaluates
  // its SLO rules.
  void Sample(Cycles now) {
    kernel_->SettleIdle();
    for (const auto& [name, cycles] : kernel_->retired().totals()) {
      LabelFor(name).sum.cycles += cycles;
    }
    for (const auto& [id, rec] : kernel_->account_labels()) {
      Label& l = LabelFor(rec.label);
      const ResourceUsage& u = rec.owner->usage();
      l.sum.cycles += u.cycles;
      l.sum.pages += u.pages;
      l.sum.threads += u.threads;
      l.sum.iobuffer_locks += u.iobuffer_locks;
    }
    for (auto& [name, l] : labels_) {
      l.cycles->Set(static_cast<int64_t>(l.sum.cycles));
      l.pages->Set(static_cast<int64_t>(l.sum.pages));
      l.threads->Set(static_cast<int64_t>(l.sum.threads));
      l.iobuffer_locks->Set(static_cast<int64_t>(l.sum.iobuffer_locks));
      l.sum = ResourceUsage{};
    }
    timers_armed_->Set(static_cast<int64_t>(eq_->timer_stats().armed));
    registry_->Sample(now);
    health_->Sample(now);
  }

  EventQueue* eq_;
  Kernel* kernel_;
  MetricsRegistry* registry_;
  HealthMonitor* health_;
  Cycles end_;
  MetricGauge* timers_armed_;
  std::map<std::string, Label> labels_;
};

}  // namespace

ExperimentResult RunExperiment(const ExperimentSpec& spec) {
  double warmup_s = EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s);
  double window_s = EnvSeconds("ESCORT_WINDOW_S", spec.window_s);

  Tracer* tracer = spec.tracer;

  // Metrics: use the caller's registry (sweep cells) or own one for the
  // run. On by default — the health monitor needs the registry, and the
  // zero-perturbation test pins that collection never changes results.
  std::unique_ptr<MetricsRegistry> owned_metrics;
  MetricsRegistry* metrics = spec.metrics_registry;
  if (metrics == nullptr && spec.collect_metrics) {
    owned_metrics = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics.get();
  }

  auto tb = BuildTestbed(spec, tracer, metrics);
  EventQueue& eq = tb->eq;

  // The window rule ends with its window. A count rule ends at a deadline
  // of one simulated second per counted event plus two. The sampler stops
  // there too.
  const Cycles run_end = spec.stop == StopRule::kWindow
                             ? CyclesFromSeconds(warmup_s) + CyclesFromSeconds(window_s)
                             : CyclesFromSeconds(static_cast<double>(spec.stop_count) + 2.0);
  std::unique_ptr<HealthMonitor> health;
  std::unique_ptr<MetricsSampler> sampler;
  if (metrics != nullptr && tb->server != nullptr) {
    HealthConfig hc;
    hc.total_pages = tb->server->kernel().pages().total_pages();
    health = std::make_unique<HealthMonitor>(metrics, hc);
    health->set_tracer(tracer);
    sampler = std::make_unique<MetricsSampler>(&eq, &tb->server->kernel(), metrics, health.get(),
                                               run_end);
    sampler->ScheduleAt(0);
  }

  // Opens the measurement window at the current time.
  auto open_window = [&] {
    Cycles now = eq.now();
    tb->completions.OpenWindow(now);
    if (health != nullptr) {
      health->OpenWindow(now);
    }
    if (tb->qos_receiver != nullptr) {
      tb->qos_receiver->meter().OpenWindow(now);
    }
    if (tb->server != nullptr) {
      tb->server->kernel().ResetAccounting();
    }
    return now;
  };
  // Fires events until `done()` holds. Reaching the deadline first fails
  // the cell instead of reporting a short measurement.
  auto step_until = [&](auto done) {
    while (!done()) {
      if (!eq.Step(run_end)) {
        throw std::runtime_error(std::string(StopRuleName(spec.stop)) +
                                 " rule: deadline reached short of a count of " +
                                 std::to_string(spec.stop_count));
      }
    }
  };

  double sim_start_ms = MonotonicMillis();
  Cycles window_start = 0;
  switch (spec.stop) {
    case StopRule::kWindow:
      eq.RunUntil(CyclesFromSeconds(warmup_s));
      window_start = open_window();
      eq.RunUntil(window_start + CyclesFromSeconds(window_s));
      break;
    case StopRule::kSerialRequests: {
      if (tb->clients.size() != 1) {
        throw std::invalid_argument("the serial-requests rule needs exactly one client");
      }
      HttpClient& client = *tb->clients.front();
      client.max_requests = kSerialWarmupRequests;
      step_until([&] { return client.completed() >= kSerialWarmupRequests; });
      eq.RunUntil(eq.now() + kSerialSettle);
      window_start = open_window();
      client.max_requests = kSerialWarmupRequests + spec.stop_count;
      client.Start();
      step_until([&] { return client.completed() >= client.max_requests; });
      break;
    }
    case StopRule::kKills:
      if (tb->server == nullptr) {
        throw std::invalid_argument("the kills rule needs the Escort server");
      }
      window_start = open_window();
      step_until([&] { return tb->server->paths_killed() >= spec.stop_count; });
      break;
  }
  Cycles window_end = eq.now();
  double sim_wall_ms = MonotonicMillis() - sim_start_ms;

  ExperimentResult r;
  r.sim_wall_ms = sim_wall_ms;
  r.conns_per_sec = tb->completions.CloseWindow(window_end);
  r.completions_total = tb->completions.total();
  r.window_cycles = window_end - window_start;
  if (tb->qos_receiver != nullptr) {
    r.qos_bytes_per_sec = tb->qos_receiver->meter().CloseWindowBytesPerSec(window_end);
  }
  for (const auto& c : tb->clients) {
    r.client_failures += c->failed();
  }
  if (tb->syn_attacker != nullptr) {
    r.syns_sent = tb->syn_attacker->syns_sent();
  }
  if (tb->server != nullptr) {
    EscortWebServer& s = *tb->server;
    r.paths_killed = s.paths_killed();
    r.runaway_detections = s.kernel().runaway_detections();
    r.kill_cost_mean = s.kill_cost_cycles().Mean();
    r.ledger = s.kernel().Snapshot();
    r.pd_crossings = s.kernel().pd_crossings();
    r.accounting_overhead = s.kernel().accounting_overhead_cycles();
    for (const auto& l : s.tcp()->listeners()) {
      r.syns_dropped_at_demux += l->syns_dropped_at_demux;
    }
  }
  if (tb->detector != nullptr) {
    // Classify against the testbed's ground truth: the SYN attacker's
    // address and the CGI attacker subnet are fixed by construction, so
    // every detection is decidable. Latency is measured from the named
    // attacker family's start time.
    const Ip4Addr cgi_net = CgiAttackerIp(0);
    Cycles syn_start = CyclesFromMillis(1.0);
    Cycles cgi_start = CyclesFromMillis(5.0);
    DetectionStats& d = r.detection;
    d.detections = tb->detector->detections().size();
    for (const DetectionEvent& e : tb->detector->detections()) {
      bool is_syn_attacker = spec.syn_attack_rate > 0 && e.addr.value == kSynAttackerIp.value;
      bool is_cgi_attacker =
          spec.cgi_attackers > 0 && (e.addr.value >> 8) == (cgi_net.value >> 8);
      if (is_syn_attacker || is_cgi_attacker) {
        d.true_positives += 1;
        if (d.first_detection_ms == 0.0) {
          Cycles start = is_syn_attacker ? syn_start : cgi_start;
          d.first_detection_ms = MillisFromCycles(e.when > start ? e.when - start : 0);
        }
      } else {
        d.false_positives += 1;
      }
    }
    d.decision_digest = tb->detector->DecisionDigest();
    if (tb->blacklist != nullptr) {
      d.blacklist_size = tb->blacklist->size();
    }
    if (auto* baseline = dynamic_cast<BaselineDetector*>(tb->detector.get());
        baseline != nullptr) {
      d.paths_killed_by_detector = baseline->paths_killed();
    }
  }
  r.events_fired = tb->eq.fired_count();

  // Memory footprint (bench JSON `memory` block): slab occupancy at the
  // window end plus high-water marks over the whole run.
  if (tb->server != nullptr) {
    EscortWebServer::ConnSlabStats cs = tb->server->conn_slab_stats();
    r.memory.pcb_slot_bytes = cs.slot_bytes;
    r.memory.pcb_live = cs.live;
    r.memory.pcb_high_water = cs.high_water;
    r.memory.pcb_bytes_reserved = cs.bytes_reserved;
  }
  r.memory.peer_slot_bytes = Slab<TcpPeer>::slot_bytes();
  r.memory.peer_live = tb->peers.live();
  r.memory.peer_high_water = tb->peers.high_water();
  r.memory.peer_bytes_reserved = tb->peers.bytes_reserved();
  EventQueue::TimerWheelStats ts = tb->eq.timer_stats();
  r.memory.timers_armed = ts.armed;
  r.memory.timer_high_water = ts.high_water;
  r.memory.timer_capacity = ts.capacity;
  r.memory.timer_bytes_reserved = ts.bytes_reserved;

  // The audit's verdict is the cell's (DESIGN.md §6.1). Check now, while a
  // violation can still take a flight dump; fail once the trace is closed.
  if (tb->audit != nullptr) {
    tb->audit->Finalize();
  }
  if (tracer != nullptr) {
    tracer->Finalize(window_end);
    if (metrics != nullptr) {
      metrics->AppendCounterTracks(tracer);
    }
    // Detach before teardown: the trace is finalized; teardown-time
    // pathKill events (for paths surviving the window) are bookkeeping,
    // not part of the deterministic trace stream.
    if (tb->server != nullptr) {
      tb->server->kernel().set_tracer(nullptr);
    }
  }
  if (health != nullptr) {
    r.incidents = health->incidents();
  }
  if (tb->audit != nullptr && !tb->audit->auditor().ok()) {
    throw std::runtime_error(tb->audit->auditor().Report());
  }
  return r;
}

}  // namespace escort
