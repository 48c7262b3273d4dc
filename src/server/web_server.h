// The Escort web server: the paper's example system.
//
// Assembles the module graph of Figure 1 (ETH, ARP, IP, TCP, HTTP, FS,
// SCSI — plus the CGI module), places the modules into protection domains
// according to the configuration, boots the kernel, opens the listeners
// (passive paths) and installs the DoS policies:
//
//   * per-subnet passive paths with a demux-time SYN_RECVD budget
//     (§4.4.1),
//   * a per-owner CPU budget (2 ms without yield) whose violation triggers
//     pathKill (§4.4.3),
//   * proportional-share tickets for QoS paths (§4.4.2).
//
// The three measured configurations (§4.1.1):
//   kScout         — single domain, no accounting (base Scout),
//   kAccounting    — single domain, fine-grain accounting,
//   kAccountingPd  — accounting + one protection domain per module.

#ifndef SRC_SERVER_WEB_SERVER_H_
#define SRC_SERVER_WEB_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/fs.h"
#include "src/fs/scsi.h"
#include "src/net/arp.h"
#include "src/net/eth.h"
#include "src/net/http.h"
#include "src/net/ip.h"
#include "src/net/tcp.h"
#include "src/path/path_manager.h"
#include "src/server/cgi.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/workload/network.h"

namespace escort {

enum class ServerConfig { kScout, kAccounting, kAccountingPd };

const char* ServerConfigName(ServerConfig c);

struct WebServerOptions {
  ServerConfig config = ServerConfig::kAccounting;
  SchedulerKind scheduler = SchedulerKind::kProportionalShare;
  CostModel costs = CostModel::Calibrated();

  MacAddr mac = MacAddr::FromIndex(1);
  Ip4Addr ip = Ip4Addr::FromOctets(10, 0, 0, 1);

  // SYN policy: two passive paths — one for the trusted subnet (unlimited)
  // and one for everything else, budgeted.
  Subnet trusted_subnet = Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8};
  uint32_t untrusted_syn_limit = 4;

  // Per-owner CPU budget: runaway threads are detected after this much CPU
  // without a yield and their path is killed (0 disables).
  Cycles active_max_run = CyclesFromMillis(2.0);

  // Proportional-share tickets for regular active paths (QoS paths take
  // theirs from HttpServerModule::qos_tickets).
  uint64_t active_tickets = 100;

  // Documents published by the file system at boot.
  struct Doc {
    std::string name;
    uint64_t size;
  };
  std::vector<Doc> documents = {{"/doc1b", 1}, {"/doc1k", 1024}, {"/doc10k", 10240}};

  // Deterministic trace sink (see src/sim/trace.h). Not owned; null = off.
  Tracer* tracer = nullptr;

  // Metrics registry (see src/sim/metrics.h). Not owned; null = off. The
  // server installs it on its kernel, so every layer above (TCP, policy,
  // detectors) publishes through kernel().metrics().
  MetricsRegistry* metrics = nullptr;
};

class EscortWebServer : public NetEndpoint {
 public:
  EscortWebServer(EventQueue* eq, SharedLink* link, WebServerOptions options);
  ~EscortWebServer() override;

  EscortWebServer(const EscortWebServer&) = delete;
  EscortWebServer& operator=(const EscortWebServer&) = delete;

  // NetEndpoint: frames from the wire enter the ETH driver.
  void DeliverFrame(const std::vector<uint8_t>& frame) override;

  Kernel& kernel() { return *kernel_; }
  PathManager& paths() { return *paths_; }
  ModuleGraph& graph() { return *graph_; }
  const WebServerOptions& options() const { return options_; }

  EthDriverModule* eth() { return eth_; }
  ArpModule* arp() { return arp_; }
  IpModule* ip_module() { return ip_; }
  TcpModule* tcp() { return tcp_; }
  HttpServerModule* http() { return http_; }
  CgiModule* cgi() { return cgi_; }
  FsModule* fs() { return fs_; }
  ScsiDiskModule* scsi() { return scsi_; }

  TcpListener* trusted_listener() { return trusted_listener_; }
  TcpListener* untrusted_listener() { return untrusted_listener_; }

  // DoS bookkeeping.
  uint64_t paths_killed() const { return paths_killed_; }
  Samples& kill_cost_cycles() { return kill_cost_cycles_; }

  // pathKill plus the standard kill bookkeeping (count, metric, cost
  // sample). The runaway and fault handlers and the detection policies
  // (src/server/detect.h) all kill through here. It does NOT invoke the
  // violation hook: the runaway handler calls the hook itself, and a
  // detector records its own violation, so the strike would otherwise be
  // double-counted. Returns the reclamation cost.
  Cycles KillPathForViolation(Path* path);

  // Memory footprint of the server-side connection table (slab-indexed
  // PCBs). Feeds the determinism-exempt `memory` block of the bench JSON.
  struct ConnSlabStats {
    size_t slot_bytes = 0;
    size_t live = 0;
    size_t high_water = 0;
    size_t bytes_reserved = 0;
  };
  ConnSlabStats conn_slab_stats() const;

  // Invoked with the remote address whenever a path is killed for a
  // resource-bound violation (feeds the blacklist policy).
  void set_violation_hook(std::function<void(Ip4Addr)> hook) {
    violation_hook_ = std::move(hook);
  }

  // Pre-seeds the server ARP table (the testbed's static neighbourhood).
  void AddArpEntry(Ip4Addr ip, MacAddr mac) { arp_->AddEntry(ip, mac); }

 private:
  WebServerOptions options_;
  SharedLink* link_ = nullptr;

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<ModuleGraph> graph_;
  std::unique_ptr<PathManager> paths_;

  EthDriverModule* eth_ = nullptr;
  ArpModule* arp_ = nullptr;
  IpModule* ip_ = nullptr;
  TcpModule* tcp_ = nullptr;
  HttpServerModule* http_ = nullptr;
  CgiModule* cgi_ = nullptr;
  FsModule* fs_ = nullptr;
  ScsiDiskModule* scsi_ = nullptr;

  TcpListener* trusted_listener_ = nullptr;
  TcpListener* untrusted_listener_ = nullptr;

  uint64_t paths_killed_ = 0;
  Samples kill_cost_cycles_;
  std::function<void(Ip4Addr)> violation_hook_;
  MetricCounter* m_paths_killed_ = nullptr;
};

}  // namespace escort

#endif  // SRC_SERVER_WEB_SERVER_H_
