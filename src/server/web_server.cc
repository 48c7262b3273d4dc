#include "src/server/web_server.h"

#include "src/sim/metrics.h"

namespace escort {

const char* ServerConfigName(ServerConfig c) {
  switch (c) {
    case ServerConfig::kScout:
      return "Scout";
    case ServerConfig::kAccounting:
      return "Accounting";
    case ServerConfig::kAccountingPd:
      return "Accounting_PD";
  }
  return "?";
}

EscortWebServer::EscortWebServer(EventQueue* eq, SharedLink* link, WebServerOptions options)
    : options_(std::move(options)), link_(link) {
  KernelConfig kc;
  kc.accounting = options_.config != ServerConfig::kScout;
  kc.protection_domains = options_.config == ServerConfig::kAccountingPd;
  kc.scheduler = options_.scheduler;
  kc.costs = options_.costs;
  kernel_ = std::make_unique<Kernel>(eq, kc);
  // Attach before anything builds so boot-time work (listener passive
  // paths, module registration) appears in the timeline too.
  kernel_->set_tracer(options_.tracer);
  kernel_->set_metrics(options_.metrics);
  if (options_.metrics != nullptr) {
    m_paths_killed_ = ESCORT_METRIC_COUNTER(options_.metrics, "server.paths_killed",
                                            "paths destroyed for resource violations");
  }

  // Protection domains: in the PD configuration every module runs in its
  // own domain (the paper's worst case, Figure 3); otherwise everything is
  // configured into the privileged domain.
  auto domain_for = [&](const std::string& name) -> PdId {
    if (options_.config != ServerConfig::kAccountingPd) {
      return kKernelDomain;
    }
    return kernel_->CreateDomain(name)->pd_id();
  };

  graph_ = std::make_unique<ModuleGraph>(kernel_.get());
  eth_ = graph_->Add(std::make_unique<EthDriverModule>(options_.mac), domain_for("eth"));
  arp_ = graph_->Add(std::make_unique<ArpModule>(options_.ip, options_.mac), domain_for("arp"));
  ip_ = graph_->Add(std::make_unique<IpModule>(options_.ip), domain_for("ip"));
  tcp_ = graph_->Add(std::make_unique<TcpModule>(options_.ip), domain_for("tcp"));
  http_ = graph_->Add(std::make_unique<HttpServerModule>(), domain_for("http"));
  cgi_ = graph_->Add(std::make_unique<CgiModule>(), domain_for("cgi"));
  fs_ = graph_->Add(std::make_unique<FsModule>(), domain_for("fs"));
  scsi_ = graph_->Add(std::make_unique<ScsiDiskModule>(), domain_for("scsi"));

  // The module graph of Figure 1 (plus CGI between HTTP and FS).
  graph_->Connect(eth_, arp_, ServiceInterface::kAsyncIo);
  graph_->Connect(eth_, ip_, ServiceInterface::kAsyncIo);
  graph_->Connect(ip_, arp_, ServiceInterface::kNameResolution);
  graph_->Connect(ip_, tcp_, ServiceInterface::kAsyncIo);
  graph_->Connect(tcp_, http_, ServiceInterface::kAsyncIo);
  graph_->Connect(http_, cgi_, ServiceInterface::kFileAccess);
  graph_->Connect(cgi_, fs_, ServiceInterface::kFileAccess);
  graph_->Connect(fs_, scsi_, ServiceInterface::kFileAccess);

  eth_->SetUpstream(ip_, arp_);
  ip_->SetNeighbors(tcp_, arp_);
  tcp_->SetNeighbors(ip_, http_);
  http_->SetNeighbors(tcp_, cgi_);
  cgi_->SetNeighbors(fs_);
  fs_->SetNeighbors(scsi_);

  eth_->SetTransmit([this](std::vector<uint8_t> frame) {
    link_->Send(options_.mac, std::move(frame));
  });
  link_->Attach(options_.mac, this, NetworkModel::Calibrated().server_link_latency);

  // On-link route for the whole testbed.
  ip_->routes().Add(Route{Subnet{Ip4Addr{0}, 0}, Ip4Addr{0}, 10});

  paths_ = std::make_unique<PathManager>(kernel_.get(), graph_.get());
  graph_->InitAll(paths_.get());

  // Publish documents.
  for (const auto& doc : options_.documents) {
    fs_->AddDocument(doc.name, doc.size);
  }

  // Listeners (passive paths): the SYN policy gets a trusted and an
  // untrusted passive path; the untrusted one is budgeted.
  trusted_listener_ = tcp_->Listen(80, options_.trusted_subnet);
  untrusted_listener_ = tcp_->Listen(80, Subnet{Ip4Addr{0}, 0});
  untrusted_listener_->syn_limit = options_.untrusted_syn_limit;
  // Slow-walk untrusted half-open connections: accepted-SYN rate under a
  // flood is budget/hold, so the long hold bounds the amplification.
  untrusted_listener_->syn_recvd_timeout = CyclesFromMillis(1500);
  for (TcpListener* l : {trusted_listener_, untrusted_listener_}) {
    l->active_label = "Main Active Path";
    l->active_tickets = options_.active_tickets;
    l->active_max_run = options_.active_max_run;
  }

  // Runaway policy: the 2 ms CPU budget was exceeded -> pathKill. The kill
  // reclaims every resource of the path in every domain it crosses.
  kernel_->set_runaway_handler([this](Owner* owner, Thread* /*t*/) {
    if (owner->type() != OwnerType::kPath) {
      return;
    }
    auto* path = static_cast<Path*>(owner);
    if (violation_hook_) {
      // The offender's address is a path invariant fixed at creation.
      if (auto raddr = path->attrs.GetInt("raddr"); raddr.has_value()) {
        violation_hook_(Ip4Addr{static_cast<uint32_t>(*raddr)});
      }
    }
    KillPathForViolation(path);
  });
  // Protection faults (illegal domain crossing) get the same treatment.
  kernel_->set_fault_handler([this](Owner* owner, Thread* /*t*/) {
    if (owner->type() != OwnerType::kPath) {
      return;
    }
    KillPathForViolation(static_cast<Path*>(owner));
  });
}

EscortWebServer::~EscortWebServer() {
  if (link_ != nullptr) {
    link_->Detach(options_.mac);
  }
}

void EscortWebServer::DeliverFrame(const std::vector<uint8_t>& frame) {
  eth_->ReceiveFrame(frame);
}

EscortWebServer::ConnSlabStats EscortWebServer::conn_slab_stats() const {
  const Slab<TcpPcb>& slab = tcp_->pcb_slab();
  ConnSlabStats s;
  s.slot_bytes = Slab<TcpPcb>::slot_bytes();
  s.live = slab.live();
  s.high_water = slab.high_water();
  s.bytes_reserved = slab.bytes_reserved();
  return s;
}

Cycles EscortWebServer::KillPathForViolation(Path* path) {
  Cycles cost = paths_->Kill(path);
  ++paths_killed_;
  MetricAdd(m_paths_killed_);
  kill_cost_cycles_.Add(static_cast<double>(cost));
  return cost;
}

}  // namespace escort
