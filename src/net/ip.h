// IP: the IPv4 module.
//
// The routing table is module state stored in IP's protection domain —
// the canonical example in the paper of a resource that cannot be charged
// to any individual flow and is therefore owned by the domain. Paths
// executing IP code have access to it; if the domain dies, all paths
// crossing IP die with it.

#ifndef SRC_NET_IP_H_
#define SRC_NET_IP_H_

#include <cstdint>
#include <vector>

#include "src/net/arp.h"
#include "src/net/headers.h"
#include "src/path/path.h"

namespace escort {

struct Route {
  Subnet dest;
  Ip4Addr gateway;   // 0 => on-link
  int metric = 0;
};

class RoutingTable {
 public:
  void Add(Route route) { routes_.push_back(route); }

  // Longest-prefix match; returns the next hop for `dst` (dst itself when
  // on-link) or nullopt when unroutable.
  std::optional<Ip4Addr> Lookup(Ip4Addr dst) const;

  size_t size() const { return routes_.size(); }

 private:
  std::vector<Route> routes_;
};

class IpModule : public Module {
 public:
  explicit IpModule(Ip4Addr our_ip)
      : Module("IP", {ServiceInterface::kAsyncIo}), our_ip_(our_ip) {}

  Ip4Addr our_ip() const { return our_ip_; }
  RoutingTable& routes() { return routes_; }

  void SetNeighbors(Module* tcp, ArpModule* arp) {
    tcp_ = tcp;
    arp_ = arp;
  }

  OpenResult Open(Path* path, const Attributes& attrs) override;
  DemuxDecision Demux(const Message& msg) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

  uint64_t unroutable() const { return unroutable_; }

  // Packs (src, dst) addresses into a message aux word for the TCP layer.
  static uint64_t PackAddrs(Ip4Addr src, Ip4Addr dst) {
    return (static_cast<uint64_t>(src.value) << 32) | dst.value;
  }
  static Ip4Addr AuxSrc(uint64_t aux) { return Ip4Addr{static_cast<uint32_t>(aux >> 32)}; }
  static Ip4Addr AuxDst(uint64_t aux) { return Ip4Addr{static_cast<uint32_t>(aux)}; }

 private:
  const Ip4Addr our_ip_;
  RoutingTable routes_;
  Module* tcp_ = nullptr;
  ArpModule* arp_ = nullptr;
  uint16_t next_id_ = 1;
  uint64_t unroutable_ = 0;
};

}  // namespace escort

#endif  // SRC_NET_IP_H_
