// ARP: address-resolution module.
//
// Keeps the IP -> MAC table as module state (accessible to every path
// crossing the module), answers requests for our address, and learns from
// replies. At boot it creates the ARP path ([ETH, ARP]) that request/reply
// traffic travels on.

#ifndef SRC_NET_ARP_H_
#define SRC_NET_ARP_H_

#include <optional>

#include "src/net/headers.h"
#include "src/path/path.h"

namespace escort {

class ArpModule : public Module {
 public:
  ArpModule(Ip4Addr our_ip, MacAddr our_mac)
      : Module("ARP", {ServiceInterface::kAsyncIo, ServiceInterface::kNameResolution}),
        our_ip_(our_ip),
        our_mac_(our_mac) {}

  void Init() override;

  // Name-resolution service used by IP.
  std::optional<MacAddr> Resolve(Ip4Addr ip) const;
  void AddEntry(Ip4Addr ip, MacAddr mac) { table_.Set(ip, mac); }
  size_t table_size() const { return table_.size(); }

  // Sends an ARP request for `ip` (fire and forget; the reply populates the
  // table).
  void SendRequest(Ip4Addr ip);

  OpenResult Open(Path* path, const Attributes& attrs) override;
  DemuxDecision Demux(const Message& msg) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

  uint64_t requests_answered() const { return answered_; }

 private:
  Message NewArpMessage(Path* path, const ArpPacket& pkt, MacAddr dst);

  const Ip4Addr our_ip_;
  const MacAddr our_mac_;
  ArpTable table_;
  Path* arp_path_ = nullptr;
  uint64_t answered_ = 0;
};

}  // namespace escort

#endif  // SRC_NET_ARP_H_
