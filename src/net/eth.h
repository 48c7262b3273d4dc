// ETH: the Ethernet device-driver module.
//
// The driver owns the NIC: frames arriving from the wire enter the system
// here (interrupt + incremental demux), and transmit messages leave through
// it. The wire itself is provided by the workload layer as a transmit
// callback (see src/workload/network.h).

#ifndef SRC_NET_ETH_H_
#define SRC_NET_ETH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/headers.h"
#include "src/path/path.h"

namespace escort {

// Packs a MAC address into a message aux word (IP -> ETH next-hop handoff).
uint64_t MacToAux(const MacAddr& mac);
MacAddr MacFromAux(uint64_t aux);

class EthDriverModule : public Module {
 public:
  EthDriverModule(MacAddr mac)
      : Module("ETH", {ServiceInterface::kAsyncIo}), mac_(mac) {}

  MacAddr mac() const { return mac_; }

  // Wiring done by the configuration layer.
  void SetUpstream(Module* ip, Module* arp) {
    ip_ = ip;
    arp_ = arp;
  }
  void SetTransmit(std::function<void(std::vector<uint8_t>)> tx) { transmit_ = std::move(tx); }

  // Entry point from the wire (called by the simulated link at frame
  // arrival time). Performs incremental demux and schedules delivery.
  void ReceiveFrame(const std::vector<uint8_t>& frame);

  // Module interface -----------------------------------------------------
  OpenResult Open(Path* path, const Attributes& attrs) override;
  DemuxDecision Demux(const Message& msg) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

 private:
  const MacAddr mac_;
  Module* ip_ = nullptr;
  Module* arp_ = nullptr;
  std::function<void(std::vector<uint8_t>)> transmit_;
};

}  // namespace escort

#endif  // SRC_NET_ETH_H_
