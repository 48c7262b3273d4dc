// The simulated testbed network (paper Figure 7).
//
// One shared 100 Mbps Ethernet segment connects the server, the QoS
// receiver, the SYN attacker, and (through the switch + hub, which we fold
// into per-endpoint latency) the client/attacker machines. The segment
// serializes transmissions (a busy medium delays later frames) so the QoS
// stream competes with client traffic for wire capacity exactly as in the
// paper's topology.

#ifndef SRC_WORKLOAD_NETWORK_H_
#define SRC_WORKLOAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "src/elib/address.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"

namespace escort {

class NetEndpoint {
 public:
  virtual ~NetEndpoint() = default;
  virtual void DeliverFrame(const std::vector<uint8_t>& frame) = 0;
};

class SharedLink {
 public:
  SharedLink(EventQueue* eq, NetworkModel model) : eq_(eq), model_(model) {}

  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  // Attaches an endpoint. The port remembers the event queue's current
  // stream: deliveries to this endpoint execute in that stream's context
  // (testbeds construct each machine inside an EventQueue::StreamScope).
  // Ports are indexed by MacAddr::ToIndex, so `mac` must come from
  // MacAddr::FromIndex; any other MAC throws std::invalid_argument. The
  // port table grows to the largest index attached.
  void Attach(const MacAddr& mac, NetEndpoint* endpoint, Cycles extra_latency = 0);
  void Detach(const MacAddr& mac);

  // Transmits a frame. Unicast goes to the owner of the destination MAC
  // (a MAC with no attached port is dropped); broadcast goes to everyone
  // except the sender, in ascending MAC order. Delivery happens after the
  // medium frees up + serialization + latency.
  //
  // The medium is the one piece of state shared between streams, so the
  // send runs as a sequenced transaction (EventQueue::PostSequenced):
  // same-time sends are arbitrated in (stream, seq) order.
  void Send(const MacAddr& src, std::vector<uint8_t> frame);

  // Test hook: drop every n-th frame (0 = no loss).
  void set_drop_every(uint64_t n) { drop_every_ = n; }

  uint64_t frames_dropped() const { return dropped_; }

 private:
  struct Port {
    NetEndpoint* endpoint = nullptr;  // nullptr: empty slot
    Cycles extra_latency = 0;
    EventQueue::StreamId stream = 0;  // deliveries run in this stream
  };

  // The attached port for `mac`, or nullptr when the MAC has no index, its
  // index is past the table, or the slot is empty.
  Port* PortOf(const MacAddr& mac);
  Cycles SerializationTime(size_t frame_bytes) const;
  // Body of Send: runs in sequenced-transaction order.
  void TransmitSequenced(const MacAddr& src, const MacAddr& dst, std::vector<uint8_t> frame,
                         Cycles send_time);

  EventQueue* const eq_;
  const NetworkModel model_;
  // Indexed by MacAddr::ToIndex. Ascending index is ascending MAC order:
  // a broadcast schedules its same-time deliveries in that order.
  std::vector<Port> ports_;
  Cycles medium_free_ = 0;
  uint64_t frames_ = 0;
  uint64_t dropped_ = 0;
  uint64_t drop_every_ = 0;
};

}  // namespace escort

#endif  // SRC_WORKLOAD_NETWORK_H_
