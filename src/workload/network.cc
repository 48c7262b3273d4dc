#include "src/workload/network.h"

#include <algorithm>
#include <utility>

namespace escort {

void SharedLink::Attach(const MacAddr& mac, NetEndpoint* endpoint, Cycles extra_latency) {
  ports_[mac] = Port{endpoint, extra_latency, eq_->current_stream()};
}

void SharedLink::Detach(const MacAddr& mac) { ports_.erase(mac); }

Cycles SharedLink::SerializationTime(size_t frame_bytes) const {
  // Preamble + IFG + CRC overhead on the wire; 64-byte minimum frame.
  size_t wire_bytes = std::max<size_t>(frame_bytes + 24, 84);
  double secs = static_cast<double>(wire_bytes * 8) / model_.link_bandwidth_bps;
  return CyclesFromSeconds(secs);
}

void SharedLink::Send(const MacAddr& src, std::vector<uint8_t> frame) {
  if (frame.size() < 14) {
    return;
  }
  MacAddr dst;
  std::copy_n(frame.begin(), 6, dst.bytes.begin());
  eq_->PostSequenced([this, src, dst, f = std::move(frame)]() mutable {
    TransmitSequenced(src, dst, std::move(f), eq_->now());
  });
}

void SharedLink::TransmitSequenced(const MacAddr& src, const MacAddr& dst,
                                   std::vector<uint8_t> frame, Cycles send_time) {
  // All shared medium state (arbitration, counters, the drop hook) is
  // touched only here, in deterministic transaction order.
  if (drop_every_ != 0 && (frames_ + 1) % drop_every_ == 0) {
    ++frames_;
    ++dropped_;
    return;
  }
  Cycles tx = SerializationTime(frame.size());
  Cycles start = std::max(send_time, medium_free_);
  medium_free_ = start + tx;
  busy_cycles_ += tx;
  ++frames_;

  Cycles at = medium_free_;
  if (dst.IsBroadcast()) {
    for (auto& [mac, port] : ports_) {
      if (mac == src) {
        continue;
      }
      NetEndpoint* ep = port.endpoint;
      eq_->ScheduleAtFrom(port.stream, at + port.extra_latency,
                          [ep, frame] { ep->DeliverFrame(frame); });
    }
    return;
  }
  auto it = ports_.find(dst);
  if (it == ports_.end()) {
    return;
  }
  NetEndpoint* ep = it->second.endpoint;
  eq_->ScheduleAtFrom(it->second.stream, at + it->second.extra_latency,
                      [ep, frame = std::move(frame)] { ep->DeliverFrame(frame); });
}

double SharedLink::utilization(Cycles window_start, Cycles window_end) const {
  if (window_end <= window_start) {
    return 0.0;
  }
  return static_cast<double>(busy_cycles_) / static_cast<double>(window_end - window_start);
}

}  // namespace escort
