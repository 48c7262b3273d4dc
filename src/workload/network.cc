#include "src/workload/network.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace escort {

void SharedLink::Attach(const MacAddr& mac, NetEndpoint* endpoint, Cycles extra_latency) {
  std::optional<uint64_t> index = mac.ToIndex();
  if (!index.has_value()) {
    throw std::invalid_argument("SharedLink::Attach: " + mac.ToString() +
                                " is not a MacAddr::FromIndex address");
  }
  if (*index >= ports_.size()) {
    ports_.resize(*index + 1);
  }
  ports_[*index] = Port{endpoint, extra_latency, eq_->current_stream()};
}

void SharedLink::Detach(const MacAddr& mac) {
  if (Port* port = PortOf(mac); port != nullptr) {
    *port = Port{};
  }
}

SharedLink::Port* SharedLink::PortOf(const MacAddr& mac) {
  std::optional<uint64_t> index = mac.ToIndex();
  if (!index.has_value() || *index >= ports_.size() || ports_[*index].endpoint == nullptr) {
    return nullptr;
  }
  return &ports_[*index];
}

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
  ++frames_;

  Cycles at = medium_free_;
  if (dst.IsBroadcast()) {
    std::optional<uint64_t> src_index = src.ToIndex();
    for (size_t i = 0; i < ports_.size(); ++i) {
      const Port& port = ports_[i];
      if (port.endpoint == nullptr || src_index == i) {
        continue;
      }
      NetEndpoint* ep = port.endpoint;
      eq_->ScheduleAtFrom(port.stream, at + port.extra_latency,
                          [ep, frame] { ep->DeliverFrame(frame); });
    }
    return;
  }
  const Port* port = PortOf(dst);
  if (port == nullptr) {
    return;
  }
  NetEndpoint* ep = port->endpoint;
  eq_->ScheduleAtFrom(port->stream, at + port->extra_latency,
                      [ep, frame = std::move(frame)] { ep->DeliverFrame(frame); });
}

}  // namespace escort
