#include "src/net/ip.h"

#include "src/net/eth.h"

namespace escort {

std::optional<Ip4Addr> RoutingTable::Lookup(Ip4Addr dst) const {
  const Route* best = nullptr;
  for (const Route& r : routes_) {
    if (!r.dest.Contains(dst)) {
      continue;
    }
    if (best == nullptr || r.dest.prefix_len > best->dest.prefix_len ||
        (r.dest.prefix_len == best->dest.prefix_len && r.metric < best->metric)) {
      best = &r;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return best->gateway.value == 0 ? dst : best->gateway;
}

OpenResult IpModule::Open(Path* path, const Attributes& attrs) {
  (void)path;
  (void)attrs;
  OpenResult r;
  r.ok = true;
  r.next = tcp_;
  return r;
}

DemuxDecision IpModule::Demux(const Message& msg) {
  // Demux sees the frame as received; the IP header sits after the
  // Ethernet header (IHL fixed at 5 on this wire).
  const uint8_t* p = msg.Data(pd());
  if (p == nullptr || msg.size() < kEthHeaderLen + kIpHeaderLen) {
    return DemuxDecision::Drop("ip-short");
  }
  const uint8_t* ip = p + kEthHeaderLen;
  if ((ip[0] >> 4) != 4) {
    return DemuxDecision::Drop("ip-version");
  }
  uint32_t dst = (static_cast<uint32_t>(ip[16]) << 24) | (static_cast<uint32_t>(ip[17]) << 16) |
                 (static_cast<uint32_t>(ip[18]) << 8) | ip[19];
  if (dst != our_ip_.value) {
    return DemuxDecision::Drop("ip-notus");
  }
  if (ip[9] != kIpProtoTcp) {
    return DemuxDecision::Drop("ip-proto");
  }
  return DemuxDecision::Continue(tcp_);
}

void IpModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  if (dir == Direction::kUp) {
    auto hdr = ParseIpHeader(msg, pd());
    if (!hdr.has_value() || !hdr->checksum_ok) {
      return;
    }
    if (hdr->dst != our_ip_ || hdr->protocol != kIpProtoTcp || hdr->ttl == 0) {
      return;
    }
    msg.Strip(kIpHeaderLen);
    // Trim link-layer padding: the IP total length is authoritative.
    uint64_t payload_len = hdr->total_length - kIpHeaderLen;
    if (msg.size() > payload_len) {
      msg.Trim(msg.size() - payload_len);
    }
    msg.aux = PackAddrs(hdr->src, hdr->dst);
    stage.path->ForwardUp(stage, std::move(msg));
    return;
  }

  // Down: encapsulate the TCP segment. TCP left the peer address in aux.
  Ip4Addr dst = AuxDst(msg.aux);
  Ip4Header hdr;
  hdr.src = our_ip_;
  hdr.dst = dst;
  hdr.protocol = kIpProtoTcp;
  hdr.id = next_id_++;
  // Headers go into a domain-local fragment: no payload copy even when this
  // domain only has a read mapping on the buffer.
  uint8_t bytes[kIpHeaderLen];
  SerializeIpHeader(hdr, msg.size(), bytes);
  if (!msg.PrependHeaderFragment(kernel(), pd(), bytes, kIpHeaderLen)) {
    return;
  }
  auto next_hop = routes_.Lookup(dst);
  if (!next_hop.has_value()) {
    ++unroutable_;
    return;
  }
  auto mac = arp_ != nullptr ? arp_->Resolve(*next_hop) : std::nullopt;
  if (!mac.has_value()) {
    // Kick off resolution and drop; the transport retransmits.
    if (arp_ != nullptr) {
      arp_->SendRequest(*next_hop);
    }
    ++unroutable_;
    return;
  }
  msg.aux = MacToAux(*mac);
  stage.path->ForwardDown(stage, std::move(msg));
}

Cycles IpModule::ProcessCost(Direction dir) const {
  return dir == Direction::kUp ? kernel()->costs().ip_rx : kernel()->costs().ip_tx;
}

}  // namespace escort
