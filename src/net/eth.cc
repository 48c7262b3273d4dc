#include "src/net/eth.h"

#include "src/path/path_manager.h"

namespace escort {

uint64_t MacToAux(const MacAddr& mac) {
  uint64_t v = 0;
  for (uint8_t b : mac.bytes) {
    v = (v << 8) | b;
  }
  return v;
}

MacAddr MacFromAux(uint64_t aux) {
  MacAddr mac;
  for (int i = 5; i >= 0; --i) {
    mac.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(aux);
    aux >>= 8;
  }
  return mac;
}

void EthDriverModule::ReceiveFrame(const std::vector<uint8_t>& frame) {
  // Receive buffers are owned by the driver's domain and readable along any
  // path (the driver cannot know the receiving path before demux).
  std::vector<PdId> read_domains;
  for (const auto& pd : kernel()->domains()) {
    read_domains.push_back(pd->pd_id());
  }
  Owner* owner = kernel()->domain(pd());
  Message msg = Message::Alloc(kernel(), owner, pd(), read_domains, frame.size(), kFullHeadroom);
  if (!msg.valid()) {
    return;
  }
  msg.Append(pd(), frame.data(), frame.size());
  paths()->DemuxAndDeliver(this, std::move(msg));
}

OpenResult EthDriverModule::Open(Path* path, const Attributes& attrs) {
  (void)path;
  OpenResult r;
  r.ok = true;
  const std::string role = attrs.GetStrOr("role", "tcp");
  r.next = role == "arp" ? arp_ : ip_;
  return r;
}

DemuxDecision EthDriverModule::Demux(const Message& msg) {
  auto hdr = ParseEthHeader(msg, pd());
  if (!hdr.has_value()) {
    return DemuxDecision::Drop("eth-parse");
  }
  if (hdr->dst != mac_ && !hdr->dst.IsBroadcast()) {
    return DemuxDecision::Drop("eth-notus");
  }
  switch (hdr->ethertype) {
    case kEtherTypeIp:
      return DemuxDecision::Continue(ip_);
    case kEtherTypeArp:
      return DemuxDecision::Continue(arp_);
    default:
      return DemuxDecision::Drop("eth-type");
  }
}

void EthDriverModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  if (dir == Direction::kUp) {
    // Strip the Ethernet header and hand the packet to the network layer.
    if (!msg.Strip(kEthHeaderLen)) {
      return;
    }
    stage.path->ForwardUp(stage, std::move(msg));
    return;
  }
  // Transmit: the network layer left the next-hop MAC in msg.aux.
  EthHeader hdr;
  hdr.dst = MacFromAux(msg.aux);
  hdr.src = mac_;
  hdr.ethertype = static_cast<uint16_t>(msg.note == "arp" ? kEtherTypeArp : kEtherTypeIp);
  uint8_t hdr_bytes[kEthHeaderLen];
  SerializeEthHeader(hdr, hdr_bytes);
  if (!msg.PrependHeaderFragment(kernel(), pd(), hdr_bytes, kEthHeaderLen)) {
    return;
  }
  std::vector<uint8_t> frame = msg.CopyOut(pd());
  kernel()->Consume(frame.size() * kernel()->costs().per_byte_touch);
  if (transmit_) {
    transmit_(std::move(frame));
  }
}

Cycles EthDriverModule::ProcessCost(Direction dir) const {
  return dir == Direction::kUp ? kernel()->costs().eth_rx : kernel()->costs().eth_tx;
}

}  // namespace escort
