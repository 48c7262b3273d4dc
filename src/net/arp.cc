#include "src/net/arp.h"

#include "src/net/eth.h"
#include "src/path/path_manager.h"

namespace escort {

void ArpModule::Init() {
  // The ARP path: [ETH, ARP]. Created at boot by the module's init function
  // (paper §2.3: modules initialize global state and create an initial set
  // of paths).
  Module* eth = paths()->graph()->Find("ETH");
  Attributes attrs;
  attrs.SetStr("role", "arp");
  arp_path_ = paths()->Create(eth, attrs, "ARP Path");
}

std::optional<MacAddr> ArpModule::Resolve(Ip4Addr ip) const { return table_.Find(ip); }

Message ArpModule::NewArpMessage(Path* path, const ArpPacket& pkt, MacAddr dst) {
  // Readable by every domain along the ARP path (the ETH driver transmits).
  std::vector<PdId> read_pds;
  for (const auto& stage : path->stages()) {
    read_pds.push_back(stage->pd);
  }
  Message msg = Message::Alloc(kernel(), path, pd(), read_pds, kArpPacketLen, kEthHeaderLen);
  if (!msg.valid()) {
    return msg;
  }
  WriteArpPacket(msg, pd(), pkt);
  msg.aux = MacToAux(dst);
  msg.note = "arp";
  return msg;
}

void ArpModule::SendRequest(Ip4Addr ip) {
  if (arp_path_ == nullptr) {
    return;
  }
  ArpPacket pkt;
  pkt.opcode = 1;
  pkt.sender_mac = our_mac_;
  pkt.sender_ip = our_ip_;
  pkt.target_mac = MacAddr{};
  pkt.target_ip = ip;
  Message msg = NewArpMessage(arp_path_, pkt, MacAddr::Broadcast());
  if (!msg.valid()) {
    return;
  }
  Stage* my_stage = arp_path_->StageOf(this);
  if (my_stage != nullptr) {
    arp_path_->ForwardDown(*my_stage, std::move(msg));
  }
}

OpenResult ArpModule::Open(Path* path, const Attributes& attrs) {
  (void)path;
  (void)attrs;
  OpenResult r;
  r.ok = true;
  r.next = nullptr;  // ARP terminates the path
  return r;
}

DemuxDecision ArpModule::Demux(const Message& msg) {
  (void)msg;
  if (arp_path_ == nullptr) {
    return DemuxDecision::Drop("arp-nopath");
  }
  return DemuxDecision::Deliver(arp_path_);
}

void ArpModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  if (dir != Direction::kUp) {
    // Down direction carries pre-built packets; nothing to do here (the ETH
    // stage below handles transmission).
    stage.path->ForwardDown(stage, std::move(msg));
    return;
  }
  auto pkt = ParseArpPacket(msg, pd());
  if (!pkt.has_value()) {
    return;
  }
  // Learn the sender either way.
  table_.Set(pkt->sender_ip, pkt->sender_mac);
  if (pkt->opcode == 1 && pkt->target_ip == our_ip_) {
    ++answered_;
    ArpPacket reply;
    reply.opcode = 2;
    reply.sender_mac = our_mac_;
    reply.sender_ip = our_ip_;
    reply.target_mac = pkt->sender_mac;
    reply.target_ip = pkt->sender_ip;
    Message out = NewArpMessage(stage.path, reply, pkt->sender_mac);
    if (out.valid()) {
      stage.path->ForwardDown(stage, std::move(out));
    }
  }
}

Cycles ArpModule::ProcessCost(Direction /*dir*/) const { return kernel()->costs().arp_process; }

}  // namespace escort
