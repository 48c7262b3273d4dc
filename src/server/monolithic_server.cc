#include "src/server/monolithic_server.h"

#include <algorithm>

namespace escort {

MonolithicServer::MonolithicServer(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr ip,
                                   CostModel costs)
    : eq_(eq), link_(link), mac_(mac), ip_(ip), costs_(costs) {
  link_->Attach(mac_, this, NetworkModel::Calibrated().server_link_latency);
}

MonolithicServer::~MonolithicServer() { link_->Detach(mac_); }

void MonolithicServer::AddDocument(const std::string& name, uint64_t size) {
  std::vector<uint8_t> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>('A' + (i % 26));
  }
  docs_[name] = std::move(bytes);
}

void MonolithicServer::CpuRun(Cycles cost, std::function<void()> fn) {
  Cycles start = std::max(eq_->now(), cpu_free_);
  cpu_free_ = start + cost;
  eq_->ScheduleAt(cpu_free_, std::move(fn));
}

void MonolithicServer::SendSegment(const ConnKey& key, uint8_t flags, uint32_t seq, uint32_t ack,
                                   const std::vector<uint8_t>& payload) {
  MacAddr dst = arp_.Find(key.remote_addr).value_or(MacAddr::Broadcast());
  TcpHeader hdr;
  hdr.src_port = key.local_port;
  hdr.dst_port = key.remote_port;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.flags = flags;
  link_->Send(mac_, BuildTcpFrame(mac_, dst, ip_, key.remote_addr, hdr, payload));
}

void MonolithicServer::DeliverFrame(const std::vector<uint8_t>& frame) {
  auto parsed = ParseFrame(frame);
  if (!parsed.has_value()) {
    return;
  }
  if (parsed->is_arp) {
    arp_.Set(parsed->arp.sender_ip, parsed->arp.sender_mac);
    if (parsed->arp.opcode == 1 && parsed->arp.target_ip == ip_) {
      ArpPacket reply;
      reply.opcode = 2;
      reply.sender_mac = mac_;
      reply.sender_ip = ip_;
      reply.target_mac = parsed->arp.sender_mac;
      reply.target_ip = parsed->arp.sender_ip;
      link_->Send(mac_, BuildArpFrame(mac_, parsed->arp.sender_mac, reply));
    }
    return;
  }
  if (!parsed->is_tcp || parsed->ip.dst != ip_ || !parsed->tcp.checksum_ok) {
    return;
  }
  arp_.Set(parsed->ip.src, parsed->eth.src);
  // Interrupt + softirq processing occupies the CPU before the stack runs.
  WireFrame f = std::move(*parsed);
  CpuRun(costs_.linux_syn_cost / 2, [this, f = std::move(f)] { HandleTcp(f); });
}

void MonolithicServer::HandleTcp(const WireFrame& f) {
  ConnKey key{ip_, f.tcp.dst_port, f.ip.src, f.tcp.src_port};
  auto it = conns_.find(key);

  if (it == conns_.end()) {
    if ((f.tcp.flags & kTcpSyn) != 0 && (f.tcp.flags & kTcpAck) == 0 && f.tcp.dst_port == 80) {
      // Global listen queue: no notion of who is asking (the paper's
      // motivating weakness — all accounting happens after dispatch).
      if (half_open_ >= costs_.linux_syn_backlog) {
        ++syn_drops_;
        return;
      }
      Conn c;
      c.key = key;
      c.iss = next_iss_;
      next_iss_ += 64'000;
      c.snd_nxt = c.iss + 1;
      c.snd_una = c.iss;
      c.send_base = c.iss + 1;
      c.rcv_nxt = f.tcp.seq + 1;
      conns_[key] = c;
      ++half_open_;
      SendSegment(key, kTcpSyn | kTcpAck, c.iss, c.rcv_nxt, {});
    }
    return;
  }

  Conn& c = it->second;
  if ((f.tcp.flags & kTcpRst) != 0) {
    if (c.state == Conn::State::kSynRecvd && half_open_ > 0) {
      --half_open_;
    }
    conns_.erase(it);
    return;
  }

  if ((f.tcp.flags & kTcpAck) != 0) {
    if (c.state == Conn::State::kSynRecvd && f.tcp.ack == c.iss + 1) {
      c.state = Conn::State::kEstablished;
      if (half_open_ > 0) {
        --half_open_;
      }
    }
    if (static_cast<int32_t>(f.tcp.ack - c.snd_una) > 0) {
      c.snd_una = f.tcp.ack;
      c.cwnd_segments = std::min<uint32_t>(c.cwnd_segments + 1, 16);
      if (c.fin_sent && c.snd_una == c.fin_seq + 1) {
        if (c.state == Conn::State::kFinWait1) {
          c.state = Conn::State::kFinWait2;
        }
      } else {
        PumpSend(c);
      }
    }
  }

  uint32_t seg_len = static_cast<uint32_t>(f.payload.size());
  if (seg_len > 0 && f.tcp.seq == c.rcv_nxt) {
    c.rcv_nxt += seg_len;
    c.reqbuf.append(reinterpret_cast<const char*>(f.payload.data()), seg_len);
    SendSegment(c.key, kTcpAck, c.snd_nxt, c.rcv_nxt, {});
    if (!c.responded && c.reqbuf.find("\r\n\r\n") != std::string::npos) {
      c.responded = true;
      // Process-per-connection: fork + exec + Apache request handling.
      ConnKey k = c.key;
      uint64_t body_len = 0;
      size_t sp1 = c.reqbuf.find(' ');
      size_t sp2 = c.reqbuf.find(' ', sp1 + 1);
      std::string target =
          sp1 != std::string::npos && sp2 != std::string::npos
              ? c.reqbuf.substr(sp1 + 1, sp2 - sp1 - 1)
              : "";
      auto doc = docs_.find(target);
      if (doc != docs_.end()) {
        body_len = doc->second.size();
      }
      Cycles cost = costs_.linux_request_cpu + body_len * costs_.linux_request_per_byte;
      CpuRun(cost, [this, k, target] {
        auto conn = conns_.find(k);
        if (conn == conns_.end()) {
          return;
        }
        HandleRequest(conn->second);
        (void)target;
      });
    }
  } else if (seg_len > 0) {
    SendSegment(c.key, kTcpAck, c.snd_nxt, c.rcv_nxt, {});
  }

  if ((f.tcp.flags & kTcpFin) != 0 && f.tcp.seq + seg_len == c.rcv_nxt) {
    c.rcv_nxt += 1;
    SendSegment(c.key, kTcpAck, c.snd_nxt, c.rcv_nxt, {});
    if (c.state == Conn::State::kFinWait2 || c.state == Conn::State::kFinWait1) {
      conns_.erase(it);
    }
  }
}

void MonolithicServer::HandleRequest(Conn& c) {
  size_t sp1 = c.reqbuf.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos : c.reqbuf.find(' ', sp1 + 1);
  std::string target;
  if (sp1 != std::string::npos && sp2 != std::string::npos) {
    target = c.reqbuf.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  auto doc = docs_.find(target);
  std::string hdr;
  if (doc == docs_.end()) {
    hdr = "HTTP/1.0 404 Not Found\r\nServer: Apache/1.2.6\r\nContent-Length: 0\r\n\r\n";
  } else {
    hdr = "HTTP/1.0 200 OK\r\nServer: Apache/1.2.6\r\nContent-Length: " +
          std::to_string(doc->second.size()) + "\r\n\r\n";
  }
  c.sendbuf.assign(hdr.begin(), hdr.end());
  if (doc != docs_.end()) {
    c.sendbuf.insert(c.sendbuf.end(), doc->second.begin(), doc->second.end());
  }
  c.send_base = c.snd_nxt;
  ++served_;
  PumpSend(c);
}

void MonolithicServer::PumpSend(Conn& c) {
  constexpr uint32_t kMss = 1460;
  for (;;) {
    uint32_t in_flight = c.snd_nxt - c.snd_una;
    if (in_flight >= c.cwnd_segments * kMss) {
      return;
    }
    uint32_t off = c.snd_nxt - c.send_base;
    if (off >= c.sendbuf.size()) {
      break;
    }
    uint32_t len = std::min<uint32_t>(kMss, static_cast<uint32_t>(c.sendbuf.size()) - off);
    std::vector<uint8_t> payload(c.sendbuf.begin() + off, c.sendbuf.begin() + off + len);
    SendSegment(c.key, kTcpAck | kTcpPsh, c.snd_nxt, c.rcv_nxt, payload);
    c.snd_nxt += len;
  }
  if (!c.fin_sent && c.responded && c.snd_nxt - c.send_base >= c.sendbuf.size()) {
    c.fin_sent = true;
    c.fin_seq = c.snd_nxt;
    SendSegment(c.key, kTcpFin | kTcpAck, c.snd_nxt, c.rcv_nxt, {});
    c.snd_nxt += 1;
    c.state = Conn::State::kFinWait1;
  }
}

}  // namespace escort
