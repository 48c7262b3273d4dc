#include "src/workload/client_machine.h"

namespace escort {

// --- TcpPeer --------------------------------------------------------------------

void TcpPeer::Connect() {
  state_ = State::kSynSent;
  SendFlags(kTcpSyn, iss_, {});
  snd_nxt_ = iss_ + 1;
  snd_una_ = iss_;
  ArmTimer();
}

void TcpPeer::SendData(const std::vector<uint8_t>& bytes) {
  if (state_ != State::kEstablished) {
    return;
  }
  SendFlags(kTcpAck | kTcpPsh, snd_nxt_, bytes);
  snd_nxt_ += static_cast<uint32_t>(bytes.size());
  ArmTimer();
}

void TcpPeer::Close() {
  if (state_ == State::kEstablished) {
    fin_sent_ = true;
    fin_seq_ = snd_nxt_;
    SendFlags(kTcpFin | kTcpAck, snd_nxt_, {});
    snd_nxt_ += 1;
    state_ = State::kFinWait1;
    ArmTimer();
  } else if (state_ == State::kCloseWait) {
    fin_sent_ = true;
    fin_seq_ = snd_nxt_;
    SendFlags(kTcpFin | kTcpAck, snd_nxt_, {});
    snd_nxt_ += 1;
    state_ = State::kLastAck;
    ArmTimer();
  }
}

void TcpPeer::Abort() {
  CancelTimer();
  state_ = State::kClosed;
  machine_->ReleaseConnection(this);
}

void TcpPeer::Fail() {
  CancelTimer();
  state_ = State::kFailed;
  if (owner_ != nullptr) {
    owner_->OnFailed(this);
  }
  machine_->ReleaseConnection(this);
}

void TcpPeer::SendFlags(uint8_t flags, uint32_t seq, const std::vector<uint8_t>& payload) {
  last_flags_ = flags;
  last_seq_ = seq;
  last_payload_ = payload;
  machine_->SendTcp(this, flags, seq, rcv_nxt_, payload);
}

void TcpPeer::ArmTimer() {
  CancelTimer();
  timer_armed_ = true;
  ClientMachine* m = machine_;
  ConnHandle h = self_;
  // Wheel timer, O(1) arm/cancel. The handle goes stale the moment the
  // connection is released — including when the local port is re-issued to
  // a later connection, which a port capture would silently mistake for
  // this one.
  timer_id_ = m->eq()->ScheduleTimerAfter(m->retransmit_timeout, [m, h] {
    if (TcpPeer* p = m->ResolvePeer(h); p != nullptr) {
      p->OnTimer();
    }
  });
}

void TcpPeer::CancelTimer() {
  if (timer_armed_) {
    machine_->eq()->CancelTimer(timer_id_);
    timer_armed_ = false;
  }
}

void TcpPeer::OnTimer() {
  timer_armed_ = false;
  if (state_ == State::kClosed || state_ == State::kFailed) {
    return;
  }
  if (++retransmits_ > machine_->max_retransmits) {
    Fail();
    return;
  }
  // Retransmit whatever we sent last.
  machine_->SendTcp(this, last_flags_, last_seq_, rcv_nxt_, last_payload_);
  ArmTimer();
}

void TcpPeer::OnSegment(const TcpHeader& hdr, const std::vector<uint8_t>& payload) {
  if ((hdr.flags & kTcpRst) != 0) {
    Fail();
    return;
  }

  if (state_ == State::kSynSent) {
    if ((hdr.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) && hdr.ack == iss_ + 1) {
      rcv_nxt_ = hdr.seq + 1;
      snd_una_ = hdr.ack;
      state_ = State::kEstablished;
      CancelTimer();
      SendFlags(kTcpAck, snd_nxt_, {});
      if (owner_ != nullptr) {
        owner_->OnConnected(this);
      }
    }
    return;
  }

  if ((hdr.flags & kTcpAck) != 0 && static_cast<int32_t>(hdr.ack - snd_una_) > 0) {
    snd_una_ = hdr.ack;
    CancelTimer();
    if (fin_sent_ && snd_una_ == fin_seq_ + 1) {
      if (state_ == State::kFinWait1) {
        state_ = State::kFinWait2;
      } else if (state_ == State::kLastAck) {
        state_ = State::kClosed;
        if (owner_ != nullptr) {
          owner_->OnClosed(this);
        }
        machine_->ReleaseConnection(this);
        return;
      }
    }
  }

  uint32_t seg_len = static_cast<uint32_t>(payload.size());
  bool made_progress = false;
  if (seg_len > 0 && hdr.seq == rcv_nxt_) {
    rcv_nxt_ += seg_len;
    bytes_received_ += seg_len;
    made_progress = true;
    if (owner_ != nullptr) {
      owner_->OnData(this, payload);
    }
    if (state_ == State::kClosed || state_ == State::kFailed) {
      return;  // callback tore the connection down
    }
  }

  bool fin = (hdr.flags & kTcpFin) != 0 && hdr.seq + seg_len == rcv_nxt_;
  if (fin) {
    rcv_nxt_ += 1;
    made_progress = true;
    switch (state_) {
      case State::kEstablished: {
        // Server closed first: ACK, then close our side after the client
        // processing delay.
        state_ = State::kCloseWait;
        SendFlags(kTcpAck, snd_nxt_, {});
        ClientMachine* m = machine_;
        ConnHandle h = self_;
        m->eq()->ScheduleTimerAfter(m->model().client_processing / 2, [m, h] {
          TcpPeer* p = m->ResolvePeer(h);
          if (p != nullptr && p->state_ == State::kCloseWait) {
            p->Close();
          }
        });
        return;
      }
      case State::kFinWait2:
      case State::kFinWait1:
        state_ = State::kClosed;
        SendFlags(kTcpAck, snd_nxt_, {});
        CancelTimer();
        if (owner_ != nullptr) {
          owner_->OnClosed(this);
        }
        machine_->ReleaseConnection(this);
        return;
      default:
        SendFlags(kTcpAck, snd_nxt_, {});
        return;
    }
  }

  if (made_progress || seg_len > 0) {
    // ACK in-order data (and dup-ACK out-of-order segments). With
    // coalescing, only every n-th segment is acknowledged immediately; a
    // delayed ACK covers the tail.
    ++unacked_segments_;
    if (ack_every <= 1 || unacked_segments_ >= ack_every || seg_len == 0) {
      unacked_segments_ = 0;
      SendFlags(kTcpAck, snd_nxt_, {});
      return;
    }
    if (!delack_pending_) {
      delack_pending_ = true;
      ClientMachine* m = machine_;
      ConnHandle h = self_;
      m->eq()->ScheduleTimerAfter(delayed_ack, [m, h] {
        TcpPeer* p = m->ResolvePeer(h);
        if (p == nullptr) {
          return;  // released (or slot re-issued) before the delack fired
        }
        p->delack_pending_ = false;
        if (p->unacked_segments_ > 0 && p->state_ != State::kClosed &&
            p->state_ != State::kFailed) {
          p->unacked_segments_ = 0;
          p->SendFlags(kTcpAck, p->snd_nxt_, {});
        }
      });
    }
  }
}

// --- ClientMachine ---------------------------------------------------------------

ClientMachine::ClientMachine(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr ip,
                             NetworkModel model, uint64_t seed, Slab<TcpPeer>* peer_slab)
    : eq_(eq), link_(link), mac_(mac), ip_(ip), model_(model), rng_(seed),
      slab_(peer_slab != nullptr ? peer_slab : &own_slab_) {
  link_->Attach(mac_, this, model_.client_link_latency);
}

ClientMachine::~ClientMachine() {
  // Return this machine's slots to the (possibly shared) slab.
  for (const auto& [port, h] : conns_) {
    slab_->Release(h);
  }
  link_->Detach(mac_);
}

TcpPeer* ClientMachine::FindPeer(uint16_t local_port) {
  for (const auto& [port, h] : conns_) {
    if (port == local_port) {
      return slab_->Find(h);
    }
  }
  return nullptr;
}

TcpPeer* ClientMachine::OpenConnection(Ip4Addr remote, uint16_t remote_port, ConnOwner* owner) {
  uint16_t port = next_port_++;
  if (next_port_ < 4096) {
    next_port_ = 4096;  // wrap
  }
  uint32_t iss = static_cast<uint32_t>(rng_.Next());
  ConnHandle h = slab_->Create();
  TcpPeer* peer = slab_->Find(h);
  peer->machine_ = this;
  peer->owner_ = owner;
  peer->self_ = h;
  peer->local_port_ = port;
  peer->remote_ = remote;
  peer->remote_port_ = remote_port;
  peer->iss_ = iss;
  peer->snd_nxt_ = iss;
  conns_.emplace_back(port, h);
  return peer;
}

void ClientMachine::ReleaseConnection(TcpPeer* peer) {
  if (peer == nullptr) {
    return;
  }
  peer->CancelTimer();
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].second == peer->self_) {
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  // The released peer may be finishing one of its own methods (Fail, the
  // FIN path): the slab keeps the storage inert until the slot is reused,
  // so the tail of that method is safe; every outstanding handle is stale
  // as of now.
  slab_->Release(peer->self_);
}

void ClientMachine::SendTcp(TcpPeer* peer, uint8_t flags, uint32_t seq, uint32_t ack,
                            const std::vector<uint8_t>& payload) {
  std::optional<MacAddr> dst = arp_.Find(peer->remote_);
  if (!dst.has_value()) {
    return;  // no ARP mapping: drop (the topology builder preloads these)
  }
  TcpHeader hdr;
  hdr.src_port = peer->local_port_;
  hdr.dst_port = peer->remote_port_;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.flags = flags;
  hdr.window = 0xffff;
  Transmit(BuildTcpFrame(mac_, *dst, ip_, peer->remote_, hdr, payload));
}

void ClientMachine::DeliverFrame(const std::vector<uint8_t>& frame) {
  auto parsed = ParseFrame(frame);
  if (!parsed.has_value()) {
    return;
  }
  if (parsed->is_arp) {
    // Answer requests for our IP; learn replies.
    arp_.Set(parsed->arp.sender_ip, parsed->arp.sender_mac);
    if (parsed->arp.opcode == 1 && parsed->arp.target_ip == ip_) {
      ArpPacket reply;
      reply.opcode = 2;
      reply.sender_mac = mac_;
      reply.sender_ip = ip_;
      reply.target_mac = parsed->arp.sender_mac;
      reply.target_ip = parsed->arp.sender_ip;
      Transmit(BuildArpFrame(mac_, parsed->arp.sender_mac, reply));
    }
    return;
  }
  if (!parsed->is_tcp || parsed->ip.dst != ip_ || !parsed->tcp.checksum_ok) {
    return;
  }
  TcpPeer* peer = FindPeer(parsed->tcp.dst_port);
  if (peer == nullptr) {
    return;
  }
  // Client-side processing delay before the peer reacts. The dispatch
  // captures the handle, not the port: a connection released and its port
  // re-issued between schedule and fire must not swallow the segment.
  TcpHeader hdr = parsed->tcp;
  std::vector<uint8_t> payload = std::move(parsed->payload);
  ConnHandle h = peer->self_;
  eq_->ScheduleTimerAfter(model_.client_processing / 4, [this, h, hdr, payload] {
    if (TcpPeer* p = ResolvePeer(h); p != nullptr) {
      p->OnSegment(hdr, payload);
    }
  });
}

}  // namespace escort
