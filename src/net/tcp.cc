#include "src/net/tcp.h"

#include <algorithm>

#include "src/net/ip.h"
#include "src/path/path_manager.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace escort {

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynRecvd: return "SYN_RECVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
    case TcpState::kClosed: return "CLOSED";
  }
  return "?";
}

const char* TcpConnOutcomeName(TcpConnOutcome o) {
  switch (o) {
    case TcpConnOutcome::kCompleted: return "completed";
    case TcpConnOutcome::kAborted: return "aborted";
    case TcpConnOutcome::kHalfOpenExpired: return "half-open-expired";
    case TcpConnOutcome::kSynDropped: return "syn-dropped";
    case TcpConnOutcome::kPathKilled: return "path-killed";
  }
  return "?";
}

void TcpModule::ReportOutcome(TcpPcb* pcb, TcpConnOutcome outcome) {
  // At most one terminal outcome per connection: a TIME_WAIT connection
  // counted as completed must not be recounted when its deadline Destroy
  // (or a late RST) tears it down.
  if (pcb->outcome_reported) {
    return;
  }
  pcb->outcome_reported = true;
  MetricAdd(m_outcomes_[static_cast<size_t>(outcome)]);
  if (outcome == TcpConnOutcome::kCompleted) {
    MetricAdd(m_completed_);
    if (m_conn_lifetime_us_ != nullptr && pcb->created_at != 0) {
      const Cycles lifetime = kernel()->now() - pcb->created_at;
      m_conn_lifetime_us_->Observe(lifetime / (kCpuHz / 1'000'000));
    }
  }
  if (conn_outcome_hook) {
    conn_outcome_hook(pcb->key.remote_addr, outcome);
  }
}

void TcpModule::SetState(TcpPcb* pcb, TcpState next) {
  Tracer* t = kernel()->tracer();
  if (t != nullptr && pcb->path != nullptr && pcb->state != next) {
    t->Instant(kernel()->now(), OwnerTrack(pcb->path->id(), pcb->path->name()),
               std::string("tcp:") + TcpStateName(pcb->state) + "->" + TcpStateName(next),
               "tcp");
  }
  pcb->state = next;
}

void TcpModule::Init() {
  // The TCP master event: owned by the protection domain that contains TCP
  // (paper §4.3.1), it schedules the timeouts of individual connections.
  // The per-connection timeout work is pushed to — and charged to — the
  // connection's path.
  Owner* owner = domain();
  kernel()->RegisterEvent(owner, "tcp-master", master_event_period, master_event_period,
                          kernel()->costs().tcp_master_event, pd(), [this] { MasterEventScan(); });

  if (MetricsRegistry* m = kernel()->metrics(); m != nullptr) {
    for (size_t i = 0; i < 5; ++i) {
      m_outcomes_[i] = ESCORT_METRIC_COUNTER(
          m, std::string("tcp.outcomes.") + TcpConnOutcomeName(static_cast<TcpConnOutcome>(i)),
          "terminal connection outcomes");
    }
    m_completed_ =
        ESCORT_METRIC_COUNTER(m, "tcp.conns_completed", "connections closed cleanly");
    m_syns_accepted_ =
        ESCORT_METRIC_COUNTER(m, "tcp.syns_accepted", "SYNs accepted by a listener");
    m_syns_dropped_ = ESCORT_METRIC_COUNTER(
        m, "tcp.syns_dropped", "SYNs dropped at demux by a listener's budget");
    m_retransmits_ = ESCORT_METRIC_COUNTER(m, "tcp.retransmits", "segments retransmitted");
    m_half_open_ =
        ESCORT_METRIC_GAUGE(m, "tcp.half_open", "connections in SYN_RECVD (backlog)");
    m_pcb_live_ = ESCORT_METRIC_GAUGE(m, "tcp.pcb_live", "live PCB slab slots");
    m_conn_lifetime_us_ = ESCORT_METRIC_HISTOGRAM(
        m, "tcp.conn_lifetime_us", "open-to-clean-close lifetime, microseconds");
  }
}

TcpListener* TcpModule::Listen(uint16_t port, Subnet subnet) {
  auto listener = std::make_unique<TcpListener>();
  listener->id = next_listener_id_++;
  listener->port = port;
  listener->subnet = subnet;
  TcpListener* raw = listener.get();
  listeners_.push_back(std::move(listener));

  Module* eth = paths()->graph()->Find("ETH");
  Attributes attrs;
  attrs.SetStr("role", "tcp-listen");
  attrs.SetInt("listener", raw->id);
  attrs.SetInt("port", port);
  raw->path = paths()->Create(eth, attrs, "Passive SYN Path");
  return raw;
}

OpenResult TcpModule::Open(Path* path, const Attributes& attrs) {
  const std::string role = attrs.GetStrOr("role", "");
  OpenResult r;
  if (role == "tcp-listen") {
    auto state = std::make_unique<ListenerState>();
    uint64_t id = attrs.GetIntOr("listener", 0);
    for (auto& l : listeners_) {
      if (l->id == id) {
        state->listener = l.get();
      }
    }
    if (state->listener == nullptr) {
      return OpenResult::Fail();
    }
    r.ok = true;
    r.state = std::move(state);
    r.next = nullptr;  // passive paths terminate at TCP
    return r;
  }

  if (role == "tcp-active") {
    ConnHandle h = pcb_slab_.Create();
    MetricAdd(m_pcb_live_, int64_t{1});
    TcpPcb* pcb = pcb_slab_.Find(h);
    pcb->self = h;
    pcb->created_at = kernel()->now();
    pcb->key.local_addr = local_ip_;
    pcb->key.local_port = static_cast<uint16_t>(attrs.GetIntOr("lport", 80));
    pcb->key.remote_addr = Ip4Addr{static_cast<uint32_t>(attrs.GetIntOr("raddr", 0))};
    pcb->key.remote_port = static_cast<uint16_t>(attrs.GetIntOr("rport", 0));
    pcb->irs = static_cast<uint32_t>(attrs.GetIntOr("irs", 0));
    pcb->rcv_nxt = pcb->irs + 1;
    pcb->iss = next_iss_;
    next_iss_ += 64'000;
    pcb->snd_una = pcb->iss;
    pcb->snd_nxt = pcb->iss;  // +1 once the SYN-ACK goes out
    pcb->send_base_seq = pcb->iss + 1;
    pcb->mss = static_cast<uint32_t>(attrs.GetIntOr("mss", 1460));
    pcb->cwnd = pcb->mss;  // classic initial window (one segment, pre-RFC2414)
    pcb->state = TcpState::kSynRecvd;
    pcb->syn_recvd_deadline = kernel()->now() + syn_recvd_timeout;  // listener may override below
    pcb->path = path;

    uint64_t listener_id = attrs.GetIntOr("listener", 0);
    for (auto& l : listeners_) {
      if (l->id == listener_id) {
        pcb->listener = l.get();
      }
    }
    if (pcb->listener != nullptr && pcb->listener->syn_recvd_timeout != 0) {
      pcb->syn_recvd_deadline = kernel()->now() + pcb->listener->syn_recvd_timeout;
    }

    conns_[pcb->key] = h;
    // The demux-map registration and the slab slot are kernel-maintained
    // state: both are severed on any reclamation (pathDestroy AND pathKill),
    // so neither the classifier nor a deferred closure can chase a dangling
    // PCB — Release bumps the slot generation and every outstanding handle
    // goes stale with it.
    path->AddKernelCleanup([this, h] {
      if (TcpPcb* dying = pcb_slab_.Find(h); dying != nullptr) {
        // A connection reclaimed without a terminal transition was killed
        // under TCP (pathKill); clean closes and expiries reported theirs
        // already, so the once-only guard makes this a no-op for them.
        ReportOutcome(dying, TcpConnOutcome::kPathKilled);
        UnregisterConn(dying);
      }
      pcb_slab_.Release(h);
      MetricAdd(m_pcb_live_, int64_t{-1});
    });
    auto ref = std::make_unique<PcbRef>();
    ref->conn = h;
    r.ok = true;
    r.state = std::move(ref);
    r.next = http_;
    // The destructor (pathDestroy only) releases the listener's SYN_RECVD
    // slot if still held; unregistration is idempotent and the kernel
    // cleanup repeats it for the pathKill case.
    r.destructor = [this](Path* p, Stage* stage) {
      (void)p;
      auto* dying_ref = static_cast<PcbRef*>(stage->state.get());
      if (TcpPcb* dying = pcb_slab_.Find(dying_ref->conn); dying != nullptr) {
        UnregisterConn(dying);
      }
    };
    return r;
  }

  return OpenResult::Fail();
}

void TcpModule::UnregisterConn(TcpPcb* pcb) {
  if (pcb == nullptr) {
    return;
  }
  if (pcb->state == TcpState::kSynRecvd && pcb->listener != nullptr &&
      pcb->listener->syn_recvd > 0) {
    pcb->listener->syn_recvd -= 1;
    MetricAdd(m_half_open_, int64_t{-1});
  }
  auto it = conns_.find(pcb->key);
  if (it != conns_.end() && it->second == pcb->self) {
    conns_.erase(it);
  }
  SetState(pcb, TcpState::kClosed);
}

TcpPcb* TcpModule::PcbOf(Stage& stage) {
  auto* ref = dynamic_cast<PcbRef*>(stage.state.get());
  return ref == nullptr ? nullptr : pcb_slab_.Find(ref->conn);
}

DemuxDecision TcpModule::Demux(const Message& msg) {
  // Classification over the raw frame: TCP header sits at a fixed offset
  // (no IP options on this wire). Demux is side-effect free.
  const uint8_t* p = msg.Data(pd());
  constexpr size_t kTcpOff = kEthHeaderLen + kIpHeaderLen;
  if (p == nullptr || msg.size() < kTcpOff + kTcpHeaderLen) {
    return DemuxDecision::Drop("tcp-short");
  }
  const uint8_t* ip = p + kEthHeaderLen;
  const uint8_t* tcp = p + kTcpOff;
  ConnKey key;
  key.remote_addr.value = (static_cast<uint32_t>(ip[12]) << 24) |
                          (static_cast<uint32_t>(ip[13]) << 16) |
                          (static_cast<uint32_t>(ip[14]) << 8) | ip[15];
  key.local_addr.value = (static_cast<uint32_t>(ip[16]) << 24) |
                         (static_cast<uint32_t>(ip[17]) << 16) |
                         (static_cast<uint32_t>(ip[18]) << 8) | ip[19];
  key.remote_port = static_cast<uint16_t>((tcp[0] << 8) | tcp[1]);
  key.local_port = static_cast<uint16_t>((tcp[2] << 8) | tcp[3]);
  uint8_t flags = tcp[13];

  auto it = conns_.find(key);
  if (it != conns_.end()) {
    TcpPcb* pcb = pcb_slab_.Find(it->second);
    if (pcb != nullptr && pcb->path != nullptr && !pcb->path->destroyed()) {
      return DemuxDecision::Deliver(pcb->path);
    }
    // Killed path: the map entry is stale; the master event purges it.
    return DemuxDecision::Drop("tcp-dead-conn");
  }

  if ((flags & kTcpSyn) != 0 && (flags & kTcpAck) == 0) {
    // Policy override first (e.g. blacklisted sources go to the penalty
    // listener), then the most specific matching listener.
    TcpListener* best = nullptr;
    if (listener_override) {
      best = listener_override(key.remote_addr);
      if (best != nullptr && best->port != key.local_port) {
        best = nullptr;
      }
    }
    if (best == nullptr) {
      for (const auto& l : listeners_) {
        if (l->penalty || l->port != key.local_port || !l->subnet.Contains(key.remote_addr)) {
          continue;
        }
        if (best == nullptr || l->subnet.prefix_len > best->subnet.prefix_len) {
          best = l.get();
        }
      }
    }
    if (best == nullptr) {
      return DemuxDecision::Drop("tcp-noport");
    }
    if (best->syn_limit != 0 && best->syn_recvd >= best->syn_limit) {
      // The DoS policy decides during demultiplexing: over-budget SYNs are
      // identified as early as possible and dropped instantly.
      best->syns_dropped_at_demux += 1;
      MetricAdd(m_syns_dropped_);
      if (conn_outcome_hook) {
        conn_outcome_hook(key.remote_addr, TcpConnOutcome::kSynDropped);
      }
      return DemuxDecision::Drop("syn-limit");
    }
    return DemuxDecision::Deliver(best->path);
  }
  return DemuxDecision::Drop("tcp-noconn");
}

void TcpModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  if (dir == Direction::kDown) {
    // From HTTP: application data / close.
    TcpPcb* pcb = PcbOf(stage);
    if (pcb == nullptr || pcb->state == TcpState::kClosed) {
      return;
    }
    if (msg.kind == MsgKind::kConnClose) {
      pcb->close_after_send = true;
      MaybeSendFin(pcb);
      return;
    }
    // kTcpSend / kStreamChunk: queue the bytes.
    const uint8_t* data = msg.Data(pd());
    if (data == nullptr) {
      return;
    }
    // Bound the send buffer (the QoS generator paces against this).
    if (pcb->send_buf.size() - (pcb->snd_una - pcb->send_base_seq) + msg.size() > 256 * 1024) {
      return;
    }
    kernel()->Consume(msg.size() * kernel()->costs().per_byte_touch);
    pcb->send_buf.insert(pcb->send_buf.end(), data, data + msg.size());
    TrySend(pcb);
    return;
  }

  // Up direction: a segment from IP (header at front, aux = (src,dst)).
  Ip4Addr src = IpModule::AuxSrc(msg.aux);
  Ip4Addr dst = IpModule::AuxDst(msg.aux);
  kernel()->Consume(msg.size() * kernel()->costs().per_byte_touch);  // checksum pass
  auto hdr = ParseTcpHeader(msg, pd(), src, dst);
  if (!hdr.has_value() || !hdr->checksum_ok) {
    ++checksum_failures_;
    return;
  }
  msg.Strip(kTcpHeaderLen);

  if (auto* lstate = dynamic_cast<ListenerState*>(stage.state.get()); lstate != nullptr) {
    // Passive path: only connection-setup messages arrive here.
    if ((hdr->flags & kTcpSyn) != 0 && (hdr->flags & kTcpAck) == 0) {
      AcceptSyn(lstate->listener, *hdr, src);
    }
    return;
  }

  TcpPcb* pcb = PcbOf(stage);
  if (pcb == nullptr || pcb->state == TcpState::kClosed) {
    return;
  }
  HandleSegment(pcb, *hdr, std::move(msg));
}

void TcpModule::AcceptSyn(TcpListener* listener, const TcpHeader& syn, Ip4Addr peer) {
  if (listener == nullptr) {
    return;
  }
  ConnKey key{local_ip_, syn.dst_port, peer, syn.src_port};
  if (conns_.count(key) != 0) {
    return;  // duplicate SYN; the original SYN-ACK will be retransmitted
  }

  Attributes attrs;
  attrs.SetStr("role", "tcp-active");
  attrs.SetInt("lport", syn.dst_port);
  attrs.SetInt("raddr", peer.value);
  attrs.SetInt("rport", syn.src_port);
  attrs.SetInt("irs", syn.seq);
  attrs.SetInt("listener", listener->id);
  Module* eth = paths()->graph()->Find("ETH");
  Path* path = paths()->Create(eth, attrs, listener->active_label);
  if (path == nullptr) {
    return;
  }
  path->sched().tickets = listener->active_tickets;
  if (listener->active_max_run != 0) {
    path->set_max_thread_run(listener->active_max_run);
  }

  listener->syns_accepted += 1;
  listener->syn_recvd += 1;
  MetricAdd(m_syns_accepted_);
  MetricAdd(m_half_open_, int64_t{1});

  TcpPcb* pcb = pcb_slab_.Find(conns_[key]);
  if (pcb == nullptr) {
    return;
  }
  // PCB initialization belongs to the new connection, not the passive path.
  kernel()->ConsumePrechargedTo(path, kernel()->costs().tcp_conn_setup);
  Stage* tcp_stage = path->StageOf(this);
  pcb->stage = tcp_stage;
  // SYN-ACK consumes one sequence number.
  SendSegment(pcb, kTcpSyn | kTcpAck, pcb->iss, nullptr, 0);
  pcb->snd_nxt = pcb->iss + 1;
  ArmRetx(pcb);
}

void TcpModule::HandleSegment(TcpPcb* pcb, const TcpHeader& hdr, Message payload) {
  if ((hdr.flags & kTcpRst) != 0) {
    ReportOutcome(pcb, TcpConnOutcome::kAborted);
    CloseAndDestroy(pcb);
    return;
  }
  pcb->peer_window = hdr.window;

  if ((hdr.flags & kTcpAck) != 0) {
    HandleAck(pcb, hdr.ack);
    if (pcb->state == TcpState::kClosed) {
      return;  // final ACK processed; the path is being destroyed
    }
  }

  uint32_t seg_len = static_cast<uint32_t>(payload.size());
  bool fin = (hdr.flags & kTcpFin) != 0;

  if (seg_len > 0) {
    if (hdr.seq == pcb->rcv_nxt) {
      pcb->rcv_nxt += seg_len;
      // In-order payload: hand it to the application stage.
      payload.kind = MsgKind::kData;
      payload.aux = 0;
      if (pcb->stage != nullptr) {
        pcb->path->ForwardUp(*pcb->stage, std::move(payload));
      }
      SendAck(pcb);
    } else {
      // Out-of-order: dup-ACK (no reassembly queue on this server; the
      // request fits one segment and the peer retransmits).
      SendAck(pcb);
      return;
    }
  }

  if (fin && hdr.seq + seg_len == pcb->rcv_nxt) {
    pcb->rcv_nxt += 1;
    SendAck(pcb);
    switch (pcb->state) {
      case TcpState::kEstablished:
        SetState(pcb, TcpState::kCloseWait);
        // Server closes too once pending data drains.
        pcb->close_after_send = true;
        MaybeSendFin(pcb);
        break;
      case TcpState::kFinWait1:
        // Simultaneous close; our FIN not yet acked.
        SetState(pcb, TcpState::kLastAck);
        break;
      case TcpState::kFinWait2:
        EnterTimeWait(pcb);
        break;
      default:
        break;
    }
  }
}

void TcpModule::HandleAck(TcpPcb* pcb, uint32_t ack) {
  if (pcb->state == TcpState::kSynRecvd && ack == pcb->iss + 1) {
    SetState(pcb, TcpState::kEstablished);
    pcb->snd_una = ack;
    pcb->syn_recvd_deadline = 0;
    pcb->retx_deadline = 0;
    if (pcb->listener != nullptr) {
      if (pcb->listener->syn_recvd > 0) {
        pcb->listener->syn_recvd -= 1;
        MetricAdd(m_half_open_, int64_t{-1});
      }
      pcb->listener->conns_established += 1;
    }
    ++total_established_;
    return;
  }

  if (static_cast<int32_t>(ack - pcb->snd_una) <= 0) {
    return;  // old/duplicate ACK
  }
  uint32_t newly_acked = ack - pcb->snd_una;
  pcb->snd_una = ack;

  // Slow start: cwnd grows one MSS per ACK until ssthresh.
  if (pcb->cwnd < pcb->ssthresh) {
    pcb->cwnd += pcb->mss;
  } else {
    pcb->cwnd += pcb->mss * pcb->mss / std::max(pcb->cwnd, 1u);
  }

  // Drop acked bytes from the front of the send buffer.
  uint32_t buf_acked = pcb->snd_una - pcb->send_base_seq;
  uint32_t fin_adjust = (pcb->fin_sent && static_cast<int32_t>(pcb->snd_una - pcb->fin_seq) > 0) ? 1 : 0;
  buf_acked -= fin_adjust;
  if (buf_acked > 0 && buf_acked <= pcb->send_buf.size()) {
    pcb->send_buf.erase(pcb->send_buf.begin(), pcb->send_buf.begin() + buf_acked);
    pcb->send_base_seq += buf_acked;
  }
  (void)newly_acked;

  if (pcb->BytesUnacked() == 0) {
    pcb->retx_deadline = 0;
    pcb->retx_count = 0;
  } else {
    ArmRetx(pcb);
  }

  if (pcb->fin_sent && pcb->snd_una == pcb->fin_seq + 1) {
    // Our FIN is acknowledged.
    if (pcb->state == TcpState::kFinWait1) {
      SetState(pcb, TcpState::kFinWait2);
    } else if (pcb->state == TcpState::kLastAck) {
      ReportOutcome(pcb, TcpConnOutcome::kCompleted);
      CloseAndDestroy(pcb);
      return;
    }
  }
  TrySend(pcb);
}

void TcpModule::TrySend(TcpPcb* pcb) {
  if (pcb->state != TcpState::kEstablished && pcb->state != TcpState::kCloseWait &&
      pcb->state != TcpState::kFinWait1) {
    return;
  }
  for (;;) {
    uint32_t in_flight = pcb->BytesUnacked();
    uint32_t window = std::min<uint32_t>(pcb->cwnd, pcb->peer_window);
    if (in_flight >= window) {
      break;
    }
    uint32_t next_off = pcb->snd_nxt - pcb->send_base_seq;
    if (next_off >= pcb->send_buf.size()) {
      break;  // nothing more queued
    }
    uint32_t can_send = std::min<uint32_t>(window - in_flight,
                                           static_cast<uint32_t>(pcb->send_buf.size()) - next_off);
    uint32_t len = std::min(can_send, pcb->mss);
    if (len == 0) {
      break;
    }
    SendSegment(pcb, kTcpAck | kTcpPsh, pcb->snd_nxt, pcb->send_buf.data() + next_off, len);
    pcb->snd_nxt += len;
    ArmRetx(pcb);
  }
  MaybeSendFin(pcb);
}

void TcpModule::MaybeSendFin(TcpPcb* pcb) {
  if (!pcb->close_after_send || pcb->fin_sent) {
    return;
  }
  uint32_t next_off = pcb->snd_nxt - pcb->send_base_seq;
  if (next_off < pcb->send_buf.size()) {
    return;  // data still queued
  }
  pcb->fin_sent = true;
  pcb->fin_seq = pcb->snd_nxt;
  SendSegment(pcb, kTcpFin | kTcpAck, pcb->snd_nxt, nullptr, 0);
  pcb->snd_nxt += 1;
  if (pcb->state == TcpState::kEstablished) {
    SetState(pcb, TcpState::kFinWait1);
  } else if (pcb->state == TcpState::kCloseWait) {
    SetState(pcb, TcpState::kLastAck);
  }
  ArmRetx(pcb);
}

void TcpModule::SendSegment(TcpPcb* pcb, uint8_t flags, uint32_t seq, const uint8_t* payload,
                            uint32_t len) {
  if (pcb->path == nullptr || pcb->path->destroyed() || pcb->stage == nullptr) {
    return;
  }
  kernel()->ConsumeCharged(kernel()->costs().tcp_tx_segment +
                           len * kernel()->costs().per_byte_touch);
  std::vector<PdId> read_pds;
  for (int i = 0; i <= pcb->stage->index; ++i) {
    read_pds.push_back(pcb->path->stage(static_cast<size_t>(i))->pd);
  }
  Message msg = Message::Alloc(kernel(), pcb->path, pd(), read_pds, len, kFullHeadroom);
  if (!msg.valid()) {
    return;
  }
  if (len > 0) {
    msg.Append(pd(), payload, len);
  }
  TcpHeader hdr;
  hdr.src_port = pcb->key.local_port;
  hdr.dst_port = pcb->key.remote_port;
  hdr.seq = seq;
  hdr.ack = pcb->rcv_nxt;
  hdr.flags = flags;
  hdr.window = 0xffff;
  WriteTcpHeader(msg, pd(), hdr, pcb->key.local_addr, pcb->key.remote_addr);
  msg.aux = IpModule::PackAddrs(pcb->key.local_addr, pcb->key.remote_addr);
  pcb->path->ForwardDown(*pcb->stage, std::move(msg));
}

void TcpModule::SendAck(TcpPcb* pcb) { SendSegment(pcb, kTcpAck, pcb->snd_nxt, nullptr, 0); }

void TcpModule::ArmRetx(TcpPcb* pcb) {
  if (pcb->rto == 0) {
    pcb->rto = rto_initial;
  }
  pcb->retx_deadline = kernel()->now() + pcb->rto;
}

void TcpModule::EnterTimeWait(TcpPcb* pcb) {
  // Completion is counted here: the handshake finished cleanly even though
  // the PCB lingers until the TIME_WAIT deadline Destroy.
  ReportOutcome(pcb, TcpConnOutcome::kCompleted);
  SetState(pcb, TcpState::kTimeWait);
  pcb->time_wait_deadline = kernel()->now() + time_wait_duration;
}

void TcpModule::CloseAndDestroy(TcpPcb* pcb) {
  kernel()->ConsumeCharged(kernel()->costs().tcp_conn_teardown);
  Path* path = pcb->path;
  SetState(pcb, TcpState::kClosed);
  // pathDestroy runs the destructors (which unregister the conn).
  paths()->Destroy(path);
}

void TcpModule::MasterEventScan() {
  ++master_fires_;
  Cycles now = kernel()->now();
  kernel()->Consume(kernel()->costs().tcp_timeout_scan * conns_.size());

  // Collect first: handlers mutate the map. Handles, not pointers — a
  // Destroy handler run for one connection can reclaim (and a later SYN
  // even re-issue) another's slot while the loop drains.
  std::vector<ConnHandle> expired_synrecvd;
  std::vector<ConnHandle> expired_timewait;
  std::vector<ConnHandle> need_retx;
  std::vector<ConnKey> stale;
  for (auto& [key, h] : conns_) {
    TcpPcb* pcb = pcb_slab_.Find(h);
    if (pcb == nullptr || pcb->path == nullptr || pcb->path->destroyed()) {
      // Defensive purge only. pathKill outcomes are reported by the PCB's
      // kernel cleanup (which also erases the conns_ entry), so reporting
      // here would double-count the connection.
      stale.push_back(key);
      continue;
    }
    // Deadlines are due at `now >= deadline`: a deadline landing exactly on
    // a scan tick expires on that scan, not one full period later.
    if (pcb->state == TcpState::kSynRecvd && pcb->syn_recvd_deadline != 0 &&
        now >= pcb->syn_recvd_deadline) {
      expired_synrecvd.push_back(h);
    } else if (pcb->state == TcpState::kTimeWait && now >= pcb->time_wait_deadline) {
      expired_timewait.push_back(h);
    } else if (pcb->retx_deadline != 0 && now >= pcb->retx_deadline && pcb->BytesUnacked() > 0) {
      need_retx.push_back(h);
    }
  }

  for (const ConnKey& key : stale) {
    // Entry left behind by pathKill (destructors did not run): purge.
    conns_.erase(key);
  }
  for (ConnHandle h : expired_synrecvd) {
    // Half-open connection never completed: reclaim everything.
    if (TcpPcb* pcb = pcb_slab_.Find(h); pcb != nullptr) {
      ReportOutcome(pcb, TcpConnOutcome::kHalfOpenExpired);
      paths()->Destroy(pcb->path);
    }
  }
  for (ConnHandle h : expired_timewait) {
    if (TcpPcb* pcb = pcb_slab_.Find(h); pcb != nullptr) {
      paths()->Destroy(pcb->path);
    }
  }
  for (ConnHandle h : need_retx) {
    TcpPcb* pcb = pcb_slab_.Find(h);
    if (pcb == nullptr) {
      continue;
    }
    if (pcb->retx_count >= 6) {
      ReportOutcome(pcb, TcpConnOutcome::kAborted);
      paths()->Destroy(pcb->path);
      continue;
    }
    // Charge the retransmission to the connection's own path. The closure
    // runs later, on the path's thread: it must not capture the raw pcb
    // pointer (the path — and with it the pcb — can be destroyed between
    // scan and execution). A ConnKey capture is not enough either: the key
    // can be *reincarnated* by a new connection from the same peer port,
    // and a deadline comparison only catches that by luck. The slab handle's
    // generation tag makes staleness exact — Resolve fails the moment the
    // slot is released or re-issued.
    Cycles armed_deadline = pcb->retx_deadline;
    pcb->path->GrabThread()->Push(0, pd(), [this, h, armed_deadline] {
      TcpPcb* target = Resolve(h);
      if (target == nullptr || target->path == nullptr || target->path->destroyed() ||
          target->state == TcpState::kClosed) {
        return;
      }
      // Timer re-armed since the scan (an ACK arrived first): this
      // closure's retransmit is no longer owed.
      if (target->retx_deadline != armed_deadline || target->BytesUnacked() == 0) {
        return;
      }
      target->retx_count += 1;
      target->retransmits += 1;
      ++total_retransmits_;
      MetricAdd(m_retransmits_);
      target->ssthresh = std::max(target->BytesUnacked() / 2, 2 * target->mss);
      target->cwnd = target->mss;
      target->rto = std::min<Cycles>(target->rto * 2, CyclesFromMillis(3000));
      if (target->state == TcpState::kSynRecvd) {
        SendSegment(target, kTcpSyn | kTcpAck, target->iss, nullptr, 0);
      } else {
        // Retransmit one segment from snd_una.
        uint32_t off = target->snd_una - target->send_base_seq;
        if (off < target->send_buf.size()) {
          uint32_t len = std::min<uint32_t>(
              target->mss, static_cast<uint32_t>(target->send_buf.size()) - off);
          SendSegment(target, kTcpAck | kTcpPsh, target->snd_una, target->send_buf.data() + off,
                      len);
        } else if (target->fin_sent) {
          SendSegment(target, kTcpFin | kTcpAck, target->fin_seq, nullptr, 0);
        }
      }
      ArmRetx(target);
    }, /*yields=*/true);
  }
}

TcpPcb* TcpModule::FindConn(const ConnKey& key) {
  auto it = conns_.find(key);
  return it == conns_.end() ? nullptr : pcb_slab_.Find(it->second);
}

Cycles TcpModule::ProcessCost(Direction dir) const {
  return dir == Direction::kUp ? kernel()->costs().tcp_rx_segment : kernel()->costs().tcp_tx_segment;
}

}  // namespace escort
