// TCP module.
//
// Implements the transport for the Escort web server: listeners backed by
// *passive paths* (which receive only connection-setup messages), one
// *active path* per established connection, a per-connection PCB as the TCP
// stage state, slow-start congestion control, and the TCP *master event* —
// the periodic timer owned by TCP's protection domain that scans PCBs for
// retransmission, SYN_RECVD and TIME_WAIT deadlines (its cycles are the
// "TCP Master Event" row of Table 1).
//
// DoS hooks (paper §4.4.1): each listener carries a subnet filter and a
// SYN_RECVD budget; the budget is enforced at *demux time*, so a SYN flood
// is rejected as early as possible, before any resources are committed.

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/elib/slab.h"
#include "src/net/headers.h"
#include "src/path/path.h"

namespace escort {

class MetricCounter;
class MetricGauge;
class MetricHistogram;
class PathManager;

enum class TcpState {
  kListen,
  kSynRecvd,
  kEstablished,
  kFinWait1,   // we sent FIN, waiting for its ACK
  kFinWait2,   // our FIN acked, waiting for peer FIN
  kCloseWait,  // peer sent FIN first; we still may send
  kLastAck,    // peer closed, we sent FIN, waiting for final ACK
  kTimeWait,
  kClosed,
};

const char* TcpStateName(TcpState s);

// Terminal classification of a connection attempt, reported through
// TcpModule::conn_outcome_hook at the moment the module gives up on (or
// completes) the connection. Detection policies (src/server/detect.h) fold
// these into per-subnet sequential tests: kCompleted is the "benign"
// observation, everything else counts against the source.
enum class TcpConnOutcome {
  kCompleted,        // clean close (FIN handshake finished, either side)
  kAborted,          // RST from the peer, or retransmit exhaustion
  kHalfOpenExpired,  // SYN_RECVD deadline passed without the final ACK
  kSynDropped,       // SYN rejected at demux by a listener's SYN budget
  kPathKilled,       // the connection's path was destroyed under it
};

const char* TcpConnOutcomeName(TcpConnOutcome o);

struct TcpListener {
  uint64_t id = 0;
  Path* path = nullptr;  // the passive path
  uint16_t port = 0;
  Subnet subnet;  // source filter: most specific listener wins at demux

  // Demux-time SYN policy (0 = unlimited).
  uint32_t syn_limit = 0;
  uint32_t syn_recvd = 0;  // paths created by this listener still in SYN_RECVD

  // Parameters inherited by the active paths this listener creates.
  std::string active_label = "Main Active Path";
  uint64_t active_tickets = 100;
  Cycles active_max_run = 0;

  // Half-open (SYN_RECVD) hold time override for connections accepted by
  // this listener; 0 uses the module default. A long hold on a budgeted
  // untrusted listener slow-walks suspect peers: accepted-SYN rate is
  // budget/hold, so doubling the hold halves the attack's amplification.
  Cycles syn_recvd_timeout = 0;

  // Penalty listeners are never chosen by subnet matching; only a demux
  // override (e.g. the blacklist policy) routes SYNs to them.
  bool penalty = false;

  // Stats.
  uint64_t syns_accepted = 0;
  uint64_t syns_dropped_at_demux = 0;
  uint64_t conns_established = 0;
};

// PCBs live in the module's generation-tagged slab (the classic TCB table):
// the stage holds only a PcbRef, and every deferred closure captures the
// ConnHandle, never a TcpPcb* or a bare ConnKey. The PR 3 retransmit bug
// captured a TcpPcb* into a deferred closure; a key capture still confuses a
// reincarnated connection under the same 4-tuple with the original — the
// handle's generation tag rejects both. Revalidate with TcpModule::Resolve
// at fire time (EA001 idiom). The slot dies with its path (pathKill at any
// time) via the path's kernel cleanup.
// ESCORT_KERNEL_LIFETIME ESCORT_SLAB_SLOT
struct TcpPcb {
  ConnHandle self;  // this PCB's own slab handle
  ConnKey key;
  TcpState state = TcpState::kClosed;
  Path* path = nullptr;
  Stage* stage = nullptr;
  TcpListener* listener = nullptr;

  uint32_t iss = 0;      // our initial seq
  uint32_t irs = 0;      // peer initial seq
  uint32_t snd_una = 0;  // oldest unacknowledged
  uint32_t snd_nxt = 0;
  uint32_t rcv_nxt = 0;
  uint32_t mss = 1460;
  uint32_t cwnd = 0;
  uint32_t ssthresh = 64 * 1024;
  uint16_t peer_window = 0xffff;

  // Send buffer: bytes the application queued; send_base_seq is the
  // sequence number of send_buf[0].
  std::vector<uint8_t> send_buf;
  uint32_t send_base_seq = 0;
  bool close_after_send = false;
  bool fin_sent = false;
  uint32_t fin_seq = 0;

  // Timers (absolute deadlines; 0 = unarmed).
  Cycles retx_deadline = 0;
  Cycles rto = 0;
  int retx_count = 0;
  Cycles syn_recvd_deadline = 0;
  Cycles time_wait_deadline = 0;

  uint64_t retransmits = 0;

  // Sim time the active path was opened (connection-lifetime histogram).
  Cycles created_at = 0;

  // Terminal outcome already reported through conn_outcome_hook (at most
  // one per connection).
  bool outcome_reported = false;

  uint32_t BytesUnacked() const { return snd_nxt - snd_una; }
};

class TcpModule : public Module {
 public:
  explicit TcpModule(Ip4Addr local_ip)
      : Module("TCP", {ServiceInterface::kAsyncIo}), local_ip_(local_ip) {}

  void SetNeighbors(Module* ip_below, Module* http_above) {
    ip_ = ip_below;
    http_ = http_above;
  }

  void Init() override;

  // Opens a listener on `port` accepting SYNs from `subnet`. The listener's
  // passive path is created immediately. Listener fields (syn_limit, active
  // path parameters) may be adjusted afterwards through the returned
  // pointer.
  TcpListener* Listen(uint16_t port, Subnet subnet);

  OpenResult Open(Path* path, const Attributes& attrs) override;
  DemuxDecision Demux(const Message& msg) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

  // Number of live connections (PCBs) and listeners.
  size_t conn_count() const { return conns_.size(); }
  const std::map<ConnKey, ConnHandle>& conns() const { return conns_; }
  const std::vector<std::unique_ptr<TcpListener>>& listeners() const { return listeners_; }
  TcpPcb* FindConn(const ConnKey& key);
  // Handle revalidation: nullptr once the PCB's path was reclaimed (or the
  // slot re-issued to a later connection).
  TcpPcb* Resolve(ConnHandle h) { return pcb_slab_.Find(h); }
  const Slab<TcpPcb>& pcb_slab() const { return pcb_slab_; }

  uint64_t checksum_failures() const { return checksum_failures_; }
  uint64_t total_established() const { return total_established_; }
  uint64_t total_retransmits() const { return total_retransmits_; }
  uint64_t master_event_fires() const { return master_fires_; }

  // Demux-time listener override (side-effect free): consulted before the
  // subnet match; returning non-null steers the SYN to that listener. The
  // blacklist policy (§4.4.4) uses this to penalize repeat offenders.
  std::function<TcpListener*(Ip4Addr src)> listener_override;

  // Connection-outcome hook: fired once per terminal transition with the
  // remote address and a TcpConnOutcome classification (at most once per
  // connection, plus once per demux-time SYN drop), in the queue's
  // deterministic event order. The SPRT detector
  // (src/server/detect.h) installs this.
  std::function<void(Ip4Addr remote, TcpConnOutcome outcome)> conn_outcome_hook;

  // Timer parameters (tests shrink these).
  Cycles rto_initial = CyclesFromMillis(200);
  Cycles syn_recvd_timeout = CyclesFromMillis(500);
  Cycles time_wait_duration = CyclesFromMillis(10);
  Cycles master_event_period = CyclesFromMillis(10);

 private:
  friend class TcpStageDestructor;

  struct ListenerState : StageState {
    TcpListener* listener = nullptr;
  };

  // Flyweight stage state: the PCB itself lives in pcb_slab_, the stage
  // carries only the handle.
  struct PcbRef : StageState {
    ConnHandle conn;
  };

  // Passive-path processing: a SYN arrives, create the active path.
  void AcceptSyn(TcpListener* listener, const TcpHeader& syn, Ip4Addr peer);
  // Active-path segment processing.
  void HandleSegment(TcpPcb* pcb, const TcpHeader& hdr, Message payload);
  void HandleAck(TcpPcb* pcb, uint32_t ack);
  // Transmit as much queued data as the congestion window allows.
  void TrySend(TcpPcb* pcb);
  void SendSegment(TcpPcb* pcb, uint8_t flags, uint32_t seq, const uint8_t* payload, uint32_t len);
  void SendAck(TcpPcb* pcb);
  void MaybeSendFin(TcpPcb* pcb);
  void ArmRetx(TcpPcb* pcb);
  void EnterTimeWait(TcpPcb* pcb);
  void CloseAndDestroy(TcpPcb* pcb);
  // Fires conn_outcome_hook exactly once per connection.
  void ReportOutcome(TcpPcb* pcb, TcpConnOutcome outcome);
  // State-machine transition: updates pcb->state and emits a trace instant
  // ("tcp:FROM->TO" on the owning path's track) when a tracer is attached.
  void SetState(TcpPcb* pcb, TcpState next);
  void MasterEventScan();
  void UnregisterConn(TcpPcb* pcb);
  // Resolves a stage's PcbRef through the slab; nullptr for non-PCB stages
  // and stale handles.
  TcpPcb* PcbOf(Stage& stage);

  const Ip4Addr local_ip_;
  Module* ip_ = nullptr;
  Module* http_ = nullptr;

  Slab<TcpPcb> pcb_slab_;
  std::map<ConnKey, ConnHandle> conns_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  uint64_t next_listener_id_ = 1;
  uint32_t next_iss_ = 10'000;

  uint64_t checksum_failures_ = 0;
  uint64_t total_established_ = 0;
  uint64_t total_retransmits_ = 0;
  uint64_t master_fires_ = 0;

  // Metric handles, registered in Init() when the kernel carries a
  // registry; null (metrics disabled) costs one pointer test per site.
  MetricCounter* m_outcomes_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
  MetricCounter* m_completed_ = nullptr;
  MetricCounter* m_syns_accepted_ = nullptr;
  MetricCounter* m_syns_dropped_ = nullptr;
  MetricCounter* m_retransmits_ = nullptr;
  MetricGauge* m_half_open_ = nullptr;
  MetricGauge* m_pcb_live_ = nullptr;
  MetricHistogram* m_conn_lifetime_us_ = nullptr;
};

}  // namespace escort

#endif  // SRC_NET_TCP_H_
