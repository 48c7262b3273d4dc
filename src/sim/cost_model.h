// Calibrated cycle costs for every operation in the simulated system.
//
// The paper reports all micro-results in cycles on a 300 MHz AlphaPC 21064.
// This reproduction times every kernel and module operation with the
// constants below. `CostModel::Calibrated()` is tuned so that the headline
// shapes of the paper hold:
//
//   * base Scout serves ~800 one-byte connections/s at saturation,
//   * fine-grain accounting costs ~8%,
//   * each additional protection domain costs ~25% (full separation >4x),
//   * the Linux/Apache comparator peaks at ~400 connections/s,
//   * pathKill costs ~18k cycles (no PDs) / ~110k cycles (full PDs).
//
// Tests and benches may construct modified copies to run ablations (e.g.
// "what if the PAL TLB-invalidate bug were fixed" — the paper predicts >2x
// improvement in per-domain overhead).

#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include "src/sim/types.h"

namespace escort {

struct CostModel {
  // --- Interrupt / demux ------------------------------------------------
  Cycles interrupt_overhead = 2'000;   // per received frame, charged to kernel
  Cycles demux_per_module = 700;       // per module consulted during demux
  Cycles demux_drop = 400;             // rejecting a frame at demux time

  // --- Network stack, per packet ---------------------------------------
  Cycles eth_rx = 2'400;
  Cycles eth_tx = 2'800;
  Cycles arp_process = 2'000;
  Cycles ip_rx = 3'400;
  Cycles ip_tx = 3'800;
  Cycles tcp_rx_segment = 7'000;
  Cycles tcp_tx_segment = 7'800;
  Cycles tcp_conn_setup = 17'000;     // SYN processing + PCB allocation
  Cycles tcp_conn_teardown = 10'000;  // FIN handling + PCB release
  Cycles tcp_timeout_scan = 600;      // TCP master event, per active PCB
  Cycles per_byte_touch = 2;          // checksum + copy, per payload byte

  // --- HTTP / file system -----------------------------------------------
  Cycles http_parse = 12'000;
  Cycles http_respond = 9'000;
  Cycles fs_lookup = 9'000;       // name -> inode, cache hit
  Cycles fs_read_block_hit = 4'000;
  Cycles scsi_op = 30'000;        // CPU cost of issuing a disk op (miss only)
  Cycles cgi_dispatch = 18'000;   // spawning the CGI handler thread

  // --- Path operations ----------------------------------------------------
  Cycles path_create_base = 9'000;
  Cycles path_create_per_stage = 2'200;
  Cycles path_destroy_base = 5'000;
  Cycles path_destroy_per_stage = 1'400;

  // --- pathKill reclamation (Table 2) ------------------------------------
  Cycles pathkill_base = 12'000;
  Cycles reclaim_per_thread = 5'000;
  Cycles reclaim_per_iobuffer = 1'100;
  Cycles reclaim_per_page = 700;
  Cycles reclaim_per_event = 500;
  Cycles pathkill_per_pd = 13'200;  // tear down stacks/mappings/IPC per domain

  // --- Kernel object management ------------------------------------------
  Cycles alloc_page = 1'200;
  Cycles free_page = 800;
  Cycles alloc_kmem = 500;
  Cycles free_kmem = 350;
  Cycles heap_alloc = 700;   // PD heap handing a sub-page object to a path
  Cycles heap_free = 500;
  Cycles iobuffer_alloc = 1'500;
  Cycles iobuffer_alloc_cached = 600;  // reuse from buffer cache (one mapping)
  Cycles iobuffer_unlock = 400;
  Cycles iobuffer_associate = 900;
  Cycles thread_create = 3'000;
  Cycles thread_dispatch = 600;   // scheduler decision + context load
  Cycles event_register = 600;

  // --- Accounting (the 8%) -------------------------------------------------
  // Extra cycles per ownership charge/uncharge when accounting is enabled.
  Cycles accounting_op = 280;

  // --- Protection domains ---------------------------------------------------
  // Cost of one protection-domain boundary crossing by a path thread:
  // trap + domain switch + full TLB invalidate (the OSF1 PAL bug) + the
  // TLB refill misses the invalidate induces afterwards.
  Cycles pd_crossing = 52'000;
  // The paper predicts custom PAL code would cut per-domain overhead by >2x;
  // ablation benches model that by scaling pd_crossing down.
  //
  // TLB-refill penalty: after a crossing the invalidated TLB makes the
  // subsequent module work slower; applied as a percentage surcharge on the
  // dynamic cycles consumed by an item that crossed a boundary.
  uint32_t pd_tlb_refill_percent = 30;

  // --- Softclock / timers ----------------------------------------------------
  Cycles softclock_tick = 220;       // per 1 ms timer interrupt (kernel)
  Cycles tcp_master_event = 380;     // per TCP master-event firing (TCP's PD)
  Cycles softclock_period_ms = 1;    // softclock granularity

  // --- Linux/Apache comparator (calibrated model, see DESIGN.md §2) ---------
  Cycles linux_request_cpu = 730'000;      // ~400 conn/s peak at 300 MHz
  Cycles linux_request_per_byte = 4;       // weaker zero-copy story
  Cycles linux_syn_cost = 4'000;           // kernel SYN-queue work per SYN
  Cycles linux_kill_process = 11'003;      // Table 2 reference row
  uint32_t linux_syn_backlog = 128;        // classic listen-queue depth

  // Returns the calibrated default instance used by all experiments.
  static const CostModel& Calibrated();
};

// Parameters of the simulated network testbed (Figure 7).
struct NetworkModel {
  double link_bandwidth_bps = 100e6;  // 100 Mbps Ethernet
  Cycles client_link_latency = CyclesFromMicros(120);  // client NIC->switch->hub
  Cycles server_link_latency = CyclesFromMicros(60);   // hub->server NIC
  Cycles client_processing = CyclesFromMicros(2000);   // client-side per req/resp

  static const NetworkModel& Calibrated();
};

}  // namespace escort

#endif  // SRC_SIM_COST_MODEL_H_
