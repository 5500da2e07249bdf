// Network message service between hosts (§7): a bidirectional link that
// proxies ports across a latency model, standing in for the Ethernets and
// token rings of the paper's NORMA configurations (and, with near-zero
// latency, the switch of a NUMA or the bus of a UMA).
//
// A proxy is a real port whose receive right the link holds. Every proxy
// carries a kernel-object handler (the hook the kernel's own ports use), so
// a send to it runs the forward step in the sender's thread: rewrite port
// rights so replies come back through the link, cross the latency model,
// and deliver to the target port on the other host. A remote page-in is
// then one thread handoff each way, and a manager's call to a remote kernel
// has taken effect when its msg_send returns.
//
// Each direction keeps one thread, for the work that may wait: delivering
// into a full port, flattening out-of-line memory into bytes on the wire
// (rebuilt as fresh memory in the destination kernel — network
// copy-on-reference is built on top of this by the migration manager), and
// the failure detector's idle heartbeats. A message that cannot be
// delivered without waiting is queued on its proxy for that thread, and so
// is every later message of its direction until the thread has caught up:
// no message overtakes an earlier one. A proxy's queue keeps its backlog,
// so a full proxy still refuses a polling sender.
//
// §7 gives the regimes: remote access ≈ sub-microsecond on a MultiMax-class
// UMA, ≈5 µs through a Butterfly-class NUMA switch (≈10x local), and
// hundreds of microseconds on a HyperCube-class NORMA.
//
// Real interconnects lose, duplicate and delay packets. A FaultInjector
// (points "net.drop" / "net.duplicate" / "net.delay" plus the fragment-level
// "net.frag_drop" / "net.ack_drop" / "net.reorder") plus SetPartitioned()
// model that. The optional reliable mode is a fragmented, windowed
// transport: a message is split into fragment_bytes-sized fragments sent in
// window-sized bursts; the receiver answers each delivering burst with a
// selective ack (a bitmap of everything it has reassembled so far), and the
// sender retransmits only the fragments the SACK reports missing, pacing
// retries with an adaptive RTO (SRTT/RTTVAR over virtual time, exponentially
// backed off, bounded by max_retransmits passes). Proxied pager traffic thus
// degrades to added (virtual) latency instead of loss, and one dropped
// fragment of a 64-page transfer costs one fragment on the wire — not the
// whole message.
//
// An optional failure detector sits on top: consecutive transport timeouts
// and idle-time heartbeats drive a per-direction health state machine
// kUp → kDegraded → kPeerDead. Declaring the peer dead kills every proxy
// port in that direction, which flows through the ordinary port-death
// notification path — remote kernels resolve parked faulters per their
// OnPagerTimeout policy immediately, and data managers get OnPortDeath for
// their request ports — instead of every waiter burning the 5 s pager
// timeout. SetPartitioned(false) heals: the next successful heartbeat
// re-enters kUp and fresh proxies can be minted.

#ifndef SRC_NET_NET_LINK_H_
#define SRC_NET_NET_LINK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/base/sim_clock.h"
#include "src/ipc/port.h"
#include "src/vm/vm_system.h"

namespace mach {

struct NetLatencyModel {
  uint64_t per_msg_ns = 0;   // Charged once per wire frame (fragment/SACK).
  uint64_t per_byte_ns = 0;  // Charged per payload byte (inline + OOL).
};

// §7 regime presets.
inline constexpr NetLatencyModel kUmaLatency{500, 0};        // "considerably less than 1 µs"
inline constexpr NetLatencyModel kNumaLatency{5'000, 1};     // Butterfly: ≈5 µs
inline constexpr NetLatencyModel kNormaLatency{200'000, 80}; // HyperCube: 100s of µs, 10 Mb/s

// Per-direction link health as seen by the failure detector.
enum class LinkHealth : uint8_t {
  kUp = 0,        // Recent traffic (or heartbeats) succeeded.
  kDegraded = 1,  // degraded_after_timeouts consecutive timeouts.
  kPeerDead = 2,  // dead_after_timeouts: proxies for the peer were killed.
};

const char* LinkHealthName(LinkHealth health);

struct NetFaultConfig {
  // Consulted per transmission attempt (null = healthy link).
  FaultInjector* injector = nullptr;
  // Extra virtual-time delay charged when "net.delay" fires.
  uint64_t delay_jitter_ns = 1'000'000;  // 1 ms.
  // Fragmented selective-repeat transport: fragments ride a sliding window,
  // the receiver SACKs what it has, and only missing fragments retransmit.
  bool reliable = false;
  // Retransmission passes per message before it is declared lost.
  uint32_t max_retransmits = 6;
  // Initial RTO before any RTT sample exists; doubled per timeout.
  uint64_t retransmit_base_ns = 5'000'000;  // 5 ms.
  // Reliable-mode wire format: payload is split into fragments of this many
  // bytes, sent in bursts of window_fragments.
  uint64_t fragment_bytes = 4096;
  uint32_t window_fragments = 8;
  // Clamp on the adaptive RTO (srtt + 4*rttvar, exponentially backed off).
  uint64_t min_rto_ns = 1'000'000;    // 1 ms.
  uint64_t max_rto_ns = 320'000'000;  // 320 ms.
  // Failure detector: when enabled, consecutive transport timeouts and idle
  // heartbeats drive the kUp -> kDegraded -> kPeerDead state machine, and
  // kPeerDead kills every proxy in the affected direction.
  bool failure_detector = false;
  uint32_t degraded_after_timeouts = 3;
  uint32_t dead_after_timeouts = 10;
};

class NetLink {
 public:
  // Fault points consulted when an injector is attached. Data fragments
  // consult net.drop then net.frag_drop (drop) and net.delay (jitter);
  // delivered fragments consult net.reorder (arrival deferred past the
  // SACK). SACK control frames consult only net.ack_drop — the control
  // plane can be faulted independently of the data plane — plus
  // net.duplicate for a duplicated (idempotently re-applied) SACK.
  // Heartbeats consult no points at all: their count depends on wall-clock
  // idle time, which would perturb the deterministic per-point sequences.
  static constexpr const char* kFaultDrop = "net.drop";
  static constexpr const char* kFaultDuplicate = "net.duplicate";
  static constexpr const char* kFaultDelay = "net.delay";
  static constexpr const char* kFaultFragDrop = "net.frag_drop";
  static constexpr const char* kFaultAckDrop = "net.ack_drop";
  static constexpr const char* kFaultReorder = "net.reorder";

  // Host A and host B are identified by their VM systems (for OOL
  // rebuild). Latency is charged to `clock` per traversal.
  NetLink(VmSystem* vm_a, VmSystem* vm_b, SimClock* clock,
          NetLatencyModel latency = kNormaLatency, NetFaultConfig faults = NetFaultConfig{});
  ~NetLink();

  NetLink(const NetLink&) = delete;
  NetLink& operator=(const NetLink&) = delete;

  // Returns a send right usable on host A that relays to `target_on_b`
  // (which lives on host B), and vice versa. Proxies are cached per target.
  SendRight ProxyForA(SendRight target_on_b);
  SendRight ProxyForB(SendRight target_on_a);

  // A partitioned link transmits nothing: unreliable messages are lost,
  // reliable ones burn their retransmit budget and are then lost too.
  // Heals (or breaks) both directions at once.
  void SetPartitioned(bool on) { partitioned_.store(on, std::memory_order_release); }
  bool partitioned() const { return partitioned_.load(std::memory_order_acquire); }

  // Failure-detector observability, per direction.
  struct LinkDirectionStatus {
    LinkHealth health = LinkHealth::kUp;
    uint64_t rto_ns = 0;  // Current adaptive RTO (0 until the first sample).
    uint32_t consecutive_timeouts = 0;
  };
  LinkDirectionStatus a_to_b_status() const { return StatusOf(a_to_b_); }
  LinkDirectionStatus b_to_a_status() const { return StatusOf(b_to_a_); }

  uint64_t messages_forwarded() const { return messages_.load(std::memory_order_relaxed); }
  uint64_t bytes_forwarded() const { return bytes_.load(std::memory_order_relaxed); }
  // Transmission attempts dropped on the wire (fragments, SACKs, and
  // unreliable whole messages; includes retried attempts).
  uint64_t messages_dropped() const { return dropped_.load(std::memory_order_relaxed); }
  // Retransmission passes (RTO expiries) performed in reliable mode.
  uint64_t retransmits() const { return retransmits_.load(std::memory_order_relaxed); }
  // Messages lost for good: an unreliable drop, or a reliable message whose
  // retransmit budget was exhausted. Each lost message counts exactly once,
  // however many of its transmission attempts were dropped.
  uint64_t messages_lost() const { return lost_.load(std::memory_order_relaxed); }
  // Extra deliveries from duplication (unreliable mode).
  uint64_t messages_duplicated() const { return duplicated_.load(std::memory_order_relaxed); }
  // Duplicates suppressed in reliable mode: replayed whole messages caught
  // by sequence numbers, plus re-received fragments already reassembled.
  uint64_t duplicates_suppressed() const {
    return dup_suppressed_.load(std::memory_order_relaxed);
  }

  // Fragment-transport counters (reliable mode).
  uint64_t fragments_sent() const { return fragments_sent_.load(std::memory_order_relaxed); }
  uint64_t fragments_retransmitted() const {
    return fragments_retransmitted_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_retransmitted() const {
    return bytes_retransmitted_.load(std::memory_order_relaxed);
  }
  uint64_t sacks_sent() const { return sacks_sent_.load(std::memory_order_relaxed); }
  uint64_t sacks_duplicated() const { return sacks_duplicated_.load(std::memory_order_relaxed); }
  uint64_t reorders_seen() const { return reorders_.load(std::memory_order_relaxed); }
  // Failure-detector counters.
  uint64_t peer_dead_events() const { return peer_dead_events_.load(std::memory_order_relaxed); }
  uint64_t heartbeats_sent() const { return heartbeats_sent_.load(std::memory_order_relaxed); }

 private:
  // A message past the wire, on its way to the target.
  struct Crossed {
    SendRight target;
    Message msg;
    std::optional<Message> duplicate;  // The wire's replay, trailing `msg`.
    uint64_t seq = 0;
    uint64_t payload_bytes = 0;
  };

  // One direction of the link. Its locks are leaves below the VM tiers: a
  // kPoll sender may forward under an object lock, and nothing that sends,
  // destroys a right or enters a kernel runs under them.
  struct Direction {
    const char* name = "";
    VmSystem* dst_vm = nullptr;  // OOL is rebuilt into this kernel.
    Direction* reverse = nullptr;
    std::shared_ptr<PortSet> set = PortSet::Create();
    // Guards the proxy maps.
    std::mutex mu;
    // target port id -> proxy (cached so a port exports to one proxy).
    std::unordered_map<uint64_t, SendRight> proxies_by_target;
    // proxy port id -> target (for forwarding and reverse unwrapping).
    std::unordered_map<uint64_t, SendRight> target_by_proxy;
    std::vector<ReceiveRight> receives;
    // Wire state, guarded by wire_mu, which is held only while a message or
    // heartbeat crosses the wire model, never during delivery. Reliable
    // mode stamps next_seq on the wire; delivered_up_to is the receiver's
    // cumulative ack, so "seq <= delivered_up_to" detects a replay (it
    // advances by max: concurrent senders deliver out of sequence order).
    // srtt/rttvar: the RTT estimator (RFC 6298 shape over virtual time).
    // `crossed`: a message crossed since the last heartbeat tick.
    std::mutex wire_mu;
    uint64_t next_seq = 1;
    uint64_t delivered_up_to = 0;
    uint64_t srtt_ns = 0;
    uint64_t rttvar_ns = 0;
    bool crossed = false;
    // Failure-detector state, written under wire_mu; read from anywhere.
    // rto_ns is the estimator's current RTO.
    std::atomic<LinkHealth> health{LinkHealth::kUp};
    std::atomic<uint32_t> consecutive_timeouts{0};
    std::atomic<uint64_t> rto_ns{0};
    // The direction's thread and its work: messages queued on the proxies,
    // and crossed ones whose target was full (`undelivered`, guarded by
    // wake_mu). A sender forwards in its own thread only while `pending`
    // and `busy` are both clear. `pending` is set once work is queued and
    // cleared when the thread picks it up; `busy` is set before the thread
    // picks anything up and cleared once it finds nothing left.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::deque<Crossed> undelivered;
    std::atomic<bool> pending{false};
    std::atomic<bool> busy{false};
    std::thread thread;
  };

  // The gate for calls into the link from other threads: proxy handlers and
  // target-death actions. Calls nest (a delivery may re-enter the link);
  // ~NetLink closes the gate and waits for the calls inside, so a call
  // racing it either finishes first or declines. The token outlives the
  // link: proxies and targets hold it.
  struct LifeToken {
    std::atomic<bool> open{true};
    std::atomic<uint32_t> inside{0};
    NetLink* link = nullptr;
    void Close();
  };
  class LinkCall;  // One call through the gate (net_link.cc).

  SendRight MakeProxy(Direction& dir, SendRight target);
  // Rewrites a port right crossing the link in direction `dir`: unwrap it if
  // it is one of `dir`'s proxies, otherwise wrap it in a reverse proxy.
  SendRight RewriteRight(Direction& dir, SendRight right);
  // A proxy's handler: forwards `msg` in the sender's thread when nothing of
  // its direction waits, otherwise queues it on the proxy for the thread.
  std::optional<KernReturn> OnProxySend(Direction& dir, Port& proxy, Message& msg,
                                        Timeout timeout);
  // The forward step: rewrite rights, flatten OOL (the thread only), cross
  // the wire, deliver. kPortDead if the proxy is no longer mapped.
  KernReturn Forward(Direction& dir, uint64_t proxy_id, Message&& msg, bool in_sender);
  // Delivers a crossed message (then its replay, if any). A polling
  // delivery that finds the target full hands the message to the thread.
  void Deliver(Direction& dir, Crossed&& crossed, Timeout timeout);
  // Marks work pending for `dir`'s thread and wakes it.
  void Wake(Direction& dir);
  void ThreadLoop(Direction& dir);
  void DeliverHandedOff(Direction& dir);
  // A heartbeat tick: probes the peer if no message crossed since the last.
  void Tick(Direction& dir);
  // One wire traversal of a whole (unreliable) message: charges latency and
  // decides drop/delay. Returns false if the transmission was dropped.
  bool Transmit(uint64_t payload_bytes);
  // Reliable fragmented transport for one message. Returns false when the
  // retransmit budget is exhausted with fragments still missing; the caller
  // counts the loss (exactly once). Sets *peer_died if the failure detector
  // declared the peer dead meanwhile. Caller holds dir.wire_mu.
  bool SendReliable(Direction& dir, uint64_t payload_bytes, bool* peer_died);
  // One fragment on the wire: latency + data-plane fault points.
  bool TransmitFragment(uint64_t fragment_bytes);
  // One SACK control frame back: latency + net.ack_drop only.
  bool TransmitSack();
  void UpdateRtt(Direction& dir, uint64_t sample_ns);
  uint64_t ClampRto(uint64_t rto) const;
  uint64_t CurrentRto(const Direction& dir) const;
  // Failure detector: fed every transport round (RTO expiry = false,
  // completed message = true) and heartbeat probe, under dir.wire_mu.
  // Returns true when it has just declared the peer dead; the caller then
  // kills the proxies, after releasing wire_mu.
  bool NoteRoundOutcome(Direction& dir, bool ok);
  // Kills every proxy in `dir` (peer declared dead, or the link is going
  // away): their death notifications fan out to kernels and data managers.
  void KillProxies(Direction& dir);
  // Kills the proxy for `target_id`: its target died, so senders must see
  // port death too (eagerly, from a death action, or on a failed delivery).
  void KillProxy(Direction& dir, uint64_t target_id);
  LinkDirectionStatus StatusOf(const Direction& dir) const;

  SimClock* const clock_;
  const NetLatencyModel latency_;
  const NetFaultConfig faults_;
  const std::shared_ptr<LifeToken> life_;
  Direction a_to_b_;  // Proxies that live on A and target ports on B.
  Direction b_to_a_;
  std::atomic<bool> running_{true};
  std::atomic<bool> partitioned_{false};
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> lost_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> dup_suppressed_{0};
  std::atomic<uint64_t> fragments_sent_{0};
  std::atomic<uint64_t> fragments_retransmitted_{0};
  std::atomic<uint64_t> bytes_retransmitted_{0};
  std::atomic<uint64_t> sacks_sent_{0};
  std::atomic<uint64_t> sacks_duplicated_{0};
  std::atomic<uint64_t> reorders_{0};
  std::atomic<uint64_t> peer_dead_events_{0};
  std::atomic<uint64_t> heartbeats_sent_{0};
};

}  // namespace mach

#endif  // SRC_NET_NET_LINK_H_
