#include "src/net/net_link.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <variant>

#include "src/base/log.h"

namespace mach {

namespace {

// A SACK is a small control frame: sequence range + fragment bitmap.
constexpr uint64_t kSackFrameBytes = 16;

// The thread's idle tick (one heartbeat per quiet tick) and its bound on a
// delivery into a full port.
constexpr std::chrono::milliseconds kTick{20};
constexpr std::chrono::milliseconds kDeliverTimeout{2000};

// A best-effort copy for duplicate delivery. Receive rights cannot be
// duplicated (there is one receiver), so a message carrying one is never
// duplicated on the wire.
std::optional<Message> CloneMessage(const Message& msg) {
  Message copy(msg.id());
  copy.set_reply_port(msg.reply_port());
  for (const MsgItem& item : msg.items()) {
    if (const auto* data = std::get_if<DataItem>(&item)) {
      copy.PushBytes(data->bytes);
    } else if (const auto* port = std::get_if<PortItem>(&item)) {
      copy.PushPort(port->right);
    } else if (const auto* ool = std::get_if<OolItem>(&item)) {
      copy.PushOol(ool->copy, ool->size);
    } else {
      return std::nullopt;
    }
  }
  return copy;
}

}  // namespace

const char* LinkHealthName(LinkHealth health) {
  switch (health) {
    case LinkHealth::kUp:
      return "up";
    case LinkHealth::kDegraded:
      return "degraded";
    case LinkHealth::kPeerDead:
      return "peer-dead";
  }
  return "?";
}

NetLink::NetLink(VmSystem* vm_a, VmSystem* vm_b, SimClock* clock, NetLatencyModel latency,
                 NetFaultConfig faults)
    : clock_(clock), latency_(latency), faults_(faults),
      life_(std::make_shared<LifeToken>()) {
  life_->link = this;
  a_to_b_.name = "a->b";
  b_to_a_.name = "b->a";
  a_to_b_.dst_vm = vm_b;  // Messages entering on A are delivered into B.
  b_to_a_.dst_vm = vm_a;
  a_to_b_.reverse = &b_to_a_;
  b_to_a_.reverse = &a_to_b_;
  a_to_b_.thread = std::thread([this] { ThreadLoop(a_to_b_); });
  b_to_a_.thread = std::thread([this] { ThreadLoop(b_to_a_); });
}

NetLink::~NetLink() {
  // Proxies die first, so a sender waiting for room on one fails with
  // kPortDead rather than holding the gate open.
  KillProxies(a_to_b_);
  KillProxies(b_to_a_);
  // Calls in flight finish; later ones decline to their (dead) proxy, and
  // target-death actions no-op.
  life_->Close();
  running_.store(false, std::memory_order_release);
  for (Direction* dir : {&a_to_b_, &b_to_a_}) {
    { std::lock_guard<std::mutex> g(dir->wake_mu); }
    dir->wake_cv.notify_one();
  }
  a_to_b_.thread.join();
  b_to_a_.thread.join();
}

void NetLink::LifeToken::Close() {
  open.store(false);
  for (uint32_t n = inside.load(); n != 0; n = inside.load()) {
    inside.wait(n);
  }
}

class NetLink::LinkCall {
 public:
  explicit LinkCall(LifeToken& token) : token_(token) {
    // Announce the call before checking the gate: Close either sees it
    // inside or closed the gate first.
    token_.inside.fetch_add(1);
    if (token_.open.load()) {
      link_ = token_.link;
    }
  }
  ~LinkCall() {
    if (token_.inside.fetch_sub(1) == 1 && !token_.open.load()) {
      token_.inside.notify_all();
    }
  }
  LinkCall(const LinkCall&) = delete;
  LinkCall& operator=(const LinkCall&) = delete;

  NetLink* link() const { return link_; }  // Null once the gate is closed.

 private:
  LifeToken& token_;
  NetLink* link_ = nullptr;
};

SendRight NetLink::ProxyForA(SendRight target_on_b) { return MakeProxy(a_to_b_, std::move(target_on_b)); }

SendRight NetLink::ProxyForB(SendRight target_on_a) { return MakeProxy(b_to_a_, std::move(target_on_a)); }

SendRight NetLink::MakeProxy(Direction& dir, SendRight target) {
  if (!target.valid()) {
    return SendRight();
  }
  {
    std::lock_guard<std::mutex> g(dir.mu);
    auto it = dir.proxies_by_target.find(target.id());
    if (it != dir.proxies_by_target.end()) {
      return it->second;
    }
  }
  PortPair pair = PortAllocate("netproxy:" + target.label());
  pair.receive.port()->SetBacklog(1024);
  // Installed before the send right leaves: every send to the proxy runs
  // the link's handler. It captures no port rights (PortGc cannot see into
  // it); the token gates ~NetLink.
  Direction* dir_ptr = &dir;
  pair.receive.port()->SetKernelObjectHandler(
      [life = life_, dir_ptr](Port& port, Message& msg,
                              Timeout timeout) -> std::optional<KernReturn> {
        LinkCall call(*life);
        if (call.link() == nullptr) {
          return std::nullopt;  // Queued on the proxy, which dies with the link.
        }
        return call.link()->OnProxySend(*dir_ptr, port, msg, timeout);
      });
  dir.set->Add(pair.receive);
  SendRight existing;
  {
    std::lock_guard<std::mutex> g(dir.mu);
    auto it = dir.proxies_by_target.find(target.id());
    if (it != dir.proxies_by_target.end()) {
      existing = it->second;  // Another thread exported the target first.
    } else {
      dir.proxies_by_target.emplace(target.id(), pair.send);
      dir.target_by_proxy.emplace(pair.send.id(), target);
      dir.receives.push_back(std::move(pair.receive));
    }
  }
  if (existing.valid()) {
    dir.set->Remove(pair.receive);
    return existing;  // The unused proxy dies here.
  }
  // Propagate target death eagerly: remote senders observe port death the
  // moment the real port dies, not whenever the next forward fails. An
  // already-dead target fires the action here, synchronously.
  const uint64_t target_id = target.id();
  target.port()->AddDeathAction([life = life_, dir_ptr, target_id](uint64_t) {
    LinkCall call(*life);
    if (call.link() != nullptr) {
      call.link()->KillProxy(*dir_ptr, target_id);
    }
  });
  return pair.send;
}

void NetLink::KillProxy(Direction& dir, uint64_t target_id) {
  SendRight proxy;
  SendRight target;
  ReceiveRight receive;
  {
    std::lock_guard<std::mutex> g(dir.mu);
    auto it = dir.proxies_by_target.find(target_id);
    if (it == dir.proxies_by_target.end()) {
      return;  // Already gone (an earlier kill or the peer-dead sweep).
    }
    proxy = std::move(it->second);
    dir.proxies_by_target.erase(it);
    auto target_it = dir.target_by_proxy.find(proxy.id());
    if (target_it != dir.target_by_proxy.end()) {
      target = std::move(target_it->second);
      dir.target_by_proxy.erase(target_it);
    }
    auto receive_it = std::find_if(dir.receives.begin(), dir.receives.end(),
                                   [&](const ReceiveRight& r) { return r.id() == proxy.id(); });
    if (receive_it != dir.receives.end()) {
      receive = std::move(*receive_it);
      dir.receives.erase(receive_it);
    }
  }
  // Outside dir.mu: destroying a right re-enters its port.
  dir.set->Remove(receive);
  receive.Destroy();
}

void NetLink::KillProxies(Direction& dir) {
  // Destroying the receive rights marks every proxy port dead; their death
  // notifications fan out to whoever registered (kernels resolve parked
  // faulters per OnPagerTimeout policy, data managers get OnPortDeath).
  std::unordered_map<uint64_t, SendRight> proxies;
  std::unordered_map<uint64_t, SendRight> targets;
  std::vector<ReceiveRight> receives;
  {
    std::lock_guard<std::mutex> g(dir.mu);
    proxies.swap(dir.proxies_by_target);
    targets.swap(dir.target_by_proxy);
    receives.swap(dir.receives);
  }
  for (ReceiveRight& r : receives) {
    dir.set->Remove(r);
    r.Destroy();
  }
}

SendRight NetLink::RewriteRight(Direction& dir, SendRight right) {
  if (!right.valid()) {
    return right;
  }
  {
    // If the right is one of `dir`'s own proxies, the real port lives on
    // the destination side: unwrap it rather than proxying a proxy.
    std::lock_guard<std::mutex> g(dir.mu);
    auto it = dir.target_by_proxy.find(right.id());
    if (it != dir.target_by_proxy.end()) {
      return it->second;
    }
  }
  // Otherwise the port lives on the source side: give the destination a
  // reverse-direction proxy so its replies cross the link too.
  return MakeProxy(*dir.reverse, std::move(right));
}

std::optional<KernReturn> NetLink::OnProxySend(Direction& dir, Port& proxy, Message& msg,
                                               Timeout timeout) {
  // `pending` before `busy`: the thread sets busy before it clears pending,
  // so a sender that finds pending clear after work was queued finds the
  // thread busy until that work is done.
  const bool carries_ool = std::any_of(msg.items().begin(), msg.items().end(),
                                       [](const MsgItem& item) {
                                         return std::holds_alternative<OolItem>(item);
                                       });
  if (!dir.pending.load() && !dir.busy.load() && !carries_ool) {
    return Forward(dir, proxy.id(), std::move(msg), /*in_sender=*/true);
  }
  // Otherwise the message waits for the direction's thread, queued on the
  // proxy, whose backlog refuses a polling sender when full.
  KernReturn kr = proxy.Queue(std::move(msg), timeout);
  if (IsOk(kr)) {
    Wake(dir);
  }
  return kr;
}

void NetLink::Wake(Direction& dir) {
  {
    std::lock_guard<std::mutex> g(dir.wake_mu);
    dir.pending.store(true);
  }
  dir.wake_cv.notify_one();
}

void NetLink::ThreadLoop(Direction& dir) {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lk(dir.wake_mu);
      const bool woken = dir.wake_cv.wait_for(lk, kTick, [&] {
        return dir.pending.load() || !running_.load(std::memory_order_acquire);
      });
      if (!running_.load(std::memory_order_acquire)) {
        return;
      }
      if (!woken) {
        lk.unlock();
        Tick(dir);
        continue;
      }
      dir.busy.store(true);
      dir.pending.store(false);
    }
    for (;;) {
      Result<PortSet::ReceivedMessage> got = dir.set->ReceiveFrom(kPoll);
      // Whatever was handed off before `got` was queued goes first.
      DeliverHandedOff(dir);
      if (!got.ok()) {
        break;
      }
      Forward(dir, got.value().port_id, std::move(got.value().message), /*in_sender=*/false);
    }
    dir.busy.store(false);
  }
}

void NetLink::DeliverHandedOff(Direction& dir) {
  for (;;) {
    Crossed crossed;
    {
      std::lock_guard<std::mutex> g(dir.wake_mu);
      if (dir.undelivered.empty()) {
        return;
      }
      crossed = std::move(dir.undelivered.front());
      dir.undelivered.pop_front();
    }
    Deliver(dir, std::move(crossed), kDeliverTimeout);
  }
}

void NetLink::Tick(Direction& dir) {
  if (!faults_.failure_detector) {
    return;
  }
  bool peer_died = false;
  {
    std::lock_guard<std::mutex> g(dir.wire_mu);
    if (std::exchange(dir.crossed, false)) {
      return;  // Not idle: traffic stands in for the probe.
    }
    // Idle: probe the peer. Heartbeats are control-plane only — they
    // consult the partition switch but never the injector (their count
    // depends on wall-clock idle time, which would perturb the
    // deterministic per-point fault sequences) and charge no virtual
    // latency. They are what pushes a quiet partitioned direction over the
    // peer-dead threshold, and what heals it after SetPartitioned.
    heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    peer_died = NoteRoundOutcome(dir, !partitioned());
  }
  if (peer_died) {
    KillProxies(dir);
  }
}

KernReturn NetLink::Forward(Direction& dir, uint64_t proxy_id, Message&& msg, bool in_sender) {
  Crossed crossed;
  {
    std::lock_guard<std::mutex> g(dir.mu);
    auto it = dir.target_by_proxy.find(proxy_id);
    if (it == dir.target_by_proxy.end()) {
      return KernReturn::kPortDead;  // The proxy is being killed.
    }
    crossed.target = it->second;
  }
  crossed.payload_bytes = msg.InlineSize();

  // Rewrite the reply port and all port rights in the body.
  msg.set_reply_port(RewriteRight(dir, msg.reply_port()));
  for (MsgItem& item : msg.items()) {
    if (auto* port_item = std::get_if<PortItem>(&item)) {
      port_item->right = RewriteRight(dir, std::move(port_item->right));
    } else if (auto* ool = std::get_if<OolItem>(&item)) {
      // Out-of-line memory crosses the wire as bytes and is rebuilt as
      // fresh memory in the destination kernel (only ever on the thread:
      // the rebuild may wait for frames).
      auto copy = std::static_pointer_cast<VmMapCopy>(ool->copy);
      if (copy != nullptr && copy->system() != nullptr) {
        Result<std::vector<std::byte>> flat = copy->system()->CopyAsBytes(copy);
        if (flat.ok()) {
          crossed.payload_bytes += flat.value().size();
          Result<std::shared_ptr<VmMapCopy>> rebuilt =
              dir.dst_vm->CopyFromBytes(flat.value().data(), flat.value().size());
          if (rebuilt.ok()) {
            ool->copy = rebuilt.value();
          } else {
            ool->copy = nullptr;
          }
        } else {
          ool->copy = nullptr;
        }
      }
    }
  }

  // Wire transmission: the fragmented selective-repeat transport in
  // reliable mode, a single all-or-nothing traversal otherwise. A message
  // that does not make it is counted lost exactly once, here and only here
  // — attempt-level drops accumulate separately in messages_dropped.
  bool on_wire = false;
  bool peer_died = false;
  {
    std::lock_guard<std::mutex> g(dir.wire_mu);
    dir.crossed = true;
    crossed.seq = dir.next_seq++;
    on_wire = faults_.reliable ? SendReliable(dir, crossed.payload_bytes, &peer_died)
                               : Transmit(crossed.payload_bytes);
    if (on_wire) {
      // The wire may deliver the message twice; clone it before the
      // original is moved out for delivery.
      if (faults_.injector != nullptr && faults_.injector->ShouldFail(kFaultDuplicate)) {
        crossed.duplicate = CloneMessage(msg);
      }
      messages_.fetch_add(1, std::memory_order_relaxed);
      bytes_.fetch_add(crossed.payload_bytes, std::memory_order_relaxed);
    } else {
      lost_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (peer_died) {
    KillProxies(dir);
  }
  if (on_wire) {
    crossed.msg = std::move(msg);
    Deliver(dir, std::move(crossed), in_sender ? Timeout(kPoll) : kDeliverTimeout);
  }
  return KernReturn::kSuccess;
}

void NetLink::Deliver(Direction& dir, Crossed&& crossed, Timeout timeout) {
  const KernReturn kr = MsgSend(crossed.target, std::move(crossed.msg), timeout);
  if (kr == KernReturn::kPortFull && timeout == kPoll) {
    // No room, and the sender's thread must not wait: the message is left
    // to us (a failed send does not consume it) for the thread to deliver.
    {
      std::lock_guard<std::mutex> g(dir.wake_mu);
      dir.undelivered.push_back(std::move(crossed));
    }
    Wake(dir);
    return;
  }
  if (IsOk(kr)) {
    // Receiver-side cumulative ack: advances only when a message is
    // actually delivered.
    std::lock_guard<std::mutex> g(dir.wire_mu);
    dir.delivered_up_to = std::max(dir.delivered_up_to, crossed.seq);
  }

  // The duplicate trails the original and has to survive the wire itself.
  if (crossed.duplicate.has_value() && kr != KernReturn::kPortDead) {
    bool replayed = false;
    {
      std::lock_guard<std::mutex> g(dir.wire_mu);
      if (Transmit(crossed.payload_bytes)) {
        if (faults_.reliable && crossed.seq <= dir.delivered_up_to) {
          // The cumulative ack already covers this sequence number: the
          // reliable receiver suppresses the replay.
          dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          duplicated_.fetch_add(1, std::memory_order_relaxed);
          replayed = true;
        }
      }
    }
    if (replayed) {
      // A polling replay that finds no room is dropped, as the wire may be.
      MsgSend(crossed.target, std::move(crossed.duplicate).value(), timeout);
    }
  }

  if (kr == KernReturn::kPortDead) {
    // Target died: kill the proxy so senders see port death too.
    KillProxy(dir, crossed.target.id());
  }
}

bool NetLink::SendReliable(Direction& dir, uint64_t payload_bytes, bool* peer_died) {
  const uint64_t frag_size = std::max<uint64_t>(1, faults_.fragment_bytes);
  const uint64_t frag_count = std::max<uint64_t>(1, (payload_bytes + frag_size - 1) / frag_size);
  const uint32_t window = std::max<uint32_t>(1, faults_.window_fragments);

  // Sender and (simulated) receiver state for this message. `arrived` is
  // the receiver's reassembly bitmap — out-of-order arrivals just set their
  // bit; `acked` is the sender's view of it, merged from SACKs.
  std::vector<bool> arrived(frag_count, false);
  std::vector<bool> acked(frag_count, false);
  std::vector<bool> transmitted(frag_count, false);  // First attempt done?
  uint64_t acked_count = 0;
  uint64_t arrived_count = 0;
  uint64_t rto = CurrentRto(dir);

  // Merging a SACK bitmap is idempotent: re-applying a duplicated (or
  // stale) SACK acks nothing twice.
  auto merge_sack = [&](const std::vector<bool>& sack) {
    for (uint64_t f = 0; f < frag_count; ++f) {
      if (sack[f] && !acked[f]) {
        acked[f] = true;
        ++acked_count;
      }
    }
  };
  auto receive_fragment = [&](uint64_t f) {
    if (arrived[f]) {
      // Already reassembled (a retransmit whose SACK was lost, or a
      // reordered straggler that crossed its own retransmission).
      dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      arrived[f] = true;
      ++arrived_count;
    }
  };

  for (uint32_t pass = 0;; ++pass) {
    // One pass over the fragments the SACKs still report missing, in
    // window-sized bursts. Each delivering burst is answered by one SACK,
    // so a retransmission round only ever resends what is actually missing.
    uint64_t next = 0;
    while (acked_count < frag_count && next < frag_count) {
      std::vector<uint64_t> burst;
      while (next < frag_count && burst.size() < window) {
        if (!acked[next]) {
          burst.push_back(next);
        }
        ++next;
      }
      if (burst.empty()) {
        break;
      }
      const uint64_t burst_started_ns = clock_ != nullptr ? clock_->NowNs() : 0;
      bool burst_delivered = false;
      std::vector<uint64_t> reordered;  // Arrive only after the SACK left.
      for (uint64_t f : burst) {
        const uint64_t frag_bytes =
            f + 1 == frag_count ? payload_bytes - f * frag_size : frag_size;
        fragments_sent_.fetch_add(1, std::memory_order_relaxed);
        if (transmitted[f]) {
          fragments_retransmitted_.fetch_add(1, std::memory_order_relaxed);
          bytes_retransmitted_.fetch_add(frag_bytes, std::memory_order_relaxed);
        }
        transmitted[f] = true;
        if (!TransmitFragment(frag_bytes)) {
          continue;  // Dropped on the wire; a later SACK flags it missing.
        }
        if (faults_.injector != nullptr && faults_.injector->ShouldFail(kFaultReorder)) {
          reorders_.fetch_add(1, std::memory_order_relaxed);
          reordered.push_back(f);
          continue;
        }
        receive_fragment(f);
        burst_delivered = true;
      }
      if (burst_delivered) {
        // The receiver answers a delivering burst with a selective ack: a
        // snapshot of its whole reassembly bitmap (so a SACK lost earlier
        // is repaired by any later one).
        sacks_sent_.fetch_add(1, std::memory_order_relaxed);
        const std::vector<bool> sack = arrived;
        const bool sack_arrived = TransmitSack();
        // Reordered fragments land now — real arrivals the SACK that just
        // left knows nothing about; the sender re-sends them and the
        // receiver suppresses the duplicates.
        for (uint64_t f : reordered) {
          receive_fragment(f);
        }
        if (sack_arrived) {
          merge_sack(sack);
          if (faults_.injector != nullptr && faults_.injector->ShouldFail(kFaultDuplicate)) {
            // A duplicated SACK: merged again, to no further effect.
            sacks_duplicated_.fetch_add(1, std::memory_order_relaxed);
            merge_sack(sack);
          }
          if (clock_ != nullptr) {
            UpdateRtt(dir, clock_->NowNs() - burst_started_ns);
          }
        }
      } else {
        // Nothing reached the receiver in-band; stragglers still land.
        for (uint64_t f : reordered) {
          receive_fragment(f);
        }
      }
    }

    if (acked_count == frag_count) {
      if (faults_.failure_detector) {
        NoteRoundOutcome(dir, true);
      }
      return true;
    }
    // Unacked fragments remain: the retransmission timer fires.
    if (faults_.failure_detector && NoteRoundOutcome(dir, false)) {
      *peer_died = true;
    }
    if (pass >= faults_.max_retransmits) {
      return false;  // Budget exhausted; the caller counts the loss once.
    }
    if (clock_ != nullptr) {
      clock_->Charge(rto);
    }
    rto = ClampRto(rto * 2);  // Bounded exponential backoff.
    retransmits_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetLink::Transmit(uint64_t payload_bytes) {
  if (clock_ != nullptr) {
    clock_->Charge(latency_.per_msg_ns + latency_.per_byte_ns * payload_bytes);
  }
  if (partitioned()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (faults_.injector != nullptr) {
    if (faults_.injector->ShouldFail(kFaultDrop)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (faults_.injector->ShouldFail(kFaultDelay) && clock_ != nullptr) {
      clock_->Charge(faults_.delay_jitter_ns);
    }
  }
  return true;
}

bool NetLink::TransmitFragment(uint64_t fragment_bytes) {
  if (clock_ != nullptr) {
    clock_->Charge(latency_.per_msg_ns + latency_.per_byte_ns * fragment_bytes);
  }
  if (partitioned()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (faults_.injector != nullptr) {
    if (faults_.injector->ShouldFail(kFaultDrop) ||
        faults_.injector->ShouldFail(kFaultFragDrop)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (faults_.injector->ShouldFail(kFaultDelay) && clock_ != nullptr) {
      clock_->Charge(faults_.delay_jitter_ns);
    }
  }
  return true;
}

bool NetLink::TransmitSack() {
  if (clock_ != nullptr) {
    clock_->Charge(latency_.per_msg_ns + latency_.per_byte_ns * kSackFrameBytes);
  }
  if (partitioned()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Control frames fault independently of the data plane: only
  // net.ack_drop, so tests can target acks without touching fragments.
  if (faults_.injector != nullptr && faults_.injector->ShouldFail(kFaultAckDrop)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

uint64_t NetLink::ClampRto(uint64_t rto) const {
  const uint64_t lo = std::max<uint64_t>(1, faults_.min_rto_ns);
  const uint64_t hi = std::max<uint64_t>(lo, faults_.max_rto_ns);
  return std::clamp(rto, lo, hi);
}

uint64_t NetLink::CurrentRto(const Direction& dir) const {
  const uint64_t adaptive = dir.rto_ns.load(std::memory_order_relaxed);
  // Before the first RTT sample the configured base paces retries (the
  // clamp does not apply to it, so tests may pick an exact backoff series).
  return adaptive != 0 ? adaptive : faults_.retransmit_base_ns;
}

void NetLink::UpdateRtt(Direction& dir, uint64_t sample_ns) {
  // RFC 6298 over virtual time: srtt <- 7/8 srtt + 1/8 sample,
  // rttvar <- 3/4 rttvar + 1/4 |srtt - sample|, rto = srtt + 4 rttvar.
  if (dir.srtt_ns == 0) {
    dir.srtt_ns = sample_ns;
    dir.rttvar_ns = sample_ns / 2;
  } else {
    const uint64_t delta =
        sample_ns > dir.srtt_ns ? sample_ns - dir.srtt_ns : dir.srtt_ns - sample_ns;
    dir.rttvar_ns = (3 * dir.rttvar_ns + delta) / 4;
    dir.srtt_ns = (7 * dir.srtt_ns + sample_ns) / 8;
  }
  dir.rto_ns.store(ClampRto(dir.srtt_ns + 4 * dir.rttvar_ns), std::memory_order_relaxed);
}

bool NetLink::NoteRoundOutcome(Direction& dir, bool ok) {
  if (ok) {
    dir.consecutive_timeouts.store(0, std::memory_order_relaxed);
    // Any successful round heals — including from kPeerDead after the
    // partition is lifted. (Proxies killed meanwhile stay dead; callers
    // mint fresh ones.)
    dir.health.store(LinkHealth::kUp, std::memory_order_release);
    return false;
  }
  const uint32_t timeouts = dir.consecutive_timeouts.fetch_add(1, std::memory_order_relaxed) + 1;
  const LinkHealth health = dir.health.load(std::memory_order_acquire);
  if (timeouts >= faults_.dead_after_timeouts && health != LinkHealth::kPeerDead) {
    dir.health.store(LinkHealth::kPeerDead, std::memory_order_release);
    peer_dead_events_.fetch_add(1, std::memory_order_relaxed);
    MACH_LOG(kDebug) << "net link " << dir.name << ": peer declared dead after " << timeouts
                     << " consecutive timeouts";
    return true;
  }
  if (timeouts >= faults_.degraded_after_timeouts && health == LinkHealth::kUp) {
    dir.health.store(LinkHealth::kDegraded, std::memory_order_release);
  }
  return false;
}

NetLink::LinkDirectionStatus NetLink::StatusOf(const Direction& dir) const {
  LinkDirectionStatus status;
  status.health = dir.health.load(std::memory_order_acquire);
  status.rto_ns = dir.rto_ns.load(std::memory_order_relaxed);
  status.consecutive_timeouts = dir.consecutive_timeouts.load(std::memory_order_relaxed);
  return status;
}

}  // namespace mach
