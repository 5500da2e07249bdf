#include "src/ipc/port.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <variant>

#include "src/base/log.h"
#include "src/ipc/ipc_faults.h"
#include "src/ipc/port_gc.h"

namespace mach {

namespace {
std::atomic<uint64_t> g_next_port_id{1};

// All death / no-senders notifications funnel through here so an armed
// ipc.notify point can hold them back. Delivery is best-effort and
// non-blocking either way, like real Mach notifications.
void DeliverNotification(SendRight to, Message msg) {
  if (!to) {
    return;
  }
  if (IpcFaultMaybeDeferNotification(to, msg)) {
    return;
  }
  MsgSend(to, std::move(msg), kPoll);
}
}  // namespace

// PortFactory exists so PortAllocate can reach Port's private constructor
// through std::shared_ptr without making the constructor public.
struct PortFactory {
  static std::shared_ptr<Port> Make(std::string label) {
    auto port = std::shared_ptr<Port>(new Port(std::move(label)));
    PortGc::Instance().Register(port.get(), port);
    return port;
  }
};

Port::Port(std::string label)
    : id_(g_next_port_id.fetch_add(1, std::memory_order_relaxed)), label_(std::move(label)) {}

Port::~Port() { PortGc::Instance().Unregister(this); }

KernReturn Port::Enqueue(Message&& msg, Timeout timeout, size_t extra_room, SendLocks locks) {
  if (IpcFaultShouldOverflowEnqueue()) {
    // Simulated queue overflow. The caller's message — rights and all — is
    // destroyed through the ordinary path, exactly like a genuine kPortFull.
    return KernReturn::kPortFull;
  }
  // Before taking mu_: dropping a carried receive right cascades into that
  // port's MarkDead, which may be this very port.
  IpcFaultMutateRights(&msg);
  // A kernel-owned port serves the message here, in the sender's thread. A
  // dead port falls through to the queue path, which reports kPortDead.
  if (kernel_object_ && !dead()) {
    if (std::optional<KernReturn> served = kernel_object_(*this, msg, timeout, locks)) {
      return *served;
    }
  }
  return Queue(std::move(msg), timeout, extra_room);
}

KernReturn Port::Queue(Message&& msg, Timeout timeout, size_t extra_room) {
  std::shared_ptr<PortSet> set_to_notify;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto full = [&] { return queue_.size() >= backlog_ + extra_room; };
    bool ok = WaitFor(send_cv_, lock, timeout, [&] { return dead_ || !full(); });
    if (dead_) {
      return KernReturn::kPortDead;
    }
    if (!ok) {
      return full() ? KernReturn::kPortFull : KernReturn::kTimedOut;
    }
    queue_.push_back(std::move(msg));
    set_to_notify = set_.lock();
  }
  // Wake after unlocking: a receiver woken under mu_ would only block on it.
  recv_cv_.notify_one();
  if (set_to_notify != nullptr) {
    set_to_notify->Notify();
  }
  return KernReturn::kSuccess;
}

Result<Message> Port::Dequeue(Timeout timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  bool ok = WaitFor(recv_cv_, lock, timeout, [this] { return dead_ || !queue_.empty(); });
  if (!queue_.empty()) {
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    send_cv_.notify_one();
    return msg;
  }
  if (dead_) {
    return KernReturn::kPortDead;
  }
  if (timeout.has_value() && *timeout == std::chrono::milliseconds::zero()) {
    return KernReturn::kNoMessage;  // Poll found the queue empty.
  }
  return ok ? KernReturn::kNoMessage : KernReturn::kTimedOut;
}

Result<Message> Port::TryDequeue() {
  std::lock_guard<std::mutex> g(mu_);
  if (!queue_.empty()) {
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    send_cv_.notify_one();
    return msg;
  }
  return dead_ ? KernReturn::kPortDead : KernReturn::kNoMessage;
}

PortStatus Port::Status() const {
  std::lock_guard<std::mutex> g(mu_);
  PortStatus st;
  st.num_msgs = queue_.size();
  st.backlog = backlog_;
  st.send_rights = send_refs_.load(std::memory_order_acquire);
  st.dead = dead_;
  st.enabled = !set_.expired();
  st.death_watches = death_watchers_.size();
  return st;
}

KernReturn Port::SetBacklog(size_t backlog) {
  if (backlog == 0) {
    return KernReturn::kInvalidArgument;
  }
  std::lock_guard<std::mutex> g(mu_);
  backlog_ = backlog;
  send_cv_.notify_all();
  return KernReturn::kSuccess;
}

void Port::RequestDeathNotification(SendRight notify_to) {
  bool already_dead = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (dead_) {
      already_dead = true;
    } else {
      death_watchers_.push_back(std::move(notify_to));
      return;
    }
  }
  if (already_dead && notify_to) {
    Message msg(kMsgIdPortDeath);
    msg.PushU64(id_);
    DeliverNotification(std::move(notify_to), std::move(msg));
  }
}

void Port::CancelDeathNotification(const SendRight& notify_to) {
  SendRight withdrawn;  // Dies outside mu_, like every right.
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = std::find_if(death_watchers_.begin(), death_watchers_.end(),
                           [&](const SendRight& w) { return w.port() == notify_to.port(); });
    if (it == death_watchers_.end()) {
      return;
    }
    withdrawn = std::move(*it);
    death_watchers_.erase(it);
  }
}

void Port::SetKernelObjectHandler(KernelObjectHandler handler) {
  kernel_object_ = [handler = std::move(handler)](Port& port, Message& msg, Timeout timeout,
                                                  SendLocks) { return handler(port, msg, timeout); };
}

void Port::SetInlineManagerHandler(InlineManagerHandler handler) {
  kernel_object_ = std::move(handler);
  inline_manager_ = true;
}

void Port::AddDeathAction(std::function<void(uint64_t)> action) {
  if (!action) {
    return;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!dead_) {
      death_actions_.push_back(std::move(action));
      return;
    }
  }
  action(id_);  // Already dead: fire synchronously, outside mu_.
}

void Port::RequestNoSendersNotification(SendRight notify_to) {
  bool fire_now = false;
  SendRight replaced;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (dead_) {
      replaced = std::move(notify_to);  // Death already superseded no-senders.
    } else if (send_refs_.load(std::memory_order_acquire) == 0) {
      fire_now = true;
      replaced = std::move(no_senders_notify_);
    } else {
      replaced = std::exchange(no_senders_notify_, std::move(notify_to));
    }
  }
  // `replaced` dies here, outside mu_: destroying a right re-enters its port.
  if (fire_now && notify_to) {
    Message msg(kMsgIdNoSenders);
    msg.PushU64(id_);
    DeliverNotification(std::move(notify_to), std::move(msg));
  }
}

bool Port::dead() const {
  std::lock_guard<std::mutex> g(mu_);
  return dead_;
}

void Port::AddSendRef() { send_refs_.fetch_add(1, std::memory_order_acq_rel); }

void Port::ReleaseSendRef() {
  if (send_refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // The count hit zero. Re-check under the lock — MakeSendRight may have
  // resurrected it concurrently; delivery is therefore at-least-once, and
  // receivers treat a stale notification as advisory.
  SendRight notify;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!dead_ && send_refs_.load(std::memory_order_acquire) == 0) {
      notify = std::move(no_senders_notify_);
    }
  }
  // Zero-send transitions are when in-queue cycles become collectable.
  PortGc::Instance().NoteZeroSenders();
  if (notify) {
    Message msg(kMsgIdNoSenders);
    msg.PushU64(id_);
    DeliverNotification(std::move(notify), std::move(msg));
  }
}

void Port::ForEachGcRef(const std::function<void(const Port*)>& fn) const {
  std::lock_guard<std::mutex> g(mu_);
  auto visit_send = [&fn](const SendRight& r) {
    if (r.port() != nullptr) {
      fn(r.port().get());
    }
  };
  for (const Message& m : queue_) {
    visit_send(m.reply_port());
    for (const MsgItem& item : m.items()) {
      if (const auto* port_item = std::get_if<PortItem>(&item)) {
        visit_send(port_item->right);
      } else if (const auto* recv_item = std::get_if<ReceiveItem>(&item)) {
        if (recv_item->right.port() != nullptr) {
          fn(recv_item->right.port().get());
        }
      }
      // OolItem is opaque to IPC; any port reachable through one counts as
      // an external root, which only ever errs toward retention.
    }
  }
  for (const SendRight& w : death_watchers_) {
    visit_send(w);
  }
  visit_send(no_senders_notify_);
}

void Port::MarkDead() {
  std::deque<Message> drained;
  std::vector<SendRight> watchers;
  std::vector<std::function<void(uint64_t)>> actions;
  SendRight no_senders;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (dead_) {
      return;
    }
    dead_ = true;
    drained.swap(queue_);
    watchers.swap(death_watchers_);
    actions.swap(death_actions_);
    no_senders = std::move(no_senders_notify_);
    recv_cv_.notify_all();
    send_cv_.notify_all();
  }
  // Destroy drained messages and fire notifications *outside* our lock:
  // message destruction may cascade into other ports' MarkDead, and a
  // queued message could even hold this port's own rights. Queued rights die
  // through their ordinary destructors, so *their* death / no-senders
  // notifications fire normally.
  drained.clear();
  for (SendRight& w : watchers) {
    Message msg(kMsgIdPortDeath);
    msg.PushU64(id_);
    // Best-effort: a full or dead notify port drops the notification.
    DeliverNotification(std::move(w), std::move(msg));
  }
  // Death actions run last: notification messages above are already queued,
  // so an action killing further ports cannot reorder ahead of them.
  for (auto& action : actions) {
    action(id_);
  }
  // `no_senders` is discarded unfired: death supersedes no-senders.
  MACH_LOG(kDebug) << "port " << id_ << " (" << label_ << ") died";
}

void Port::SetPortSet(std::shared_ptr<PortSet> set) {
  std::lock_guard<std::mutex> g(mu_);
  set_ = set;
}

// --- PortSet -----------------------------------------------------------

std::shared_ptr<PortSet> PortSet::Create() {
  return std::shared_ptr<PortSet>(new PortSet());
}

KernReturn PortSet::Add(const ReceiveRight& right) {
  if (!right.valid()) {
    return KernReturn::kInvalidCapability;
  }
  std::shared_ptr<Port> port = right.port();
  {
    std::lock_guard<std::mutex> g(mu_);
    if (std::find(members_.begin(), members_.end(), port) != members_.end()) {
      return KernReturn::kSuccess;  // Already enabled; idempotent.
    }
    members_.push_back(port);
  }
  port->SetPortSet(shared_from_this());
  Notify();  // It may already have queued messages.
  return KernReturn::kSuccess;
}

KernReturn PortSet::Remove(const ReceiveRight& right) {
  if (!right.valid()) {
    return KernReturn::kInvalidCapability;
  }
  std::shared_ptr<Port> port = right.port();
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = std::find(members_.begin(), members_.end(), port);
    if (it == members_.end()) {
      return KernReturn::kNotFound;
    }
    members_.erase(it);
  }
  port->SetPortSet(nullptr);
  return KernReturn::kSuccess;
}

Result<Message> PortSet::Receive(Timeout timeout) {
  Result<ReceivedMessage> r = ReceiveFrom(timeout);
  if (!r.ok()) {
    return r.status();
  }
  return std::move(std::move(r).value().message);
}

Result<PortSet::ReceivedMessage> PortSet::ReceiveFrom(Timeout timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Round-robin scan of members for a queued message.
    size_t n = members_.size();
    for (size_t i = 0; i < n; ++i) {
      size_t idx = (rotation_ + i) % n;
      std::shared_ptr<Port> port = members_[idx];
      Result<Message> msg = port->TryDequeue();
      if (msg.ok()) {
        rotation_ = (idx + 1) % n;
        return ReceivedMessage{std::move(msg).value(), port->id()};
      }
      if (msg.status() == KernReturn::kPortDead) {
        // Dead member: drop it from the set.
        members_.erase(members_.begin() + static_cast<long>(idx));
        n = members_.size();
        if (n == 0) {
          break;
        }
        --i;
      }
    }
    if (timeout.has_value() && *timeout == std::chrono::milliseconds::zero()) {
      return KernReturn::kNoMessage;
    }
    // Wait for an enqueue notification, then rescan.
    if (!timeout.has_value()) {
      cv_.wait(lock);
    } else if (cv_.wait_for(lock, *timeout) == std::cv_status::timeout) {
      return KernReturn::kTimedOut;
    }
  }
}

bool PortSet::WaitForMessage(Timeout timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [this] {
    return std::any_of(members_.begin(), members_.end(),
                       [](const std::shared_ptr<Port>& port) { return port->Status().num_msgs > 0; });
  };
  if (!timeout.has_value()) {
    cv_.wait(lock, ready);
    return true;
  }
  return cv_.wait_for(lock, *timeout, ready);
}

std::vector<uint64_t> PortSet::PortsWithMessages() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<uint64_t> ids;
  for (const auto& port : members_) {
    if (port->Status().num_msgs > 0) {
      ids.push_back(port->id());
    }
  }
  return ids;
}

size_t PortSet::member_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return members_.size();
}

void PortSet::Notify() {
  // Taking and dropping mu_ orders this wakeup after any receiver's scan in
  // progress: that receiver is then already waiting on cv_, so the wakeup
  // cannot be lost. Notifying after the unlock keeps the woken receiver
  // from blocking on mu_ straight away.
  { std::lock_guard<std::mutex> g(mu_); }
  cv_.notify_all();
}

// --- free functions ------------------------------------------------------

PortPair PortAllocate(std::string label) {
  std::shared_ptr<Port> port = PortFactory::Make(std::move(label));
  PortPair pair{ReceiveRight(port), SendRight(port)};
  PortGc::Instance().MaybeCollectOnAllocate();
  return pair;
}

KernReturn MsgSend(const SendRight& dest, Message&& msg, Timeout timeout, SendLocks locks) {
  if (!dest.valid()) {
    return KernReturn::kInvalidCapability;
  }
  return dest.port()->Enqueue(std::move(msg), timeout, 0, locks);
}

Result<Message> MsgReceive(ReceiveRight& from, Timeout timeout) {
  if (!from.valid()) {
    return KernReturn::kInvalidCapability;
  }
  return from.port()->Dequeue(timeout);
}

Result<Message> MsgRpc(const SendRight& dest, Message&& request, Timeout send_timeout,
                       Timeout receive_timeout) {
  PortPair reply = PortAllocate("rpc-reply");
  request.set_reply_port(reply.send);
  KernReturn kr = MsgSend(dest, std::move(request), send_timeout);
  if (!IsOk(kr)) {
    return kr;
  }
  return MsgReceive(reply.receive, receive_timeout);
}

// --- rights ------------------------------------------------------------

SendRight::SendRight(std::shared_ptr<Port> port) : port_(std::move(port)) {
  if (port_ != nullptr) {
    port_->AddSendRef();
  }
}

SendRight::SendRight(const SendRight& o) : port_(o.port_) {
  if (port_ != nullptr) {
    port_->AddSendRef();
  }
}

SendRight& SendRight::operator=(const SendRight& o) {
  if (this != &o) {
    // Acquire before releasing so a self-port assignment never dips to zero.
    std::shared_ptr<Port> old = std::move(port_);
    port_ = o.port_;
    if (port_ != nullptr) {
      port_->AddSendRef();
    }
    if (old != nullptr) {
      old->ReleaseSendRef();
    }
  }
  return *this;
}

SendRight& SendRight::operator=(SendRight&& o) noexcept {
  if (this != &o) {
    std::shared_ptr<Port> old = std::move(port_);
    port_ = std::move(o.port_);
    if (old != nullptr) {
      old->ReleaseSendRef();
    }
  }
  return *this;
}

SendRight::~SendRight() {
  if (port_ != nullptr) {
    port_->ReleaseSendRef();
  }
}

uint64_t SendRight::id() const { return port_ ? port_->id() : 0; }
std::string SendRight::label() const { return port_ ? port_->label() : std::string(); }
bool SendRight::IsDead() const { return port_ == nullptr || port_->dead(); }

ReceiveRight::~ReceiveRight() {
  if (port_ != nullptr) {
    port_->MarkDead();
  }
}

ReceiveRight& ReceiveRight::operator=(ReceiveRight&& o) noexcept {
  if (this != &o) {
    if (port_ != nullptr) {
      port_->MarkDead();
    }
    port_ = std::move(o.port_);
  }
  return *this;
}

uint64_t ReceiveRight::id() const { return port_ ? port_->id() : 0; }
std::string ReceiveRight::label() const { return port_ ? port_->label() : std::string(); }

SendRight ReceiveRight::MakeSendRight() const { return SendRight(port_); }

void ReceiveRight::Destroy() {
  if (port_ != nullptr) {
    port_->MarkDead();
    port_.reset();
  }
}

}  // namespace mach
