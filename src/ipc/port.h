// Ports (§3.2): a port is a finite-length queue for messages protected by
// the kernel. Any number of senders, exactly one receiver. Ports may be
// grouped into a PortSet (the "default group of ports" that port_enable /
// port_disable manage) and received from as a group.
//
// Every port counts its live send rights — including copies riding inside
// queued messages — and fires a one-shot kMsgIdNoSenders notification when
// the count reaches zero (RequestNoSendersNotification). Rights that only
// reference each other across port queues are reclaimed by PortGc
// (port_gc.h). Enqueue/notification paths consult the process-wide IPC fault
// injector (ipc_faults.h) when one is armed.
//
// Kernel-owned ports: a port may carry a kernel-object handler
// (SetKernelObjectHandler), which Enqueue offers each message to in the
// sender's thread — the way Mach's kernel serves messages sent to its own
// ports instead of queueing them for a thread of its own. Every port a
// kernel receives on is served this way: task and thread ports, pager
// request ports and the VM's death-notify port, so no kernel thread
// receives messages. A handler runs under whatever locks its sender
// holds; one that a kernel's own sends can reach (the death-notify port's)
// takes only leaf locks. NetLink proxies use the same hook to forward in
// the sender's thread. A trusted data manager serves its memory-object
// ports the same way (SetInlineManagerHandler), but only for a send that
// says it holds no lock (SendLocks::kNone): a fault's page-in and unlock
// requests and a reclaim's pageout, which call back into their kernel.
//
// Lock order: PortSet::mu_ > Port::mu_. A port reaches the kernel layer only
// through a kernel-object handler, which runs with no port lock held, so
// port locks sit at the bottom of the VM lock order (tier 7 in
// vm_system.h): kernels may hold map/object/queue locks while using ports,
// but blocking receives while holding any VM lock are forbidden — the VM
// layer drops its locks around waits. Receivers are woken after the lock
// they must take is released. Rights are never destroyed while their own
// port's mu_ is held (destruction re-enters the port).

#ifndef SRC_IPC_PORT_H_
#define SRC_IPC_PORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/sync.h"
#include "src/ipc/message.h"
#include "src/ipc/port_right.h"

namespace mach {

class PortSet;
class PortGc;

// Message id delivered by a death notification (see
// RequestDeathNotification). Body: one u64 item = the dead port's id.
inline constexpr MsgId kMsgIdPortDeath = 0xDEAD0001;

// Message id delivered by a no-senders notification (see
// RequestNoSendersNotification). Body: one u64 item = the senderless port's
// id. The port itself is still alive — its receiver decides what to do.
inline constexpr MsgId kMsgIdNoSenders = 0xDEAD0002;

// Default queue backlog (Mach's PORT_BACKLOG_DEFAULT).
inline constexpr size_t kDefaultBacklog = 32;

class Port;

// What a sender says about the locks it holds. kNone: none at all, so a
// handler may run code that calls back into the sender's kernel and takes
// its locks. Only the VM's lock-free sends say so; every other send,
// NetLink's deliveries included, is kMayHold.
enum class SendLocks { kMayHold, kNone };

// Serves messages sent to a kernel-owned port in the sender's thread (see
// Port::SetKernelObjectHandler), given the sender's timeout. Returns the
// send's status once it has taken `msg`, or nullopt to leave `msg`
// untouched, to be queued as usual.
using KernelObjectHandler =
    std::function<std::optional<KernReturn>(Port& port, Message& msg, Timeout timeout)>;
// The same, also told the sender's SendLocks (Port::SetInlineManagerHandler).
using InlineManagerHandler = std::function<std::optional<KernReturn>(
    Port& port, Message& msg, Timeout timeout, SendLocks locks)>;

// Snapshot of a port's state (port_status, Table 3-2).
struct PortStatus {
  size_t num_msgs = 0;
  size_t backlog = 0;
  size_t send_rights = 0;
  bool dead = false;
  bool enabled = false;  // Member of a port set.
  size_t death_watches = 0;  // RequestDeathNotification registrations.
};

class Port : public std::enable_shared_from_this<Port> {
 public:
  ~Port();

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  // --- primitive operations (used via the free functions below) -------

  // Enqueues a message; blocks (up to `timeout`) while the backlog is full.
  // `extra_room` lets the queue hold that many messages past its backlog:
  // a transport that must not wait (NetLink) passes its own proxy backlog,
  // so a full target takes what the proxy would have held. `locks` is
  // passed to the kernel-object handler. On failure `msg` is left to the
  // caller.
  KernReturn Enqueue(Message&& msg, Timeout timeout, size_t extra_room = 0,
                     SendLocks locks = SendLocks::kMayHold);

  // Dequeues the next message; blocks (up to `timeout`) while empty.
  // Fails with kPortDead once the port is destroyed *and* drained.
  Result<Message> Dequeue(Timeout timeout);

  // Non-blocking variant used by PortSet scanning.
  Result<Message> TryDequeue();

  PortStatus Status() const;
  KernReturn SetBacklog(size_t backlog);

  // Registers `notify_to` to receive a kMsgIdPortDeath message when this
  // port is destroyed.
  void RequestDeathNotification(SendRight notify_to);
  // Withdraws one registration of `notify_to`'s port, if any.
  void CancelDeathNotification(const SendRight& notify_to);

  // Registers a callback invoked exactly once when this port dies, after
  // its queue is drained and its death-notification messages are sent. Runs
  // on the thread that kills the port, outside all port locks — it may take
  // its own locks and kill other ports (transports use this to propagate
  // death across a link eagerly), but must not block. Fires immediately if
  // the port is already dead. Actions must not own port rights: PortGc
  // cannot see into them.
  void AddDeathAction(std::function<void(uint64_t dead_port_id)> action);

  // Registers `notify_to` to receive a one-shot kMsgIdNoSenders message
  // when the port's send-right count drops to zero (fires immediately if it
  // already is zero). A later MakeSendRight re-arms nothing by itself; the
  // receiver re-registers if it wants another notification. Replaces any
  // previously registered notify right. Port death cancels the
  // registration: death notifications supersede no-senders.
  void RequestNoSendersNotification(SendRight notify_to);

  // Makes this a kernel-owned port: Enqueue offers every message to
  // `handler` in the sending thread, after the ipc.enqueue and
  // ipc.right_transfer fault points and the dead check, with no port lock
  // held; a declined message is queued as usual. Install once, before any
  // send right to the port leaves its creator — the handler is read without
  // a lock and never replaced.
  void SetKernelObjectHandler(KernelObjectHandler handler);
  // Makes this a memory-object port served by its trusted data manager in
  // the sending thread (DataManager::Upcalls::kNeverWait): like
  // SetKernelObjectHandler, but the handler is also told the sender's
  // SendLocks. Marks the port inline_manager(), so the kernel sends its
  // reclaim pageouts with the object lock dropped. Install once, before
  // any send right to the port leaves its creator.
  void SetInlineManagerHandler(InlineManagerHandler handler);
  bool inline_manager() const { return inline_manager_; }

  // Current number of live send rights naming this port (counted across
  // tasks and in-queue messages alike).
  uint64_t send_right_count() const { return send_refs_.load(std::memory_order_acquire); }

  bool dead() const;

 private:
  friend class SendRight;
  friend class ReceiveRight;
  friend class PortSet;
  friend class PortGc;
  friend struct PortFactory;

  explicit Port(std::string label);

  // The queue half of Enqueue: no fault points, no kernel-object handler.
  KernReturn Queue(Message&& msg, Timeout timeout, size_t extra_room);

  // Destroys the port: fails senders/receivers, drains the queue, fires
  // death notifications. Idempotent.
  void MarkDead();

  // Send-right accounting (called by SendRight's special members).
  void AddSendRef();
  void ReleaseSendRef();

  // Enumerates every port this port holds a reference to internally: rights
  // inside queued messages, queued reply ports, death watchers, and the
  // no-senders notify right. Used by PortGc's mark phase. Holds mu_ while
  // `fn` runs; `fn` must not touch any port.
  void ForEachGcRef(const std::function<void(const Port*)>& fn) const;

  void SetPortSet(std::shared_ptr<PortSet> set);

  const uint64_t id_;
  const std::string label_;

  std::atomic<uint64_t> send_refs_{0};

  mutable std::mutex mu_;
  std::condition_variable recv_cv_;
  std::condition_variable send_cv_;
  std::deque<Message> queue_;
  size_t backlog_ = kDefaultBacklog;
  bool dead_ = false;
  std::weak_ptr<PortSet> set_;
  std::vector<SendRight> death_watchers_;
  std::vector<std::function<void(uint64_t)>> death_actions_;
  SendRight no_senders_notify_;
  InlineManagerHandler kernel_object_;  // Immutable once a send right escapes.
  bool inline_manager_ = false;         // Likewise.
};

// A group of enabled ports receivable as one (§3.2 "default group of ports
// for msg_receive"). Receive rights stay with the owner; the set only scans.
class PortSet : public std::enable_shared_from_this<PortSet> {
 public:
  static std::shared_ptr<PortSet> Create();

  // port_enable: adds the port to this set.
  KernReturn Add(const ReceiveRight& right);
  // port_disable: removes it.
  KernReturn Remove(const ReceiveRight& right);

  // Receives the next message queued on any member port. Round-robin across
  // members to avoid starvation. Returns kTimedOut / kNoMessage like
  // Port::Dequeue.
  Result<Message> Receive(Timeout timeout);

  // Like Receive but also reports which port the message arrived on.
  struct ReceivedMessage {
    Message message;
    uint64_t port_id;
  };
  Result<ReceivedMessage> ReceiveFrom(Timeout timeout);

  // Waits (up to `timeout`) until a member port holds a message, and takes
  // none: a receiver that may dequeue only under a lock of its own then
  // polls with ReceiveFrom(kPoll) under it. False on timeout.
  bool WaitForMessage(Timeout timeout);

  // port_messages (Table 3-2): ids of enabled ports with queued messages.
  std::vector<uint64_t> PortsWithMessages() const;

  size_t member_count() const;

 private:
  friend class Port;
  PortSet() = default;

  void Notify();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Port>> members_;
  size_t rotation_ = 0;
};

// --- Table 3-1 / 3-2 primitive operations ------------------------------

struct PortPair {
  ReceiveRight receive;
  SendRight send;
};

// port_allocate: creates a new port, returning both rights.
PortPair PortAllocate(std::string label = "");

// msg_send(message, option, timeout).
KernReturn MsgSend(const SendRight& dest, Message&& msg, Timeout timeout = kWaitForever,
                   SendLocks locks = SendLocks::kMayHold);

// msg_receive(message, option, timeout).
Result<Message> MsgReceive(ReceiveRight& from, Timeout timeout = kWaitForever);

// msg_rpc(message, option, rcv_size, send_timeout, receive_timeout):
// sends `request` with a freshly allocated one-shot reply port and waits for
// the reply on it.
Result<Message> MsgRpc(const SendRight& dest, Message&& request,
                       Timeout send_timeout = kWaitForever,
                       Timeout receive_timeout = kWaitForever);

}  // namespace mach

#endif  // SRC_IPC_PORT_H_
