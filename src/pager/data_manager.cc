#include "src/pager/data_manager.h"

#include <algorithm>

#include "src/base/log.h"

namespace mach {

thread_local const DataManager::ManagerThread* DataManager::ManagerThread::top_ = nullptr;

DataManager::ManagerThread::ManagerThread(const DataManager& manager)
    : gate_(manager.gate_.get()), up_(top_) {
  top_ = this;
}

bool DataManager::ManagerThread::Running(const Gate* gate) {
  for (const ManagerThread* t = top_; t != nullptr; t = t->up_) {
    if (t->gate_ == gate) {
      return true;
    }
  }
  return false;
}

DataManager::DataManager(std::string name, Upcalls upcalls)
    : name_(std::move(name)), upcalls_(upcalls) {
  PortPair notify = PortAllocate(name_ + "-notify");
  notify_receive_ = std::move(notify.receive);
  notify_send_ = notify.send;
  notify_receive_.port()->SetBacklog(1024);
  set_->Add(notify_receive_);
}

DataManager::~DataManager() { Stop(); }

void DataManager::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return;
  }
  {
    std::lock_guard<std::mutex> g(gate_->dispatch);
    gate_->manager = this;
  }
  thread_ = std::thread([this] { ServiceLoop(); });
}

void DataManager::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> g(gate_->dispatch);  // The inline upcall in flight ends first.
    gate_->manager = nullptr;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

SendRight DataManager::CreateMemoryObject(uint64_t cookie, const std::string& label) {
  PortPair pair = PortAllocate(name_ + "-" + label);
  // Generous backlog: the kernel's pageout path uses non-blocking sends and
  // diverts to the default pager when a manager's queue is full (§6.2.2).
  pair.receive.port()->SetBacklog(256);
  // Learn when the last client/kernel send right disappears; `send` below
  // keeps the count above zero, so this can't fire before we return.
  pair.receive.port()->RequestNoSendersNotification(notify_send_);
  if (upcalls_ == Upcalls::kNeverWait) {
    pair.receive.port()->SetInlineManagerHandler(
        [gate = gate_](Port& port, Message& msg, Timeout,
                       SendLocks locks) -> std::optional<KernReturn> {
          // An upcall calls back into the sender's kernel (ProvideData) and
          // takes its object locks, so only a sender that holds none may
          // run it; every other send queues, as does a call from a thread
          // already running this manager.
          if (locks != SendLocks::kNone || ManagerThread::Running(gate.get())) {
            return std::nullopt;
          }
          std::lock_guard<std::mutex> g(gate->dispatch);
          if (gate->manager == nullptr) {
            return std::nullopt;  // Stopped: queued, and answered per pager_timeout.
          }
          ManagerThread self(*gate->manager);
          // Whatever the port received before goes first: a write back
          // before the re-request of its page, pager_init before any request.
          for (Result<Message> queued = port.TryDequeue(); queued.ok();
               queued = port.TryDequeue()) {
            gate->manager->Dispatch(port.id(), std::move(queued).value());
          }
          gate->manager->Dispatch(port.id(), std::move(msg));
          return KernReturn::kSuccess;
        });
  }
  SendRight send = pair.send;
  {
    std::lock_guard<std::mutex> g(mu_);
    ObjectState st;
    st.cookie = cookie;
    st.receive = std::move(pair.receive);
    set_->Add(st.receive);
    objects_.emplace(send.id(), std::move(st));
  }
  return send;
}

void DataManager::DestroyMemoryObject(const SendRight& memory_object) {
  ReleaseMemoryObject(memory_object.id());
}

void DataManager::ReleaseMemoryObject(uint64_t object_port_id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = objects_.find(object_port_id);
  if (it == objects_.end()) {
    return;
  }
  set_->Remove(it->second.receive);
  objects_.erase(it);  // ReceiveRight destructor marks the port dead.
}

SendRight DataManager::AllocateServicePort(const std::string& label) {
  PortPair pair = PortAllocate(name_ + "-" + label);
  pair.receive.port()->SetBacklog(1024);
  SendRight send = pair.send;
  std::lock_guard<std::mutex> g(mu_);
  set_->Add(pair.receive);
  service_ports_.push_back(std::move(pair.receive));
  return send;
}

size_t DataManager::memory_object_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return objects_.size();
}

void DataManager::RecordPageSize(uint64_t object_port_id, VmSize page_size) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = objects_.find(object_port_id);
  if (it != objects_.end()) {
    it->second.page_size = page_size;
  }
}

VmSize DataManager::LookupPageSize(uint64_t object_port_id) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = objects_.find(object_port_id);
  return it != objects_.end() ? it->second.page_size : 0;
}

bool DataManager::LookupCookie(uint64_t object_port_id, uint64_t* cookie_out) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = objects_.find(object_port_id);
  if (it == objects_.end()) {
    return false;
  }
  *cookie_out = it->second.cookie;
  return true;
}

void DataManager::ServiceLoop() {
  ManagerThread self(*this);
  // A message is taken only under the dispatch lock, which an inline upcall
  // holds while it drains its port: one taken but not yet dispatched could
  // be overtaken by a later one on its port. A manager with no inline
  // upcalls receives under the lock; one with them waits outside it without
  // dequeuing, then polls under it.
  const bool inline_upcalls = upcalls_ == Upcalls::kNeverWait;
  const Timeout receive = inline_upcalls ? kPoll : Timeout(std::chrono::milliseconds(20));
  while (running_.load(std::memory_order_relaxed)) {
    const bool ready = !inline_upcalls || set_->WaitForMessage(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> g(gate_->dispatch);
    Result<PortSet::ReceivedMessage> got =
        ready ? set_->ReceiveFrom(receive) : Result<PortSet::ReceivedMessage>(KernReturn::kTimedOut);
    if (got.ok()) {
      Dispatch(got.value().port_id, std::move(got.value().message));
    }
    OnServiceTick(got.ok());
  }
}

void DataManager::Dispatch(uint64_t port_id, Message&& msg) {
  uint64_t cookie = 0;
  LookupCookie(port_id, &cookie);
  switch (msg.id()) {
    case kMsgPagerInit: {
      Result<PagerInitArgs> args = DecodePagerInit(msg);
      if (args.ok()) {
        // Watch the request port so the manager learns when the kernel
        // relinquishes the object (§4.1 port_death).
        if (args.value().pager_request_port.valid()) {
          args.value().pager_request_port.port()->RequestDeathNotification(notify_send_);
        }
        RecordPageSize(port_id, args.value().page_size);
        OnInit(port_id, cookie, std::move(args).value());
      }
      break;
    }
    case kMsgPagerDataRequest: {
      Result<PagerDataRequestArgs> args =
          DecodePagerDataRequest(msg, LookupPageSize(port_id));
      if (args.ok()) {
        OnDataRequest(port_id, cookie, std::move(args).value());
      } else if (args.status() == KernReturn::kProtocolViolation) {
        protocol_rejects_.fetch_add(1, std::memory_order_relaxed);
        MACH_LOG(kWarn) << name_ << ": rejected malformed pager_data_request ("
                        << KernReturnName(args.status()) << ") on port " << port_id;
      }
      break;
    }
    case kMsgPagerDataWrite: {
      Result<PagerDataWriteArgs> args = DecodePagerDataWrite(msg);
      if (args.ok()) {
        OnDataWrite(port_id, cookie, std::move(args).value());
      }
      break;
    }
    case kMsgPagerDataUnlock: {
      Result<PagerDataUnlockArgs> args = DecodePagerDataUnlock(msg);
      if (args.ok()) {
        OnDataUnlock(port_id, cookie, std::move(args).value());
      }
      break;
    }
    case kMsgPagerLockCompleted: {
      Result<PagerLockCompletedArgs> args = DecodePagerLockCompleted(msg);
      if (args.ok()) {
        OnLockCompleted(port_id, cookie, std::move(args).value());
      }
      break;
    }
    case kMsgPagerCreate: {
      Result<PagerCreateArgs> args = DecodePagerCreate(msg);
      if (args.ok()) {
        // Adopt the new memory object: its receive right joins our set.
        uint64_t adopted_id = args.value().new_memory_object.id();
        {
          std::lock_guard<std::mutex> g(mu_);
          ObjectState st;
          st.receive = std::move(args.value().new_memory_object);
          // The kernel kept a send right when it created the object, so the
          // count is nonzero here; when the kernel terminates the object
          // the manager hears about it and can reclaim backing storage.
          st.receive.port()->RequestNoSendersNotification(notify_send_);
          st.page_size = args.value().page_size;
          set_->Add(st.receive);
          objects_.emplace(adopted_id, std::move(st));
        }
        if (args.value().new_request_port.valid()) {
          args.value().new_request_port.port()->RequestDeathNotification(notify_send_);
        }
        OnCreate(adopted_id, std::move(args).value());
      }
      break;
    }
    case kMsgIdPortDeath: {
      // Trust the dedicated notify port only: any client holding a send
      // right to an object port could forge this message id (§6).
      if (port_id != notify_receive_.id()) {
        MACH_LOG(kWarn) << name_ << ": ignoring forged death notification on port " << port_id;
        break;
      }
      Result<uint64_t> dead = msg.TakeU64();
      if (dead.ok()) {
        OnPortDeath(dead.value());
      }
      break;
    }
    case kMsgIdNoSenders: {
      if (port_id != notify_receive_.id()) {
        MACH_LOG(kWarn) << name_ << ": ignoring forged no-senders notification on port "
                        << port_id;
        break;
      }
      Result<uint64_t> senderless = msg.TakeU64();
      if (senderless.ok()) {
        uint64_t object_cookie = 0;
        LookupCookie(senderless.value(), &object_cookie);
        OnNoSenders(senderless.value(), object_cookie);
      }
      break;
    }
    default: {
      const MsgId id = msg.id();
      if (!OnMessage(port_id, std::move(msg))) {
        MACH_LOG(kWarn) << name_ << ": unknown message id " << id;
      }
      break;
    }
  }
}

// --- Table 3-6 helpers -------------------------------------------------------

KernReturn DataManager::ProvideData(const SendRight& request_port, VmOffset offset,
                                    std::vector<std::byte> data, VmProt lock_value) {
  PagerDataProvidedArgs args;
  args.offset = offset;
  args.data = std::move(data);
  args.lock_value = lock_value;
  return MsgSend(request_port, EncodePagerDataProvided(std::move(args)),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::DataUnavailable(const SendRight& request_port, VmOffset offset,
                                        VmSize size) {
  return MsgSend(request_port, EncodePagerDataUnavailable(PagerDataUnavailableArgs{offset, size}),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::LockData(const SendRight& request_port, VmOffset offset, VmSize length,
                                 VmProt lock_value) {
  return MsgSend(request_port, EncodePagerDataLock(PagerDataLockArgs{offset, length, lock_value}),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::FlushRequest(const SendRight& request_port, VmOffset offset,
                                     VmSize length) {
  return MsgSend(request_port, EncodePagerFlushRequest(PagerRangeArgs{offset, length}),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::CleanRequest(const SendRight& request_port, VmOffset offset,
                                     VmSize length) {
  return MsgSend(request_port, EncodePagerCleanRequest(PagerRangeArgs{offset, length}),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::SetCaching(const SendRight& request_port, bool may_cache) {
  return MsgSend(request_port, EncodePagerCache(PagerCacheArgs{may_cache}),
                 std::chrono::milliseconds(2000));
}

KernReturn DataManager::DowngradeToRead(const SendRight& request_port, VmOffset offset,
                                        VmSize length) {
  KernReturn kr = CleanRequest(request_port, offset, length);
  if (kr != KernReturn::kSuccess) {
    return kr;
  }
  // FIFO on the request port: the kernel cleans (writes back dirty data)
  // before it sees the write lock, so no dirty byte is stranded behind it.
  return LockData(request_port, offset, length, kVmProtWrite);
}

// --- PagerRunBuilder ---------------------------------------------------------

void PagerRunBuilder::AddData(VmOffset offset, std::vector<std::byte> page,
                              VmProt lock_value) {
  if (pending_ == Pending::kData && offset == start_ + data_.size() &&
      lock_value == lock_value_) {
    data_.insert(data_.end(), page.begin(), page.end());
    return;
  }
  Flush();
  pending_ = Pending::kData;
  start_ = offset;
  data_ = std::move(page);
  lock_value_ = lock_value;
}

void PagerRunBuilder::AddUnavailable(VmOffset offset, VmSize size) {
  if (pending_ == Pending::kUnavailable && offset == start_ + unavail_size_) {
    unavail_size_ += size;
    return;
  }
  Flush();
  pending_ = Pending::kUnavailable;
  start_ = offset;
  unavail_size_ = size;
}

KernReturn PagerRunBuilder::Flush() {
  KernReturn kr = KernReturn::kSuccess;
  switch (pending_) {
    case Pending::kNone:
      break;
    case Pending::kData:
      kr = DataManager::ProvideData(request_port_, start_, std::move(data_),
                                    lock_value_);
      data_.clear();
      ++messages_sent_;
      break;
    case Pending::kUnavailable:
      kr = DataManager::DataUnavailable(request_port_, start_, unavail_size_);
      unavail_size_ = 0;
      ++messages_sent_;
      break;
  }
  pending_ = Pending::kNone;
  if (first_error_ == KernReturn::kSuccess && kr != KernReturn::kSuccess) {
    first_error_ = kr;
  }
  return first_error_;
}

}  // namespace mach
