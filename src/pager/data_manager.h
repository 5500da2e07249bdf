// DataManager: the user-level side of the external memory management
// interface — the framework a "pager" task is built on (§3.4, §4).
//
// A data manager owns the receive rights of its memory object ports. Its
// service loop receives the kernel → manager calls of Table 3-5 on those
// ports (and pager_create on an optional service port), decodes them, and
// invokes the On* virtual methods. Helpers are provided for the manager →
// kernel calls of Table 3-6, which are sent to the pager request port the
// kernel supplied in pager_init.
//
// All On* upcalls run on the manager's service thread, one at a time — the
// single-threaded data manager of §4.1. A manager needing concurrency (e.g.
// to avoid self-deadlock per §6.1) can spawn work from the upcalls.

#ifndef SRC_PAGER_DATA_MANAGER_H_
#define SRC_PAGER_DATA_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/vm_types.h"
#include "src/ipc/port.h"
#include "src/pager/protocol.h"

namespace mach {

class DataManager {
 public:
  explicit DataManager(std::string name);
  virtual ~DataManager();

  DataManager(const DataManager&) = delete;
  DataManager& operator=(const DataManager&) = delete;

  const std::string& name() const { return name_; }

  // Starts / stops the service thread. Stop() joins; safe to call twice.
  void Start();
  void Stop();

  // Creates a new memory object managed by this data manager and returns a
  // send right to it (the capability handed to clients for
  // vm_allocate_with_pager). `cookie` is an arbitrary manager-side tag
  // returned with every upcall for this object.
  SendRight CreateMemoryObject(uint64_t cookie, const std::string& label = "memory-object");

  // Destroys a memory object port (the manager's receive right). Kernels
  // holding send rights observe port death.
  void DestroyMemoryObject(const SendRight& memory_object);

  // Allocates a service port (used by the default pager to accept
  // pager_create). Messages on it are routed to OnCreate.
  SendRight AllocateServicePort(const std::string& label = "pager-service");

  // Manager-side cookie lookup (by memory object port id).
  bool LookupCookie(uint64_t object_port_id, uint64_t* cookie_out) const;

  // Number of memory objects (created + adopted) whose receive rights this
  // manager currently holds. Observability hook for reclamation tests.
  size_t memory_object_count() const;

  // pager_data_request messages dropped by the wire validator (zero length,
  // non-page-multiple, or beyond kPagerMaxRunPages).
  uint64_t protocol_rejects() const {
    return protocol_rejects_.load(std::memory_order_relaxed);
  }

  // --- Table 3-6 helpers (manager -> kernel, all asynchronous) ----------
  // No reply is awaited. The kernel applies the call in the caller's thread
  // before the send returns, behind a NetLink proxy too.

  static KernReturn ProvideData(const SendRight& request_port, VmOffset offset,
                                std::vector<std::byte> data, VmProt lock_value);
  static KernReturn DataUnavailable(const SendRight& request_port, VmOffset offset, VmSize size);
  static KernReturn LockData(const SendRight& request_port, VmOffset offset, VmSize length,
                             VmProt lock_value);
  static KernReturn FlushRequest(const SendRight& request_port, VmOffset offset, VmSize length);
  static KernReturn CleanRequest(const SendRight& request_port, VmOffset offset, VmSize length);
  static KernReturn SetCaching(const SendRight& request_port, bool may_cache);
  // Demote a writer to reader: clean (write back dirty, keep the copy) then
  // re-lock the kept copy against writes. Used by the shm directory's
  // downgrade-on-read path.
  static KernReturn DowngradeToRead(const SendRight& request_port, VmOffset offset, VmSize length);

 protected:
  // --- Table 3-5 upcalls (kernel -> manager) ----------------------------
  // `object_port_id` identifies the memory object; `cookie` is the tag given
  // at CreateMemoryObject (0 for adopted pager_create objects).

  virtual void OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) {}
  virtual void OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                             PagerDataRequestArgs args) = 0;
  virtual void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) {}
  virtual void OnDataUnlock(uint64_t object_port_id, uint64_t cookie,
                            PagerDataUnlockArgs args) {}
  // A kernel finished processing a flush/clean request. Dirty data (if any)
  // was written back before this on the same port, so a completion with no
  // preceding data_write means the kernel's copy was clean.
  virtual void OnLockCompleted(uint64_t object_port_id, uint64_t cookie,
                               PagerLockCompletedArgs args) {}
  // pager_create (default pager only): `adopted_port_id` is the id of the
  // newly adopted memory object port.
  virtual void OnCreate(uint64_t adopted_port_id, PagerCreateArgs args) {}
  // A port the kernel held died — for a pager request port this means all
  // references to the object are gone and shutdown may proceed (§3.4.1).
  virtual void OnPortDeath(uint64_t port_id) {}
  // The last send right to one of this manager's memory object ports died:
  // no kernel or client can ever page against the object again. Delivery is
  // at-least-once and advisory (a new send right may have been minted
  // since); a manager that wants the object gone calls
  // ReleaseMemoryObject(). Default: keep the object (a manager may hand out
  // fresh rights later, e.g. a file pager re-mapping a cached file).
  virtual void OnNoSenders(uint64_t object_port_id, uint64_t cookie) {}
  // Called on the service thread after each message (or receive timeout);
  // managers use it for deadline/maintenance work.
  virtual void OnIdle() {}
  // Called once per service pass with whether the pass delivered a message.
  // Managers running on virtual time (the shm directory) override this to
  // advance their clock only on idle passes — a deadline then cannot expire
  // while work is still queued. Default preserves the per-pass OnIdle.
  virtual void OnServiceTick(bool serviced) { OnIdle(); }
  // Non-pager messages (e.g. the shm broker's control protocol) land here.
  // Return true if handled; false logs the unknown-message warning.
  virtual bool OnMessage(uint64_t port_id, Message&& msg) { return false; }

  // Drops the manager's receive right for `object_port_id` (the port dies;
  // remaining senders observe kPortDead). The usual response to OnNoSenders
  // for objects nobody will map again.
  void ReleaseMemoryObject(uint64_t object_port_id);

 private:
  struct ObjectState {
    ReceiveRight receive;
    uint64_t cookie = 0;
    // Learned from pager_init / pager_create; 0 until then. Lets the
    // dispatcher validate a data request's length against the real page
    // size instead of trusting the wire.
    VmSize page_size = 0;
  };

  void ServiceLoop();
  void Dispatch(uint64_t port_id, Message&& msg);
  void RecordPageSize(uint64_t object_port_id, VmSize page_size);
  VmSize LookupPageSize(uint64_t object_port_id) const;

  const std::string name_;
  mutable std::mutex mu_;
  std::shared_ptr<PortSet> set_ = PortSet::Create();
  std::unordered_map<uint64_t, ObjectState> objects_;  // by port id
  // Death and no-senders notifications arrive here — and only here: both
  // are trusted solely when they arrive on this port, since any sender
  // could forge the same message ids on an object port (§6).
  ReceiveRight notify_receive_;
  SendRight notify_send_;
  std::vector<ReceiveRight> service_ports_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> protocol_rejects_{0};
};

// Coalesces a manager's per-page answers to one (possibly multi-page)
// pager_data_request into the minimal number of manager → kernel messages:
// contiguous provided pages sharing one lock_value collapse into a single
// multi-page pager_data_provided, contiguous unavailable offsets into a
// single pager_data_unavailable. A gap, a lock change, or switching between
// the two kinds flushes the pending run. Flush() (also run by the
// destructor) sends whatever is pending; a manager may simply answer page
// by page through the builder and the batching falls out.
class PagerRunBuilder {
 public:
  explicit PagerRunBuilder(SendRight request_port)
      : request_port_(std::move(request_port)) {}
  ~PagerRunBuilder() { Flush(); }

  PagerRunBuilder(const PagerRunBuilder&) = delete;
  PagerRunBuilder& operator=(const PagerRunBuilder&) = delete;

  void AddData(VmOffset offset, std::vector<std::byte> page, VmProt lock_value);
  void AddUnavailable(VmOffset offset, VmSize size);

  // Sends the pending run, if any. Returns the first send error seen over
  // the builder's lifetime (sticky), kSuccess otherwise.
  KernReturn Flush();

  // Manager → kernel messages this builder has sent (tests/benches).
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  enum class Pending { kNone, kData, kUnavailable };

  SendRight request_port_;
  Pending pending_ = Pending::kNone;
  VmOffset start_ = 0;
  std::vector<std::byte> data_;   // kData: accumulated contiguous bytes.
  VmSize unavail_size_ = 0;       // kUnavailable: accumulated span.
  VmProt lock_value_ = kVmProtNone;
  KernReturn first_error_ = KernReturn::kSuccess;
  uint64_t messages_sent_ = 0;
};

}  // namespace mach

#endif  // SRC_PAGER_DATA_MANAGER_H_
