// Wire protocol for the external memory management interface: the kernel →
// data manager calls of Table 3-5 and the data manager → kernel calls of
// Table 3-6, carried over ordinary messages. Every call is asynchronous, as
// the paper specifies ("the calls do not have explicit return arguments and
// the kernel does not wait for acknowledgement").
//
// Kernel → manager messages are sent to the *memory object* port (except
// pager_create, which is sent to the default pager's service port since the
// new memory object's receive right is inside the message). Manager → kernel
// messages are sent to the *pager request* port for the (object, kernel)
// pair. Per-port FIFO gives the ordering guarantee managers rely on: a
// pager_data_write is seen before any subsequent pager_data_request for the
// same object.

#ifndef SRC_PAGER_PROTOCOL_H_
#define SRC_PAGER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/vm_types.h"
#include "src/ipc/message.h"
#include "src/ipc/port.h"

namespace mach {

// Message ids. Kernel → data manager (Table 3-5):
inline constexpr MsgId kMsgPagerInit = 0x50000001;
inline constexpr MsgId kMsgPagerDataRequest = 0x50000002;
inline constexpr MsgId kMsgPagerDataWrite = 0x50000003;
inline constexpr MsgId kMsgPagerDataUnlock = 0x50000004;
inline constexpr MsgId kMsgPagerCreate = 0x50000005;
// pager_lock_completed (after Mach's memory_object_lock_completed): sent by
// the kernel once a pager_flush_request / pager_clean_request has been fully
// processed. Any dirty data was written back *first* on the same port, so a
// manager seeing lock_completed with no preceding pager_data_write knows the
// kernel's copy was clean — without resorting to a timeout.
inline constexpr MsgId kMsgPagerLockCompleted = 0x50000006;

// Data manager → kernel (Table 3-6):
inline constexpr MsgId kMsgPagerDataProvided = 0x60000001;
inline constexpr MsgId kMsgPagerDataLock = 0x60000002;
inline constexpr MsgId kMsgPagerFlushRequest = 0x60000003;
inline constexpr MsgId kMsgPagerCleanRequest = 0x60000004;
inline constexpr MsgId kMsgPagerCache = 0x60000005;
inline constexpr MsgId kMsgPagerDataUnavailable = 0x60000006;

// Whether `id` is one of the six Table 3-6 calls: the only messages a kernel
// serves in the sender's thread when they arrive on a pager request port.
inline constexpr bool IsPagerManagerCall(MsgId id) {
  return id == kMsgPagerDataProvided || id == kMsgPagerDataLock ||
         id == kMsgPagerFlushRequest || id == kMsgPagerCleanRequest ||
         id == kMsgPagerCache || id == kMsgPagerDataUnavailable;
}

// Shared-memory broker control (§4.2 region resolution): shm_get_region is
// sent to the broker's service port with a reply port; the broker answers
// with shm_region_info. Remote hosts talk to a NetLink proxy of the service
// port — the shard rights in the reply are proxied automatically.
inline constexpr MsgId kMsgShmGetRegion = 0x70000001;
inline constexpr MsgId kMsgShmRegionInfo = 0x70000002;

// Hard wire-level ceiling on a multi-page pager_data_request run, in pages.
// `Config::fault_ahead_max` is clamped to this at kernel construction, so a
// decoder can reject anything beyond it as malformed regardless of the
// kernel configuration that produced it.
inline constexpr uint32_t kPagerMaxRunPages = 64;

// --- Decoded message bodies ---------------------------------------------

// pager_init(memory_object, pager_request_port, pager_name)
struct PagerInitArgs {
  SendRight pager_request_port;
  SendRight pager_name_port;
  VmSize page_size = 0;
};

// pager_data_request(memory_object, pager_request_port, offset, length,
//                    desired_access)
struct PagerDataRequestArgs {
  SendRight pager_request_port;
  VmOffset offset = 0;
  VmSize length = 0;
  VmProt desired_access = kVmProtNone;
};

// pager_data_write(memory_object, offset, data, data_count)
struct PagerDataWriteArgs {
  VmOffset offset = 0;
  std::vector<std::byte> data;
};

// pager_data_unlock(memory_object, pager_request_port, offset, length,
//                   desired_access)
struct PagerDataUnlockArgs {
  SendRight pager_request_port;
  VmOffset offset = 0;
  VmSize length = 0;
  VmProt desired_access = kVmProtNone;
};

// pager_lock_completed(memory_object, pager_request_port, offset, length).
// The request port identifies which kernel finished the flush/clean.
struct PagerLockCompletedArgs {
  SendRight pager_request_port;
  VmOffset offset = 0;
  VmSize length = 0;
};

// pager_create(old_memory_object, new_memory_object, new_request_port,
//              new_name). The receive right for the new memory object
// travels in the message; the default pager becomes its manager.
struct PagerCreateArgs {
  ReceiveRight new_memory_object;
  SendRight new_request_port;
  SendRight new_name_port;
  VmSize page_size = 0;
};

// pager_data_provided(pager_request_port, offset, data, data_count,
//                     lock_value)
struct PagerDataProvidedArgs {
  VmOffset offset = 0;
  std::vector<std::byte> data;
  VmProt lock_value = kVmProtNone;
};

// pager_data_lock(pager_request_port, offset, length, lock_value)
struct PagerDataLockArgs {
  VmOffset offset = 0;
  VmSize length = 0;
  VmProt lock_value = kVmProtNone;
};

// pager_flush_request / pager_clean_request(pager_request_port, offset,
// length)
struct PagerRangeArgs {
  VmOffset offset = 0;
  VmSize length = 0;
};

// pager_cache(pager_request_port, may_cache_object)
struct PagerCacheArgs {
  bool may_cache = false;
};

// pager_data_unavailable(pager_request_port, offset, size)
struct PagerDataUnavailableArgs {
  VmOffset offset = 0;
  VmSize size = 0;
};

// shm_get_region(broker_service_port, name, size) — resolve (creating on
// first use) the named shared region.
struct ShmGetRegionArgs {
  std::string name;
  VmSize size = 0;
};

// shm_region_info: the region's identity plus one memory object per
// directory shard. Page index p of region r lives in
// shard_objects[HashCombine64(r, p) % shard_objects.size()].
struct ShmRegionInfoArgs {
  uint64_t region_id = 0;
  VmSize size = 0;
  VmSize page_size = 0;
  std::vector<SendRight> shard_objects;
};

// --- Encoders (build a Message) ------------------------------------------

Message EncodePagerInit(const PagerInitArgs& args);
Message EncodePagerDataRequest(const PagerDataRequestArgs& args);
// The two page-run carriers take their args by value and move the run into
// the message: pass an rvalue and the pages are never copied.
Message EncodePagerDataWrite(PagerDataWriteArgs args);
Message EncodePagerDataUnlock(const PagerDataUnlockArgs& args);
Message EncodePagerLockCompleted(const PagerLockCompletedArgs& args);
Message EncodePagerCreate(PagerCreateArgs args);
Message EncodePagerDataProvided(PagerDataProvidedArgs args);
Message EncodePagerDataLock(const PagerDataLockArgs& args);
Message EncodePagerFlushRequest(const PagerRangeArgs& args);
Message EncodePagerCleanRequest(const PagerRangeArgs& args);
Message EncodePagerCache(const PagerCacheArgs& args);
Message EncodePagerDataUnavailable(const PagerDataUnavailableArgs& args);
Message EncodeShmGetRegion(const ShmGetRegionArgs& args);
Message EncodeShmRegionInfo(const ShmRegionInfoArgs& args);

// --- Decoders (consume a Message's items) ---------------------------------

Result<PagerInitArgs> DecodePagerInit(Message& msg);
// `page_size` is the page size the manager learned from pager_init /
// pager_create for this object (0 = unknown, e.g. a request racing ahead of
// init). A zero length is always kProtocolViolation; when the page size is
// known, a length that is not a multiple of it, or that covers more than
// kPagerMaxRunPages pages, is kProtocolViolation too.
Result<PagerDataRequestArgs> DecodePagerDataRequest(Message& msg,
                                                    VmSize page_size = 0);
Result<PagerDataWriteArgs> DecodePagerDataWrite(Message& msg);
Result<PagerDataUnlockArgs> DecodePagerDataUnlock(Message& msg);
Result<PagerLockCompletedArgs> DecodePagerLockCompleted(Message& msg);
Result<PagerCreateArgs> DecodePagerCreate(Message& msg);
Result<PagerDataProvidedArgs> DecodePagerDataProvided(Message& msg);
Result<PagerDataLockArgs> DecodePagerDataLock(Message& msg);
Result<PagerRangeArgs> DecodePagerFlushRequest(Message& msg);
Result<PagerRangeArgs> DecodePagerCleanRequest(Message& msg);
Result<PagerCacheArgs> DecodePagerCache(Message& msg);
Result<PagerDataUnavailableArgs> DecodePagerDataUnavailable(Message& msg);
Result<ShmGetRegionArgs> DecodeShmGetRegion(Message& msg);
Result<ShmRegionInfoArgs> DecodeShmRegionInfo(Message& msg);

}  // namespace mach

#endif  // SRC_PAGER_PROTOCOL_H_
