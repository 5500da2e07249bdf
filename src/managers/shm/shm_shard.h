// ShmShard: one directory shard of the distributed shared-memory manager.
//
// A shard is a self-contained DataManager — its own service thread, its own
// port set, its own lock — that adapts the external-pager upcalls for its
// memory objects onto an embedded ShmDirectory. Coherence traffic for pages
// in different shards therefore parallelises through the IPC layer with no
// shared state: the only thing shards of one broker have in common is the
// hash function that partitioned the page space.
//
// A shard serves one memory object per (region, shard) pair; the object's
// cookie is the region id. Offsets within the object are region offsets, so
// a kernel maps each hash run of the region against the owning shard's
// object at the run's own offset (ShmBroker::MapRegion does this).

#ifndef SRC_MANAGERS_SHM_SHM_SHARD_H_
#define SRC_MANAGERS_SHM_SHM_SHARD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/managers/shm/shm_directory.h"
#include "src/pager/data_manager.h"

namespace mach {

class ShmShard : public DataManager {
 public:
  ShmShard(std::string name, ShmOptions options);
  // Stops the service thread before the directory it dispatches into dies.
  ~ShmShard() override;

  ShmDirectory& directory() { return directory_; }
  const ShmDirectory& directory() const { return directory_; }

  // Returns (creating on first use) this shard's memory object for the
  // region. Idempotent per region id.
  SendRight RegionObject(uint64_t region_id, VmSize size, const std::string& label);

 protected:
  void OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) override;
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  void OnDataUnlock(uint64_t object_port_id, uint64_t cookie, PagerDataUnlockArgs args) override;
  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override;
  void OnLockCompleted(uint64_t object_port_id, uint64_t cookie,
                       PagerLockCompletedArgs args) override;
  void OnPortDeath(uint64_t port_id) override;
  void OnServiceTick(bool serviced) override;

 private:
  ShmDirectory directory_;
  std::mutex objects_mu_;
  std::unordered_map<uint64_t, SendRight> region_objects_;  // by region id
};

}  // namespace mach

#endif  // SRC_MANAGERS_SHM_SHM_SHARD_H_
