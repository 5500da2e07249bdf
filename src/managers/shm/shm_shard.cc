#include "src/managers/shm/shm_shard.h"

namespace mach {

ShmShard::ShmShard(std::string name, ShmOptions options)
    : DataManager(std::move(name)), directory_(std::move(options)) {}

ShmShard::~ShmShard() { Stop(); }

SendRight ShmShard::RegionObject(uint64_t region_id, VmSize size, const std::string& label) {
  std::lock_guard<std::mutex> g(objects_mu_);
  auto it = region_objects_.find(region_id);
  if (it != region_objects_.end()) {
    return it->second;
  }
  directory_.AddRegion(region_id, size);
  SendRight object = CreateMemoryObject(region_id, label);
  region_objects_.emplace(region_id, object);
  return object;
}

void ShmShard::OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) {
  directory_.HandleInit(cookie, std::move(args.pager_request_port));
}

void ShmShard::OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                             PagerDataRequestArgs args) {
  directory_.HandleDataRequest(cookie, std::move(args.pager_request_port), args.offset,
                               args.length, args.desired_access);
}

void ShmShard::OnDataUnlock(uint64_t object_port_id, uint64_t cookie, PagerDataUnlockArgs args) {
  directory_.HandleDataUnlock(cookie, std::move(args.pager_request_port), args.offset,
                              args.length, args.desired_access);
}

void ShmShard::OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) {
  directory_.HandleDataWrite(cookie, args.offset, std::move(args.data));
}

void ShmShard::OnLockCompleted(uint64_t object_port_id, uint64_t cookie,
                               PagerLockCompletedArgs args) {
  directory_.HandleLockCompleted(cookie, args.pager_request_port.id(), args.offset, args.length);
}

void ShmShard::OnPortDeath(uint64_t port_id) { directory_.HandlePortDeath(port_id); }

void ShmShard::OnServiceTick(bool serviced) { directory_.Tick(serviced); }

}  // namespace mach
