// ShmBroker: the thin region-resolution front end of the sharded
// shared-memory manager.
//
// The broker owns N ShmShards and answers exactly one question — "give me
// the named region" — returning the region's identity and one memory object
// per shard (ShmRegionInfoArgs). After that it is out of the picture: all
// coherence traffic flows kernel ↔ shard, so the broker can never become
// a serialisation point. A 1-shard broker is the centralised §4.2 server:
// one directory, one lock, one request port.
//
// Placement: local clients call GetRegion() directly. Remote hosts send
// shm_get_region to a NetLink proxy of service_port() (GetRegionVia); the
// reply's shard rights are proxied automatically by the link, so the shards
// themselves may live on this host or any other. Shard *objects* can also
// be proxied individually to place shards on different hosts.
//
// Page partitioning: page index p of region r belongs to shard
// HashCombine64(r, p) % N — SplitMix64 avalanche, so consecutive pages
// spread uniformly and no shard inherits a hot contiguous run.

#ifndef SRC_MANAGERS_SHM_SHM_BROKER_H_
#define SRC_MANAGERS_SHM_SHM_BROKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/managers/shm/shm_shard.h"

namespace mach {

class Task;

class ShmBroker : public DataManager {
 public:
  // `options` is applied to every shard (each gets its own directory; a
  // null options.clock means each shard runs its own private clock).
  ShmBroker(std::string name, size_t shard_count, ShmOptions options);
  ~ShmBroker() override;

  // Starts/stops the broker's own service thread and every shard's.
  void Start();
  void Stop();

  // Local resolution: returns (creating on first use) the named region.
  ShmRegionInfoArgs GetRegion(const std::string& name, VmSize size);

  // The port remote hosts resolve regions through (proxy it over NetLink).
  SendRight service_port() const { return service_port_; }

  // Remote resolution: shm_get_region RPC through `service` (typically a
  // NetLink proxy of another broker's service_port()).
  static Result<ShmRegionInfoArgs> GetRegionVia(const SendRight& service,
                                                const std::string& name, VmSize size);

  // Which shard serves page `page_index` of region `region_id`. Delegates
  // to the shared partition function the shards clamp fault-ahead runs by.
  static size_t ShardOfPage(uint64_t region_id, uint64_t page_index, size_t shard_count) {
    return static_cast<size_t>(ShmShardOfPage(region_id, page_index, shard_count));
  }

  // Maps the whole region into `task`: reserves a contiguous range, then
  // maps each hash run of pages against its shard's object at the run's own
  // region offset. Returns the base address.
  static Result<VmOffset> MapRegion(Task& task, const ShmRegionInfoArgs& info);

  size_t shard_count() const { return shards_.size(); }
  ShmShard& shard(size_t i) { return *shards_[i]; }

  // Sum of all shard directory counters.
  ShmCounters aggregate_counters() const;
  // Makespan view for the ablation bench: the busiest shard's modeled
  // service time (options.service_cost_ns must be nonzero to be useful).
  uint64_t max_shard_service_ns() const;

 protected:
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  bool OnMessage(uint64_t port_id, Message&& msg) override;

 private:
  struct RegionRecord {
    uint64_t region_id = 0;
    VmSize size = 0;
  };

  ShmRegionInfoArgs InfoFor(const RegionRecord& rec);

  const VmSize page_size_;
  std::vector<std::unique_ptr<ShmShard>> shards_;
  SendRight service_port_;

  std::mutex regions_mu_;
  std::map<std::string, RegionRecord> regions_;
  uint64_t next_region_id_ = 1;
};

}  // namespace mach

#endif  // SRC_MANAGERS_SHM_SHM_BROKER_H_
