#include "src/managers/shm/shm_broker.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/kernel/task.h"

namespace mach {

ShmBroker::ShmBroker(std::string name, size_t shard_count, ShmOptions options)
    : DataManager(name), page_size_(options.page_size) {
  const size_t n = std::max<size_t>(shard_count, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Each shard learns its stripe so a fault-ahead run can be clamped to
    // the pages this shard actually serves (ShmShardOfPage).
    ShmOptions shard_options = options;
    shard_options.shard_index = static_cast<uint32_t>(i);
    shard_options.shard_count = static_cast<uint32_t>(n);
    shards_.push_back(
        std::make_unique<ShmShard>(name + "-s" + std::to_string(i), shard_options));
  }
  service_port_ = AllocateServicePort("shm-broker");
}

ShmBroker::~ShmBroker() { Stop(); }

void ShmBroker::Start() {
  for (auto& shard : shards_) {
    shard->Start();
  }
  DataManager::Start();
}

void ShmBroker::Stop() {
  DataManager::Stop();
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

ShmRegionInfoArgs ShmBroker::InfoFor(const RegionRecord& rec) {
  ShmRegionInfoArgs info;
  info.region_id = rec.region_id;
  info.size = rec.size;
  info.page_size = page_size_;
  info.shard_objects.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    info.shard_objects.push_back(shards_[s]->RegionObject(
        rec.region_id, rec.size, "shm:" + std::to_string(rec.region_id)));
  }
  return info;
}

ShmRegionInfoArgs ShmBroker::GetRegion(const std::string& name, VmSize size) {
  std::lock_guard<std::mutex> g(regions_mu_);
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    RegionRecord rec;
    rec.region_id = next_region_id_++;
    rec.size = RoundPage(size, page_size_);
    it = regions_.emplace(name, rec).first;
  }
  return InfoFor(it->second);
}

Result<ShmRegionInfoArgs> ShmBroker::GetRegionVia(const SendRight& service,
                                                  const std::string& name, VmSize size) {
  ShmGetRegionArgs args;
  args.name = name;
  args.size = size;
  Result<Message> reply = MsgRpc(service, EncodeShmGetRegion(args),
                                 std::chrono::milliseconds(2000), std::chrono::milliseconds(5000));
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().id() != kMsgShmRegionInfo) {
    return KernReturn::kInvalidArgument;
  }
  return DecodeShmRegionInfo(reply.value());
}

Result<VmOffset> ShmBroker::MapRegion(Task& task, const ShmRegionInfoArgs& info) {
  if (info.shard_objects.empty() || info.page_size == 0 || info.size == 0) {
    return KernReturn::kInvalidArgument;
  }
  // Reserve a contiguous range, then rebuild it run by run: each hash run
  // of same-shard pages maps that shard's object at the run's own region
  // offset (object offsets are region offsets).
  Result<VmOffset> base = task.VmAllocate(info.size);
  if (!base.ok()) {
    return base.status();
  }
  KernReturn kr = task.VmDeallocate(base.value(), info.size);
  if (kr != KernReturn::kSuccess) {
    return kr;
  }
  const size_t n = info.shard_objects.size();
  const uint64_t pages = info.size / info.page_size;
  uint64_t run_start = 0;
  size_t run_shard = ShardOfPage(info.region_id, 0, n);
  for (uint64_t p = 1; p <= pages; ++p) {
    const size_t s = p < pages ? ShardOfPage(info.region_id, p, n) : n;  // n = flush sentinel
    if (s == run_shard) {
      continue;
    }
    Result<VmOffset> mapped = task.VmAllocateWithPager(
        (p - run_start) * info.page_size, info.shard_objects[run_shard],
        run_start * info.page_size, /*anywhere=*/false, base.value() + run_start * info.page_size);
    if (!mapped.ok()) {
      return mapped.status();
    }
    run_start = p;
    run_shard = s;
  }
  return base.value();
}

ShmCounters ShmBroker::aggregate_counters() const {
  ShmCounters total;
  for (const auto& shard : shards_) {
    const ShmCounters c = shard->directory().counters();
    total.read_grants += c.read_grants;
    total.write_grants += c.write_grants;
    total.invalidations += c.invalidations;
    total.recalls += c.recalls;
    total.forwards += c.forwards;
    total.hint_hits += c.hint_hits;
    total.hint_repairs += c.hint_repairs;
    total.stale_hints += c.stale_hints;
    total.ownership_transfers += c.ownership_transfers;
    total.downgrades += c.downgrades;
    total.forward_drops += c.forward_drops;
    total.recall_retries += c.recall_retries;
    total.recall_acks += c.recall_acks;
    total.recall_timeouts += c.recall_timeouts;
    total.service_ns += c.service_ns;
  }
  return total;
}

uint64_t ShmBroker::max_shard_service_ns() const {
  uint64_t max_ns = 0;
  for (const auto& shard : shards_) {
    max_ns = std::max(max_ns, shard->directory().counters().service_ns);
  }
  return max_ns;
}

void ShmBroker::OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                              PagerDataRequestArgs args) {
  // The broker has no memory objects of its own — pages live in shards.
  DataUnavailable(args.pager_request_port, args.offset, args.length);
}

bool ShmBroker::OnMessage(uint64_t port_id, Message&& msg) {
  if (msg.id() != kMsgShmGetRegion) {
    return false;
  }
  SendRight reply_to = msg.reply_port();
  Result<ShmGetRegionArgs> args = DecodeShmGetRegion(msg);
  if (!args.ok() || !reply_to.valid()) {
    return true;  // Malformed request: handled (dropped).
  }
  ShmRegionInfoArgs info = GetRegion(args.value().name, args.value().size);
  MsgSend(reply_to, EncodeShmRegionInfo(info), std::chrono::milliseconds(2000));
  return true;
}

}  // namespace mach
