#include "src/pager/protocol.h"

#include <cassert>
#include <utility>

namespace mach {

Message EncodePagerInit(const PagerInitArgs& args) {
  Message msg(kMsgPagerInit);
  msg.PushPort(args.pager_request_port);
  msg.PushPort(args.pager_name_port);
  msg.PushU64(args.page_size);
  return msg;
}

Result<PagerInitArgs> DecodePagerInit(Message& msg) {
  PagerInitArgs args;
  Result<SendRight> req = msg.TakePort();
  Result<SendRight> name = msg.TakePort();
  Result<uint64_t> ps = msg.TakeU64();
  if (!req.ok() || !name.ok() || !ps.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.pager_request_port = std::move(req).value();
  args.pager_name_port = std::move(name).value();
  args.page_size = ps.value();
  return args;
}

Message EncodePagerDataRequest(const PagerDataRequestArgs& args) {
  assert(args.length != 0 && "pager_data_request length must cover >= 1 page");
  Message msg(kMsgPagerDataRequest);
  msg.PushPort(args.pager_request_port);
  msg.PushU64(args.offset);
  msg.PushU64(args.length);
  msg.PushU32(args.desired_access);
  return msg;
}

Result<PagerDataRequestArgs> DecodePagerDataRequest(Message& msg,
                                                    VmSize page_size) {
  PagerDataRequestArgs args;
  Result<SendRight> req = msg.TakePort();
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> len = msg.TakeU64();
  Result<uint32_t> acc = msg.TakeU32();
  if (!req.ok() || !off.ok() || !len.ok() || !acc.ok()) {
    return KernReturn::kInvalidArgument;
  }
  if (len.value() == 0) {
    return KernReturn::kProtocolViolation;
  }
  if (page_size != 0 &&
      (len.value() % page_size != 0 ||
       len.value() > uint64_t{kPagerMaxRunPages} * page_size)) {
    return KernReturn::kProtocolViolation;
  }
  args.pager_request_port = std::move(req).value();
  args.offset = off.value();
  args.length = len.value();
  args.desired_access = acc.value();
  return args;
}

Message EncodePagerDataWrite(PagerDataWriteArgs args) {
  Message msg(kMsgPagerDataWrite);
  msg.PushU64(args.offset);
  msg.PushBytes(std::move(args.data));
  return msg;
}

Result<PagerDataWriteArgs> DecodePagerDataWrite(Message& msg) {
  PagerDataWriteArgs args;
  Result<uint64_t> off = msg.TakeU64();
  Result<std::vector<std::byte>> data = msg.TakeBytes();
  if (!off.ok() || !data.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.offset = off.value();
  args.data = std::move(data).value();
  return args;
}

Message EncodePagerDataUnlock(const PagerDataUnlockArgs& args) {
  Message msg(kMsgPagerDataUnlock);
  msg.PushPort(args.pager_request_port);
  msg.PushU64(args.offset);
  msg.PushU64(args.length);
  msg.PushU32(args.desired_access);
  return msg;
}

Result<PagerDataUnlockArgs> DecodePagerDataUnlock(Message& msg) {
  PagerDataUnlockArgs args;
  Result<SendRight> req = msg.TakePort();
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> len = msg.TakeU64();
  Result<uint32_t> acc = msg.TakeU32();
  if (!req.ok() || !off.ok() || !len.ok() || !acc.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.pager_request_port = std::move(req).value();
  args.offset = off.value();
  args.length = len.value();
  args.desired_access = acc.value();
  return args;
}

Message EncodePagerLockCompleted(const PagerLockCompletedArgs& args) {
  Message msg(kMsgPagerLockCompleted);
  msg.PushPort(args.pager_request_port);
  msg.PushU64(args.offset);
  msg.PushU64(args.length);
  return msg;
}

Result<PagerLockCompletedArgs> DecodePagerLockCompleted(Message& msg) {
  PagerLockCompletedArgs args;
  Result<SendRight> req = msg.TakePort();
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> len = msg.TakeU64();
  if (!req.ok() || !off.ok() || !len.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.pager_request_port = std::move(req).value();
  args.offset = off.value();
  args.length = len.value();
  return args;
}

Message EncodePagerCreate(PagerCreateArgs args) {
  Message msg(kMsgPagerCreate);
  msg.PushReceive(std::move(args.new_memory_object));
  msg.PushPort(args.new_request_port);
  msg.PushPort(args.new_name_port);
  msg.PushU64(args.page_size);
  return msg;
}

Result<PagerCreateArgs> DecodePagerCreate(Message& msg) {
  PagerCreateArgs args;
  Result<ReceiveRight> obj = msg.TakeReceive();
  Result<SendRight> req = msg.TakePort();
  Result<SendRight> name = msg.TakePort();
  Result<uint64_t> ps = msg.TakeU64();
  if (!obj.ok() || !req.ok() || !name.ok() || !ps.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.new_memory_object = std::move(obj).value();
  args.new_request_port = std::move(req).value();
  args.new_name_port = std::move(name).value();
  args.page_size = ps.value();
  return args;
}

Message EncodePagerDataProvided(PagerDataProvidedArgs args) {
  Message msg(kMsgPagerDataProvided);
  msg.PushU64(args.offset);
  msg.PushBytes(std::move(args.data));
  msg.PushU32(args.lock_value);
  return msg;
}

Result<PagerDataProvidedArgs> DecodePagerDataProvided(Message& msg) {
  PagerDataProvidedArgs args;
  Result<uint64_t> off = msg.TakeU64();
  Result<std::vector<std::byte>> data = msg.TakeBytes();
  Result<uint32_t> lock = msg.TakeU32();
  if (!off.ok() || !data.ok() || !lock.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.offset = off.value();
  args.data = std::move(data).value();
  args.lock_value = lock.value();
  return args;
}

Message EncodePagerDataLock(const PagerDataLockArgs& args) {
  Message msg(kMsgPagerDataLock);
  msg.PushU64(args.offset);
  msg.PushU64(args.length);
  msg.PushU32(args.lock_value);
  return msg;
}

Result<PagerDataLockArgs> DecodePagerDataLock(Message& msg) {
  PagerDataLockArgs args;
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> len = msg.TakeU64();
  Result<uint32_t> lock = msg.TakeU32();
  if (!off.ok() || !len.ok() || !lock.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.offset = off.value();
  args.length = len.value();
  args.lock_value = lock.value();
  return args;
}

namespace {

Message EncodeRange(MsgId id, const PagerRangeArgs& args) {
  Message msg(id);
  msg.PushU64(args.offset);
  msg.PushU64(args.length);
  return msg;
}

Result<PagerRangeArgs> DecodeRange(Message& msg) {
  PagerRangeArgs args;
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> len = msg.TakeU64();
  if (!off.ok() || !len.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.offset = off.value();
  args.length = len.value();
  return args;
}

}  // namespace

Message EncodePagerFlushRequest(const PagerRangeArgs& args) {
  return EncodeRange(kMsgPagerFlushRequest, args);
}

Message EncodePagerCleanRequest(const PagerRangeArgs& args) {
  return EncodeRange(kMsgPagerCleanRequest, args);
}

Result<PagerRangeArgs> DecodePagerFlushRequest(Message& msg) { return DecodeRange(msg); }
Result<PagerRangeArgs> DecodePagerCleanRequest(Message& msg) { return DecodeRange(msg); }

Message EncodePagerCache(const PagerCacheArgs& args) {
  Message msg(kMsgPagerCache);
  msg.PushU32(args.may_cache ? 1 : 0);
  return msg;
}

Result<PagerCacheArgs> DecodePagerCache(Message& msg) {
  Result<uint32_t> v = msg.TakeU32();
  if (!v.ok()) {
    return KernReturn::kInvalidArgument;
  }
  return PagerCacheArgs{v.value() != 0};
}

Message EncodePagerDataUnavailable(const PagerDataUnavailableArgs& args) {
  Message msg(kMsgPagerDataUnavailable);
  msg.PushU64(args.offset);
  msg.PushU64(args.size);
  return msg;
}

Result<PagerDataUnavailableArgs> DecodePagerDataUnavailable(Message& msg) {
  Result<uint64_t> off = msg.TakeU64();
  Result<uint64_t> size = msg.TakeU64();
  if (!off.ok() || !size.ok()) {
    return KernReturn::kInvalidArgument;
  }
  return PagerDataUnavailableArgs{off.value(), size.value()};
}

Message EncodeShmGetRegion(const ShmGetRegionArgs& args) {
  Message msg(kMsgShmGetRegion);
  msg.PushString(args.name);
  msg.PushU64(args.size);
  return msg;
}

Result<ShmGetRegionArgs> DecodeShmGetRegion(Message& msg) {
  ShmGetRegionArgs args;
  Result<std::string> name = msg.TakeString();
  Result<uint64_t> size = msg.TakeU64();
  if (!name.ok() || !size.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.name = std::move(name).value();
  args.size = size.value();
  return args;
}

Message EncodeShmRegionInfo(const ShmRegionInfoArgs& args) {
  Message msg(kMsgShmRegionInfo);
  msg.PushU64(args.region_id);
  msg.PushU64(args.size);
  msg.PushU64(args.page_size);
  msg.PushU64(args.shard_objects.size());
  for (const SendRight& shard : args.shard_objects) {
    msg.PushPort(shard);
  }
  return msg;
}

Result<ShmRegionInfoArgs> DecodeShmRegionInfo(Message& msg) {
  ShmRegionInfoArgs args;
  Result<uint64_t> id = msg.TakeU64();
  Result<uint64_t> size = msg.TakeU64();
  Result<uint64_t> page_size = msg.TakeU64();
  Result<uint64_t> count = msg.TakeU64();
  if (!id.ok() || !size.ok() || !page_size.ok() || !count.ok()) {
    return KernReturn::kInvalidArgument;
  }
  args.region_id = id.value();
  args.size = size.value();
  args.page_size = page_size.value();
  args.shard_objects.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    Result<SendRight> shard = msg.TakePort();
    if (!shard.ok()) {
      return KernReturn::kInvalidArgument;
    }
    args.shard_objects.push_back(std::move(shard).value());
  }
  return args;
}

}  // namespace mach
