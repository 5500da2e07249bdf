#include "src/managers/fs/fs_server.h"

#include "src/base/log.h"

namespace mach {

// Its upcalls wait on no other thread (SimDisk charges virtual time, and
// fs_mu_ is never held across a wait), so faults and reclaims run them
// inline.
FsServer::FsServer(Kernel* kernel, SimDisk* disk)
    : DataManager("fs", Upcalls::kNeverWait), kernel_(kernel), disk_(disk) {
  task_ = kernel_->CreateTask(nullptr, "fs-server");
  PortPair service = PortAllocate("fs-service");
  service.receive.port()->SetBacklog(256);
  service_receive_ = std::move(service.receive);
  service_send_ = service.send;
}

FsServer::~FsServer() {
  StopServer();
  Stop();
}

void FsServer::StartServer() {
  Start();  // The data-manager service loop (pager protocol).
  bool expected = false;
  if (!serving_.compare_exchange_strong(expected, true)) {
    return;
  }
  api_thread_ = std::thread([this] { ApiLoop(); });
}

void FsServer::StopServer() {
  bool expected = true;
  if (!serving_.compare_exchange_strong(expected, false)) {
    return;
  }
  if (api_thread_.joinable()) {
    api_thread_.join();
  }
}

void FsServer::ApiLoop() {
  ManagerThread self(*this);  // Its faults on this server's files queue.
  while (serving_.load(std::memory_order_relaxed)) {
    Result<Message> got = service_receive_.port()->Dequeue(std::chrono::milliseconds(20));
    if (!got.ok()) {
      continue;
    }
    Message& msg = got.value();
    switch (msg.id()) {
      case kMsgFsReadFile:
        HandleReadFile(msg);
        break;
      case kMsgFsWriteFile:
        HandleWriteFile(msg);
        break;
      case kMsgFsCreate:
        HandleCreate(msg);
        break;
      case kMsgFsDelete:
        HandleDelete(msg);
        break;
      case kMsgFsStat:
        HandleStat(msg);
        break;
      case kMsgFsOpenMapped:
        HandleOpenMapped(msg);
        break;
      case kMsgFsSetSize:
        HandleSetSize(msg);
        break;
      case kMsgFsSync:
        HandleSync(msg);
        break;
      default:
        MACH_LOG(kWarn) << "fs: unknown request " << msg.id();
        break;
    }
  }
}

void FsServer::Reply(const Message& request, Message reply) {
  if (request.reply_port().valid()) {
    MsgSend(request.reply_port(), std::move(reply), std::chrono::milliseconds(2000));
  }
}

FsServer::File* FsServer::FindByObjectId(uint64_t object_port_id) {
  for (auto& [name, file] : files_) {
    if (file.memory_object.id() == object_port_id) {
      return &file;
    }
  }
  return nullptr;
}

FsServer::File* FsServer::FindByCookie(uint64_t cookie) {
  for (auto& [name, file] : files_) {
    if (file.id == cookie) {
      return &file;
    }
  }
  return nullptr;
}

KernReturn FsServer::EnsureServerMapping(File* file, VmSize size) {
  const VmSize ps = kernel_->page_size();
  VmSize want = RoundPage(std::max<VmSize>(size, ps), ps);
  if (file->server_mapping != 0 && file->server_mapping_size >= want) {
    return KernReturn::kSuccess;
  }
  if (file->server_mapping != 0) {
    task_->VmDeallocate(file->server_mapping, file->server_mapping_size);
    file->server_mapping = 0;
  }
  Result<VmOffset> addr = task_->VmAllocateWithPager(want, file->memory_object, 0);
  if (!addr.ok()) {
    return addr.status();
  }
  file->server_mapping = addr.value();
  file->server_mapping_size = want;
  return KernReturn::kSuccess;
}

void FsServer::HandleCreate(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsCreate);
  if (!name.ok()) {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kInvalidArgument));
    Reply(msg, std::move(reply));
    return;
  }
  {
    std::lock_guard<std::mutex> g(fs_mu_);
    if (files_.count(name.value()) != 0) {
      reply.PushU32(static_cast<uint32_t>(KernReturn::kAlreadyExists));
      Reply(msg, std::move(reply));
      return;
    }
    File file;
    file.id = next_file_id_++;
    // The file's memory object: this server is its data manager.
    file.memory_object = CreateMemoryObject(file.id, "file:" + name.value());
    files_.emplace(name.value(), std::move(file));
  }
  reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
  Reply(msg, std::move(reply));
}

void FsServer::HandleReadFile(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsReadFile);
  std::shared_ptr<VmMapCopy> copy;
  VmSize file_size = 0;
  KernReturn status = KernReturn::kSuccess;
  do {
    if (!name.ok()) {
      status = KernReturn::kInvalidArgument;
      break;
    }
    std::lock_guard<std::mutex> g(fs_mu_);
    auto it = files_.find(name.value());
    if (it == files_.end()) {
      status = KernReturn::kNotFound;
      break;
    }
    File* file = &it->second;
    file_size = file->size;
    status = EnsureServerMapping(file, std::max<VmSize>(file_size, 1));
    if (!IsOk(status)) {
      break;
    }
    // Capture the mapped file as a copy-on-write map copy: the client will
    // see consistent contents even while we keep serving (§4.1).
    VmSize rounded = RoundPage(std::max<VmSize>(file_size, 1), kernel_->page_size());
    Result<std::shared_ptr<VmMapCopy>> captured =
        kernel_->vm().CopyIn(task_->vm_context(), file->server_mapping, rounded);
    if (!captured.ok()) {
      status = captured.status();
      break;
    }
    copy = captured.value();
  } while (false);
  reply.PushU32(static_cast<uint32_t>(status));
  if (IsOk(status)) {
    reply.PushU64(file_size);
    reply.PushOol(copy, copy == nullptr ? 0 : copy->size());
    read_files_.fetch_add(1, std::memory_order_relaxed);
  }
  Reply(msg, std::move(reply));
}

void FsServer::HandleWriteFile(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Result<uint64_t> size = msg.TakeU64();
  Result<OolItem> ool = msg.TakeOol();
  Message reply(kMsgFsWriteFile);
  KernReturn status = KernReturn::kSuccess;
  do {
    if (!name.ok() || !size.ok() || !ool.ok()) {
      status = KernReturn::kInvalidArgument;
      break;
    }
    // The data must lie inside the out-of-line region: a larger size would
    // read past its mapping, and near 2^64 RoundPage wraps to 0. The region
    // is the copy's own size, not the sender's word for it.
    auto copy = std::static_pointer_cast<VmMapCopy>(ool.value().copy);
    if (copy == nullptr || size.value() > copy->size()) {
      status = KernReturn::kInvalidArgument;
      break;
    }
    // Materialise the incoming data in our own address space and read it
    // all before taking fs_mu_: its pages may be backed by one of this
    // server's files (a copy made with fs_read_file), and their page-ins
    // take fs_mu_ (§6.1).
    Result<VmOffset> in_addr = kernel_->vm().CopyOut(task_->vm_context(), copy);
    if (!in_addr.ok()) {
      status = in_addr.status();
      break;
    }
    const VmSize ps = kernel_->page_size();
    const VmSize new_size = size.value();
    const size_t pages = static_cast<size_t>(RoundPage(new_size, ps) / ps);
    std::vector<std::byte> data(pages * ps);
    status = task_->Read(in_addr.value(), data.data(), new_size);
    task_->VmDeallocate(in_addr.value(), copy->size());
    if (!IsOk(status)) {
      break;
    }
    std::lock_guard<std::mutex> g(fs_mu_);
    auto it = files_.find(name.value());
    if (it == files_.end()) {
      status = KernReturn::kNotFound;
      break;
    }
    File* file = &it->second;
    // Store the data to disk, page by page.
    file->blocks.resize(std::max(file->blocks.size(), pages), UINT32_MAX);
    for (size_t p = 0; p < pages; ++p) {
      if (file->blocks[p] == UINT32_MAX) {
        file->blocks[p] = disk_->AllocBlock();
        if (file->blocks[p] == UINT32_MAX) {
          status = KernReturn::kResourceShortage;
          break;
        }
      }
      status = disk_->WriteBlock(file->blocks[p], data.data() + p * ps);
      if (!IsOk(status)) {
        io_errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    if (IsOk(status)) {
      file->size = std::max(file->size, new_size);
      // Invalidate every kernel's cached pages so future reads see the new
      // contents (pager_flush_request on each request port).
      for (const SendRight& req : file->request_ports) {
        FlushRequest(req, 0, RoundPage(std::max<VmSize>(file->size, 1), ps));
      }
      write_files_.fetch_add(1, std::memory_order_relaxed);
    }
  } while (false);
  reply.PushU32(static_cast<uint32_t>(status));
  Reply(msg, std::move(reply));
}

void FsServer::HandleDelete(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsDelete);
  KernReturn status = KernReturn::kSuccess;
  do {
    if (!name.ok()) {
      status = KernReturn::kInvalidArgument;
      break;
    }
    std::lock_guard<std::mutex> g(fs_mu_);
    auto it = files_.find(name.value());
    if (it == files_.end()) {
      status = KernReturn::kNotFound;
      break;
    }
    File& file = it->second;
    if (file.server_mapping != 0) {
      task_->VmDeallocate(file.server_mapping, file.server_mapping_size);
    }
    for (uint32_t block : file.blocks) {
      if (block != UINT32_MAX) {
        disk_->FreeBlock(block);
      }
    }
    DestroyMemoryObject(file.memory_object);
    files_.erase(it);
  } while (false);
  reply.PushU32(static_cast<uint32_t>(status));
  Reply(msg, std::move(reply));
}

void FsServer::HandleStat(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsStat);
  std::lock_guard<std::mutex> g(fs_mu_);
  auto it = name.ok() ? files_.find(name.value()) : files_.end();
  if (it == files_.end()) {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kNotFound));
  } else {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
    reply.PushU64(it->second.size);
  }
  Reply(msg, std::move(reply));
}

void FsServer::HandleOpenMapped(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsOpenMapped);
  std::lock_guard<std::mutex> g(fs_mu_);
  auto it = name.ok() ? files_.find(name.value()) : files_.end();
  if (it == files_.end()) {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kNotFound));
  } else {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
    reply.PushU64(it->second.size);
    // Hand out the memory object itself: the client maps the file and its
    // reads and writes operate directly on virtual memory (§8.1).
    reply.PushPort(it->second.memory_object);
  }
  Reply(msg, std::move(reply));
}

void FsServer::HandleSetSize(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Result<uint64_t> size = msg.TakeU64();
  Message reply(kMsgFsSetSize);
  std::lock_guard<std::mutex> g(fs_mu_);
  auto it = (name.ok() && size.ok()) ? files_.find(name.value()) : files_.end();
  if (it == files_.end()) {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kNotFound));
  } else {
    it->second.size = size.value();
    reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
  }
  Reply(msg, std::move(reply));
}

void FsServer::HandleSync(Message& msg) {
  Result<std::string> name = msg.TakeString();
  Message reply(kMsgFsSync);
  std::lock_guard<std::mutex> g(fs_mu_);
  auto it = name.ok() ? files_.find(name.value()) : files_.end();
  if (it == files_.end()) {
    reply.PushU32(static_cast<uint32_t>(KernReturn::kNotFound));
  } else {
    File& file = it->second;
    const VmSize ps = kernel_->page_size();
    VmSize span = RoundPage(std::max<VmSize>(file.size, ps), ps);
    // Ask every mapping kernel to write dirty pages back
    // (pager_clean_request); they arrive as pager_data_write.
    for (const SendRight& req : file.request_ports) {
      CleanRequest(req, 0, span);
    }
    reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
  }
  Reply(msg, std::move(reply));
}

// --- pager protocol (this server as data manager) ----------------------------

void FsServer::OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) {
  std::lock_guard<std::mutex> g(fs_mu_);
  File* file = FindByCookie(cookie);
  if (file == nullptr) {
    return;
  }
  file->request_ports.push_back(args.pager_request_port);
  // Allow the kernel to keep file pages cached after unmapping: this is the
  // mapped-file cache that §9 credits for the performance win.
  SetCaching(args.pager_request_port, true);
}

void FsServer::OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                             PagerDataRequestArgs args) {
  const VmSize ps = disk_->block_size();
  std::lock_guard<std::mutex> g(fs_mu_);
  File* file = FindByCookie(cookie);
  if (file == nullptr) {
    DataUnavailable(args.pager_request_port, args.offset, args.length);
    return;
  }
  // Fault-ahead runs arrive as one request; answer with coalesced
  // multi-page messages, splitting at holes and bad blocks.
  PagerRunBuilder run(args.pager_request_port);
  for (VmOffset off = args.offset; off < args.offset + args.length; off += ps) {
    size_t page = static_cast<size_t>(off / ps);
    if (page >= file->blocks.size() || file->blocks[page] == UINT32_MAX) {
      // Hole or beyond EOF: zero fill.
      run.AddUnavailable(off, ps);
      continue;
    }
    std::vector<std::byte> data(ps);
    if (!IsOk(disk_->ReadBlock(file->blocks[page], data.data()))) {
      // §6.2.1: unreadable file block → pager_data_unavailable; mapping
      // kernels substitute per their failure policy instead of hanging.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      run.AddUnavailable(off, ps);
      continue;
    }
    run.AddData(off, std::move(data), kVmProtNone);
  }
}

void FsServer::OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) {
  // Dirty file-cache pages being evicted (e.g. the server's own mapping
  // after a client modified data through shared mappings): write through.
  const VmSize ps = disk_->block_size();
  std::lock_guard<std::mutex> g(fs_mu_);
  File* file = FindByCookie(cookie);
  if (file == nullptr) {
    return;
  }
  size_t pages = args.data.size() / ps;
  for (size_t p = 0; p < pages; ++p) {
    size_t page = static_cast<size_t>(args.offset / ps) + p;
    if (page >= file->blocks.size()) {
      file->blocks.resize(page + 1, UINT32_MAX);
    }
    if (file->blocks[page] == UINT32_MAX) {
      file->blocks[page] = disk_->AllocBlock();
      if (file->blocks[page] == UINT32_MAX) {
        MACH_LOG(kError) << "fs: disk full on pageout";
        return;
      }
    }
    if (!IsOk(disk_->WriteBlock(file->blocks[page], args.data.data() + p * ps))) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      MACH_LOG(kWarn) << "fs: writeback failed for block " << file->blocks[page];
    }
  }
  // File size is authoritative from fs_write_file; dirty-cache writebacks
  // never extend it.
}

void FsServer::OnPortDeath(uint64_t port_id) {
  // A kernel released its mapping of some file; drop the dead request port.
  std::lock_guard<std::mutex> g(fs_mu_);
  for (auto& [name, file] : files_) {
    auto& ports = file.request_ports;
    for (auto it = ports.begin(); it != ports.end();) {
      if (it->id() == port_id) {
        it = ports.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// --- client library -----------------------------------------------------------

Result<FsClient::ReadResult> FsClient::ReadFile(const std::string& name) {
  Message request(kMsgFsReadFile);
  request.PushString(name);
  Result<Message> reply = MsgRpc(service_, std::move(request), kWaitForever,
                                 std::chrono::seconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  if (!status.ok()) {
    return KernReturn::kInvalidArgument;
  }
  if (static_cast<KernReturn>(status.value()) != KernReturn::kSuccess) {
    return static_cast<KernReturn>(status.value());
  }
  Result<uint64_t> size = reply.value().TakeU64();
  Result<OolItem> ool = reply.value().TakeOol();
  if (!size.ok() || !ool.ok()) {
    return KernReturn::kInvalidArgument;
  }
  auto copy = std::static_pointer_cast<VmMapCopy>(ool.value().copy);
  Result<VmOffset> addr = task_->kernel().vm().CopyOut(task_->vm_context(), copy);
  if (!addr.ok()) {
    return addr.status();
  }
  return ReadResult{addr.value(), size.value()};
}

KernReturn FsClient::WriteFile(const std::string& name, VmOffset address, VmSize size) {
  const VmSize ps = task_->page_size();
  Result<std::shared_ptr<VmMapCopy>> copy = task_->kernel().vm().CopyIn(
      task_->vm_context(), TruncPage(address, ps), RoundPage(std::max<VmSize>(size, 1), ps));
  if (!copy.ok()) {
    return copy.status();
  }
  Message request(kMsgFsWriteFile);
  request.PushString(name);
  request.PushU64(size);
  request.PushOol(copy.value(), copy.value()->size());
  Result<Message> reply = MsgRpc(service_, std::move(request), kWaitForever,
                                 std::chrono::seconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

KernReturn FsClient::Create(const std::string& name) {
  Message request(kMsgFsCreate);
  request.PushString(name);
  Result<Message> reply = MsgRpc(service_, std::move(request), kWaitForever,
                                 std::chrono::seconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

KernReturn FsClient::Delete(const std::string& name) {
  Message request(kMsgFsDelete);
  request.PushString(name);
  Result<Message> reply = MsgRpc(service_, std::move(request), kWaitForever,
                                 std::chrono::seconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

Result<VmSize> FsClient::Stat(const std::string& name) {
  Message request(kMsgFsStat);
  request.PushString(name);
  Result<Message> reply = MsgRpc(service_, std::move(request), kWaitForever,
                                 std::chrono::seconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  if (!status.ok() || static_cast<KernReturn>(status.value()) != KernReturn::kSuccess) {
    return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
  }
  Result<uint64_t> size = reply.value().TakeU64();
  if (!size.ok()) {
    return KernReturn::kInvalidArgument;
  }
  return VmSize{size.value()};
}

}  // namespace mach
