// Quickstart: boot a kernel, create tasks, use IPC, map a file from the
// minimal filesystem server, modify it, and write it back — the §4.1 usage
// example end to end. Exits non-zero unless the RPC reply, the VM round
// trip and both file reads match what was sent and written.
//
//   $ ./examples/quickstart

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/fs/fs_server.h"

using namespace mach;

int main() {
  // 1. Boot a host: physical memory, paging disk, VM system, default pager.
  Kernel::Config config;
  config.name = "quickstart";
  config.frames = 256;        // 1 MB of physical memory.
  config.page_size = 4096;
  Kernel kernel(config);
  std::printf("booted kernel '%s': %u frames of %llu bytes\n", kernel.name().c_str(),
              kernel.phys().frame_count(), (unsigned long long)kernel.page_size());

  // 2. Tasks and threads (§3.1) and a message round trip (§3.2).
  std::shared_ptr<Task> server = kernel.CreateTask(nullptr, "echo-server");
  std::shared_ptr<Task> client = kernel.CreateTask(nullptr, "client");
  PortPair service = server->PortAllocate("echo");
  std::shared_ptr<Port> service_port = service.receive.port();
  std::shared_ptr<Thread> echo = server->SpawnThread([service_port](Thread&) {
    Result<Message> req = service_port->Dequeue(std::chrono::seconds(5));
    if (req.ok()) {
      Message reply(req.value().id());
      reply.PushString("pong: " + req.value().TakeString().value_or("?"));
      MsgSend(req.value().reply_port(), std::move(reply));
    }
  });
  Message ping(1);
  ping.PushString("ping");
  Result<Message> pong = MsgRpc(service.send, std::move(ping));
  const std::string reply = pong.ok() ? pong.value().TakeString().value_or("") : "";
  std::printf("rpc reply: %s\n", reply.c_str());
  echo->Join();
  bool ok = reply == "pong: ping";

  // 3. Virtual memory (Table 3-3): allocate, write, protect.
  VmOffset mem = client->VmAllocate(8 * 4096).value();
  const char note[] = "memory and communication are duals";
  client->Write(mem, note, sizeof(note));
  char readback[64] = {};
  client->Read(mem, readback, sizeof(note));
  std::printf("vm round trip: %s\n", readback);
  ok &= std::strcmp(readback, note) == 0;

  // 4. The §4.1 filesystem: read-whole-file / write-whole-file backed by an
  // external pager.
  SimDisk fs_disk(1024, 4096, &kernel.clock());
  FsServer fs(&kernel, &fs_disk);
  fs.StartServer();
  FsClient files(client.get(), fs.service_port());

  files.Create("greeting");
  const std::string contents = "Hello from the Mach external pager!";
  VmOffset buf = client->VmAllocate(4096).value();
  client->Write(buf, contents.data(), contents.size());
  files.WriteFile("greeting", buf, contents.size());

  // fs_read_file returns new copy-on-write virtual memory (§4.1).
  Result<FsClient::ReadResult> read = files.ReadFile("greeting");
  if (!read.ok()) {
    std::printf("fs_read_file failed: %s\n", KernReturnName(read.status()));
    return 1;
  }
  FsClient::ReadResult file = read.value();
  std::vector<char> data(file.size + 1, 0);
  client->Read(file.address, data.data(), file.size);
  std::printf("file contents (%llu bytes, mapped at 0x%llx): %s\n",
              (unsigned long long)file.size, (unsigned long long)file.address, data.data());
  ok &= std::string(data.data()) == contents;

  // Randomly change the contents — other readers still see the original
  // (copy-on-write), until we explicitly store the changes back.
  std::mt19937 rng(42);
  for (int i = 0; i < 5; ++i) {
    VmOffset at = file.address + rng() % file.size;
    char c = 'A' + static_cast<char>(rng() % 26);
    client->Write(at, &c, 1);
  }
  std::vector<char> written(file.size + 1, 0);
  client->Read(file.address, written.data(), file.size);
  files.WriteFile("greeting", file.address, file.size);
  // The server's pager_flush_request runs inside this kernel before it
  // replies, so the re-read already sees the stored changes.
  Result<FsClient::ReadResult> changed = files.ReadFile("greeting");
  if (changed.ok()) {
    client->Read(changed.value().address, data.data(), changed.value().size);
  }
  std::printf("after random changes:      %s\n", data.data());
  ok &= data == written;

  // 5. Kernel statistics (vm_statistics).
  VmStatistics st = client->VmStats();
  std::printf("stats: faults=%llu zero_fills=%llu pageins=%llu hits=%llu/%llu lookups\n",
              (unsigned long long)st.faults, (unsigned long long)st.zero_fill_count,
              (unsigned long long)st.pageins, (unsigned long long)st.hits,
              (unsigned long long)st.lookups);

  client.reset();
  server.reset();
  fs.StopServer();
  std::printf("%s\n", ok ? "done." : "MISMATCH");
  return ok ? 0 : 1;
}
