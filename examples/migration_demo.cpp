// Copy-on-reference task migration (§8.2): a working task is frozen on one
// host, its address space is represented by memory objects, and a new task
// on another host resumes the computation — pages move across the (NORMA)
// network only as they are referenced. Exits non-zero unless the migrated
// computation's accumulator is the one the unmigrated run would produce.
//
//   $ ./examples/migration_demo

#include <cstdio>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/migrate/migration_manager.h"
#include "src/net/net_link.h"

using namespace mach;

namespace {
constexpr VmSize kPage = 4096;

std::unique_ptr<Kernel> MakeHost(const std::string& name) {
  Kernel::Config config;
  config.name = name;
  config.frames = 256;
  config.page_size = kPage;
  return std::make_unique<Kernel>(config);
}
}  // namespace

int main() {
  auto origin = MakeHost("origin");
  auto destination = MakeHost("destination");
  SimClock net_clock;
  NetLink link(&origin->vm(), &destination->vm(), &net_clock, kNormaLatency);

  // A task with a 64-page address space: a big lookup table plus a small
  // hot working area.
  std::shared_ptr<Task> worker = origin->CreateTask(nullptr, "worker");
  constexpr VmSize kTablePages = 60;
  VmOffset table = worker->VmAllocate(kTablePages * kPage).value();
  for (VmOffset p = 0; p < kTablePages; ++p) {
    worker->WriteValue<uint64_t>(table + p * kPage, p * p);
  }
  VmOffset state = worker->VmAllocate(kPage).value();
  worker->WriteValue<uint64_t>(state, 0);      // accumulator
  worker->WriteValue<uint64_t>(state + 8, 0);  // next index

  // Run a bit of the computation on the origin host.
  std::shared_ptr<Thread> phase1 = worker->SpawnThread([&](Thread& self) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 10; ++i) {
      acc += self.task().ReadValue<uint64_t>(table + i * kPage).value_or(0);
    }
    self.task().WriteValue<uint64_t>(state, acc);
    self.task().WriteValue<uint64_t>(state + 8, 10);
  });
  phase1->Join();
  std::printf("phase 1 on %s: accumulated %llu over 10 pages\n", origin->name().c_str(),
              (unsigned long long)worker->ReadValue<uint64_t>(state).value());

  // Migrate by copy-on-reference across the network link.
  MigrationManager migrator;
  migrator.Start();
  MigrationManager::Options options;
  options.strategy = MigrationManager::Strategy::kCopyOnReference;
  options.export_port = [&](SendRight object) { return link.ProxyForB(std::move(object)); };
  std::shared_ptr<Task> moved = migrator.Migrate(worker, destination.get(), options).value();
  std::printf("migrated to %s: %llu pages moved so far (of %llu total)\n",
              destination->name().c_str(), (unsigned long long)migrator.pages_transferred(),
              (unsigned long long)(kTablePages + 1));

  // Resume: the migrated task touches only 10 more table pages; only those
  // (plus the state page) cross the network.
  std::shared_ptr<Thread> phase2 = moved->SpawnThread([&](Thread& self) {
    uint64_t acc = self.task().ReadValue<uint64_t>(state).value_or(0);
    uint64_t next = self.task().ReadValue<uint64_t>(state + 8).value_or(0);
    for (uint64_t i = next; i < next + 10; ++i) {
      acc += self.task().ReadValue<uint64_t>(table + i * kPage).value_or(0);
    }
    self.task().WriteValue<uint64_t>(state, acc);
    self.task().WriteValue<uint64_t>(state + 8, next + 10);
  });
  phase2->Join();

  uint64_t expect = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    expect += i * i;
  }
  uint64_t got = moved->ReadValue<uint64_t>(state).value();
  std::printf("phase 2 on %s: accumulator=%llu (expected %llu) %s\n",
              destination->name().c_str(), (unsigned long long)got,
              (unsigned long long)expect, got == expect ? "OK" : "MISMATCH");
  std::printf("copy-on-reference moved %llu pages, %llu demand requests; "
              "%.2f ms simulated wire time\n",
              (unsigned long long)migrator.pages_transferred(),
              (unsigned long long)migrator.demand_requests(), net_clock.NowNs() / 1e6);
  std::printf("(an eager migration would have moved all %llu pages up front)\n",
              (unsigned long long)(kTablePages + 1));

  moved.reset();
  worker.reset();
  migrator.Stop();
  return got == expect ? 0 : 1;
}
