// Agora-style shared blackboard (§8.4): hypotheses are posted to a
// consistent network-shared-memory region by agents on different "hosts",
// announced by messages, and evaluated in place. Shared memory carries the
// data; message passing carries the coordination — the duality in one
// program. Exits non-zero unless every hypothesis comes back scored.
//
//   $ ./examples/shared_blackboard

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/shm/shm_broker.h"
#include "src/net/net_link.h"

using namespace mach;

namespace {
constexpr VmSize kPage = 4096;
constexpr int kHypotheses = 24;
// One hypothesis per page: §7 — efficiency of network shared memory depends
// on read/write locality, so the blackboard avoids false sharing.
constexpr VmSize kSlot = kPage;

std::unique_ptr<Kernel> MakeHost(const std::string& name) {
  Kernel::Config config;
  config.name = name;
  config.frames = 128;
  config.page_size = kPage;
  return std::make_unique<Kernel>(config);
}

uint64_t Hypothesis(uint32_t i) { return 0xACC0000000000000ull | (i * 31 + 7); }
uint64_t Score(uint64_t hypothesis) { return (hypothesis & 0xFFFF) % 97 + 1; }  // Never 0.
}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  // Two hosts connected by a NORMA-class network (hundreds of microseconds
  // per message, §7), plus the blackboard server on host A: a 1-shard
  // broker, i.e. the centralised §4.2 shared-memory server.
  auto host_a = MakeHost("acoustic-host");
  auto host_b = MakeHost("semantic-host");
  SimClock net_clock;
  NetLink link(&host_a->vm(), &host_b->vm(), &net_clock, kNormaLatency);

  ShmBroker blackboard_server("blackboard", 1, ShmOptions{});
  blackboard_server.Start();
  ShmRegionInfoArgs board = blackboard_server.GetRegion("blackboard", kHypotheses * kSlot);

  std::shared_ptr<Task> acoustic = host_a->CreateTask(nullptr, "acoustic-agent");
  std::shared_ptr<Task> semantic = host_b->CreateTask(nullptr, "semantic-agent");
  VmOffset board_a = ShmBroker::MapRegion(*acoustic, board).value();
  // The remote host resolves the same region through the network: the
  // reply's memory object arrives as a link proxy.
  Result<ShmRegionInfoArgs> remote_board = ShmBroker::GetRegionVia(
      link.ProxyForB(blackboard_server.service_port()), "blackboard", kHypotheses * kSlot);
  if (!remote_board.ok()) {
    std::printf("host B could not resolve the blackboard: %s\n",
                KernReturnName(remote_board.status()));
    return 1;
  }
  VmOffset board_b = ShmBroker::MapRegion(*semantic, remote_board.value()).value();

  PortPair announce = PortAllocate("hypothesis-announcements");
  SendRight announce_on_b = announce.send;

  std::printf("blackboard mapped: host A at 0x%llx, host B at 0x%llx\n",
              (unsigned long long)board_a, (unsigned long long)board_b);

  // The acoustic agent posts hypotheses into shared memory and announces
  // each with a message.
  std::shared_ptr<Thread> poster = acoustic->SpawnThread([&](Thread& self) {
    for (uint32_t i = 0; i < kHypotheses; ++i) {
      self.task().WriteValue<uint64_t>(board_a + i * kSlot, Hypothesis(i));
      Message msg(1);
      msg.PushU32(i);
      MsgSend(announce_on_b, std::move(msg), std::chrono::seconds(5));
    }
  });

  // The semantic agent evaluates each announced hypothesis directly from
  // the (coherent) blackboard and writes its score beside it.
  std::shared_ptr<Thread> evaluator = semantic->SpawnThread([&](Thread& self) {
    for (int n = 0; n < kHypotheses; ++n) {
      Result<Message> msg = MsgReceive(announce.receive, std::chrono::seconds(10));
      if (!msg.ok()) {
        return;
      }
      uint32_t slot = msg.value().TakeU32().value_or(0);
      uint64_t hypothesis = 0;
      for (int tries = 0; tries < 5000 && hypothesis == 0; ++tries) {
        hypothesis = self.task().ReadValue<uint64_t>(board_b + slot * kSlot).value_or(0);
        if (hypothesis == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (hypothesis != 0) {
        self.task().WriteValue<uint64_t>(board_b + slot * kSlot + 8, Score(hypothesis));
      }
    }
  });

  poster->Join();
  evaluator->Join();

  // The acoustic agent reads the scores back through the same shared pages.
  int scored = 0;
  for (uint32_t i = 0; i < kHypotheses; ++i) {
    uint64_t score = 0;
    for (int tries = 0; tries < 5000; ++tries) {
      score = acoustic->ReadValue<uint64_t>(board_a + i * kSlot + 8).value_or(0);
      if (score != 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (i < 5) {
      std::printf("hypothesis %2u scored %llu\n", i, (unsigned long long)score);
    }
    scored += score == Score(Hypothesis(i)) ? 1 : 0;
  }
  std::printf("... %d of %d hypotheses scored across two hosts\n", scored, kHypotheses);
  const ShmCounters coherence = blackboard_server.aggregate_counters();
  std::printf("coherence traffic: %llu reads granted, %llu writes granted, "
              "%llu invalidations, %llu recalls\n",
              (unsigned long long)coherence.read_grants,
              (unsigned long long)coherence.write_grants,
              (unsigned long long)coherence.invalidations, (unsigned long long)coherence.recalls);
  std::printf("network: %llu messages, %llu bytes, %.2f ms simulated wire time\n",
              (unsigned long long)link.messages_forwarded(),
              (unsigned long long)link.bytes_forwarded(), net_clock.NowNs() / 1e6);

  acoustic.reset();
  semantic.reset();
  blackboard_server.Stop();
  return scored == kHypotheses ? 0 : 1;
}
