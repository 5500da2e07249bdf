// A periodic clock for a NetLink's failure detector. The link sends
// heartbeats only when Tick() is called; a test or workload whose faulters
// park on a quiet, partitioned link keeps a LinkTimer, which calls Tick()
// every 20 ms of wall time until it is destroyed. Destroy it before the link.

#ifndef TESTS_WORKLOAD_LINK_TIMER_H_
#define TESTS_WORKLOAD_LINK_TIMER_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stop_token>
#include <thread>

#include "src/net/net_link.h"

namespace mach {

class LinkTimer {
 public:
  explicit LinkTimer(NetLink* link)
      : thread_([this, link](std::stop_token stop) {
          std::unique_lock<std::mutex> lk(mu_);
          while (!cv_.wait_for(lk, stop, std::chrono::milliseconds(20),
                               [&stop] { return stop.stop_requested(); })) {
            link->Tick();
          }
        }) {}

  LinkTimer(const LinkTimer&) = delete;
  LinkTimer& operator=(const LinkTimer&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // Last: stopped and joined before the rest go.
};

}  // namespace mach

#endif  // TESTS_WORKLOAD_LINK_TIMER_H_
