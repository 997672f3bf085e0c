#include "incr/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/assert.hpp"
#include "common/lanes.hpp"
#include "obs/session.hpp"

namespace manet::incr {
namespace {

/// Lane of the current thread: workers set theirs once at startup,
/// every external thread stays 0. A job that re-enters the pool (the
/// pipelined repair driver calling run() for its stages) keeps helping
/// on its worker's lane, so lane-indexed scratch stays exclusive.
thread_local std::size_t tls_lane = 0;

std::uint64_t us_between(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
}

}  // namespace

/// One batch of jobs: claim cursor, completion count, first error.
/// Guarded by the owning pool's mutex except for `fn`, which is
/// immutable after construction and invoked outside the lock.
struct WorkerPool::Ticket::Batch {
  Job fn;
  std::size_t jobs = 0;
  std::size_t next_job = 0;
  std::size_t done = 0;
  std::exception_ptr first_error;
};

WorkerPool::WorkerPool(std::size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {
  MANET_REQUIRE(lanes_ <= kMaxLanes, "worker pool lane count out of range");
  threads_.reserve(lanes_ - 1);
  for (std::size_t lane = 1; lane < lanes_; ++lane)
    threads_.emplace_back([this, lane] { worker_loop(lane); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::set_obs(obs::Session* session) {
  metrics_on_ = session != nullptr;
  lane_busy_us_.assign(lanes_, obs::Counter());
  lane_jobs_.assign(lanes_, obs::Counter());
  queue_depth_ = obs::Gauge();
  if (!session) return;
  auto& r = session->registry;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    const std::string prefix = "incr.lane." + std::to_string(lane);
    lane_busy_us_[lane] = r.counter(prefix + ".busy_us");
    lane_jobs_[lane] = r.counter(prefix + ".jobs");
  }
  queue_depth_ = r.gauge("incr.pool.queue_depth");
}

void WorkerPool::execute(Ticket::Batch& batch, std::size_t job,
                         std::size_t lane,
                         std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr err;
  const auto t0 = metrics_on_ ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  try {
    batch.fn(job, lane);
  } catch (...) {
    err = std::current_exception();
  }
  if (metrics_on_) {
    lane_busy_us_[lane].add(
        us_between(t0, std::chrono::steady_clock::now()));
    lane_jobs_[lane].add();
  }
  lock.lock();
  if (err && !batch.first_error) batch.first_error = err;
  if (++batch.done == batch.jobs) done_cv_.notify_all();
}

void WorkerPool::worker_loop(std::size_t lane) {
  tls_lane = lane;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, nothing left to drain
    const std::shared_ptr<Ticket::Batch> batch = queue_.front();
    const std::size_t job = batch->next_job++;
    if (batch->next_job == batch->jobs) {
      queue_.pop_front();
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    execute(*batch, job, lane, lock);
  }
}

void WorkerPool::run(std::size_t jobs, const Job& fn) {
  if (jobs == 0) return;
  const std::size_t lane = std::min(tls_lane, lanes_ - 1);
  if (lanes_ == 1 || jobs == 1) {
    // Inline fast path: no synchronization at all.
    for (std::size_t job = 0; job < jobs; ++job) fn(job, lane);
    return;
  }

  // The batch lives on this stack frame: run() returns only after
  // observing done == jobs under the mutex, at which point no claimer
  // holds a reference any more.
  Ticket::Batch batch;
  batch.fn = fn;
  batch.jobs = jobs;
  const std::shared_ptr<Ticket::Batch> ref(
      std::shared_ptr<Ticket::Batch>{}, &batch);

  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(ref);
  queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  work_cv_.notify_all();
  // The caller drains its own batch alongside the workers.
  while (batch.next_job < batch.jobs) {
    const std::size_t job = batch.next_job++;
    if (batch.next_job == batch.jobs) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), ref));
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    execute(batch, job, lane, lock);
  }
  done_cv_.wait(lock, [&] { return batch.done == batch.jobs; });

  if (batch.first_error) {
    const std::exception_ptr err = batch.first_error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

WorkerPool::Ticket WorkerPool::submit(std::size_t jobs, Job fn) {
  auto batch = std::make_shared<Ticket::Batch>();
  batch->fn = std::move(fn);
  batch->jobs = jobs;
  if (jobs > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(batch);
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    work_cv_.notify_all();
  }
  return Ticket(std::move(batch));
}

void WorkerPool::wait(Ticket& ticket) {
  if (!ticket.batch_) return;
  const std::shared_ptr<Ticket::Batch> batch = std::move(ticket.batch_);
  const std::size_t lane = std::min(tls_lane, lanes_ - 1);

  std::unique_lock<std::mutex> lock(mu_);
  while (batch->next_job < batch->jobs) {
    const std::size_t job = batch->next_job++;
    if (batch->next_job == batch->jobs) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), batch));
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    execute(*batch, job, lane, lock);
  }
  done_cv_.wait(lock, [&] { return batch->done == batch->jobs; });

  if (batch->first_error) {
    const std::exception_ptr err = batch->first_error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace manet::incr
