#include "runtime/task_pool.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "util/error.h"

namespace ct::runtime {

namespace {
/// Sentinel "self" for threads without an own deque (submitters): steal only.
constexpr std::size_t kNoOwnDeque = static_cast<std::size_t>(-1);

/// Scheduling telemetry: task/steal/backpressure counts plus the peak
/// instantaneous queue depth observed at batch submission.
struct PoolMetrics {
  obs::Counter tasks{"pool.tasks"};
  obs::Counter steals{"pool.steals"};
  obs::Counter inline_runs{"pool.inline_runs"};
  obs::Gauge queue_depth_peak{"pool.queue_depth_peak"};
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

CancellationToken::CancellationToken(std::chrono::milliseconds timeout) {
  if (timeout.count() > 0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() + timeout;
  }
}

bool CancellationToken::cancelled() const noexcept {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
}

void CancellationToken::poll(std::string_view origin) const {
  if (cancelled_.load(std::memory_order_acquire)) {
    throw util::Error(util::ErrorCode::kCancelled, origin,
                      "cancellation requested");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    throw util::Error(util::ErrorCode::kTimeout, origin,
                      "cooperative watchdog deadline expired");
  }
}

TaskPool::TaskPool(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads_ = std::max(threads, 1u);
}

void TaskPool::start_workers() {
  std::call_once(start_once_, [this] {
    deques_.resize(threads_);
    workers_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      workers_.emplace_back([this, t] { worker_loop(t); });
    }
    running_.store(threads_, std::memory_order_release);
  });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool TaskPool::try_pop(std::size_t self, Task& out) {
  if (self != kNoOwnDeque && !deques_[self].empty()) {
    out = deques_[self].back();  // own work LIFO: the freshest, warmest chunk
    deques_[self].pop_back();
    return true;
  }
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    if (i == self || deques_[i].empty()) continue;
    out = deques_[i].front();  // steal FIFO: the oldest, coarsest chunk
    deques_[i].pop_front();
    pool_metrics().steals.inc();
    return true;
  }
  return false;
}

void TaskPool::run_task(Task& task) noexcept {
  pool_metrics().tasks.inc();
  std::exception_ptr error;
  try {
    (*task.batch->fn)(task.begin, task.end);
  } catch (...) {
    error = std::current_exception();
  }
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !task.batch->error) task.batch->error = error;
    done = --task.batch->remaining == 0;
  }
  if (done) done_cv_.notify_all();
}

void TaskPool::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Task task;
    if (try_pop(self, task)) {
      lock.unlock();
      run_task(task);
      lock.lock();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

void TaskPool::parallel_for_ranges(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (n + chunk - 1) / chunk;

  if (threads_ <= 1 || chunks == 1) {
    // The serial path IS the parallel path at chunk granularity: same
    // boundaries, same order, exceptions propagate directly.
    for (std::size_t c = 0; c < chunks; ++c) {
      fn(c * chunk, std::min(n, (c + 1) * chunk));
    }
    return;
  }
  start_workers();

  Batch batch;
  batch.fn = &fn;
  batch.remaining = chunks;

  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t c = 0; c < chunks; ++c) {
    Task task{&batch, c * chunk, std::min(n, (c + 1) * chunk)};
    if (deques_[next_victim_].size() >= kDequeCapacity) {
      // Bounded queues: instead of growing, apply backpressure by doing
      // the work ourselves right now.
      pool_metrics().inline_runs.inc();
      lock.unlock();
      run_task(task);
      lock.lock();
      continue;
    }
    deques_[next_victim_].push_back(task);
    next_victim_ = (next_victim_ + 1) % deques_.size();
  }
  if (obs::enabled()) {
    std::size_t depth = 0;
    for (const auto& d : deques_) depth += d.size();
    pool_metrics().queue_depth_peak.max(depth);
  }
  lock.unlock();
  work_cv_.notify_all();

  // Help until our batch drains: makes nested calls deadlock-free and the
  // submitter a productive participant rather than a blocked thread.
  lock.lock();
  while (batch.remaining > 0) {
    Task task;
    if (try_pop(kNoOwnDeque, task)) {
      lock.unlock();
      run_task(task);
      lock.lock();
    } else {
      done_cv_.wait(lock);
    }
  }
  const std::exception_ptr error = batch.error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void TaskPool::parallel_for_each(std::size_t n, std::size_t chunk,
                                 const std::function<void(std::size_t)>& fn) {
  parallel_for_ranges(n, chunk, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

IsolatedRunResult TaskPool::for_each_isolated(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, unsigned, const CancellationToken&)>&
        fn,
    const TaskOptions& options) {
  IsolatedRunResult result;
  std::mutex ledger_mutex;  // guards result between concurrent chunks

  parallel_for_ranges(n, chunk, [&](std::size_t begin, std::size_t end) {
    // Chunk-local ledger: one lock per chunk, not per failure.
    std::vector<TaskFailure> failures;
    std::uint64_t retries = 0;
    for (std::size_t i = begin; i < end; ++i) {
      for (unsigned attempt = 1;; ++attempt) {
        // Fresh token per attempt: the watchdog deadline restarts, so a
        // retry is judged on its own time budget.
        const CancellationToken token(options.timeout);
        try {
          fn(i, attempt, token);
          retries += attempt - 1;
          break;
        } catch (...) {
          if (attempt <= options.max_retries) continue;
          failures.push_back(TaskFailure{i, attempt, std::current_exception()});
          retries += attempt - 1;
          break;
        }
      }
    }
    if (!failures.empty() || retries != 0) {
      std::lock_guard<std::mutex> lock(ledger_mutex);
      result.retries += retries;
      result.failures.insert(result.failures.end(),
                             std::make_move_iterator(failures.begin()),
                             std::make_move_iterator(failures.end()));
    }
  });

  // Chunks complete in scheduling order; normalize so the ledger is a pure
  // function of fn's behavior, not of the thread count.
  std::sort(result.failures.begin(), result.failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
  return result;
}

}  // namespace ct::runtime
