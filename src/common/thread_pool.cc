#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace ecg {
namespace {
thread_local bool t_serial_mode = false;
// Set on pool worker threads for their whole lifetime; see the re-entrancy
// note on ParallelFor in the header.
thread_local bool t_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (shutting_down_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::SetSerialMode(bool serial) { t_serial_mode = serial; }
bool ThreadPool::serial_mode() { return t_serial_mode; }

void ThreadPool::ParallelFor(size_t total, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (total == 0) return;
  if (t_serial_mode || t_pool_worker) {
    fn(0, total);
    return;
  }
  grain = std::max<size_t>(grain, 1);
  const size_t max_chunks = num_threads() + 1;
  const size_t chunk = std::max(grain, (total + max_chunks - 1) / max_chunks);
  const size_t num_chunks = (total + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    fn(0, total);
    return;
  }

  // `remaining` is only touched under done_mu: a chunk that counted down
  // outside the lock could let the caller see zero, return and destroy
  // done_mu before that chunk's thread locked it to notify.
  size_t remaining = num_chunks - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t c = 1; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(total, begin + chunk);
    Enqueue([&, begin, end] {
      fn(begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  // The calling thread takes the first chunk instead of idling.
  fn(0, std::min(total, chunk));
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    size_t n = 0;  // 0 -> hardware concurrency
    if (const char* env = std::getenv("ECG_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) n = static_cast<size_t>(v);
    }
    return new ThreadPool(n);
  }();
  return *pool;
}

}  // namespace ecg
