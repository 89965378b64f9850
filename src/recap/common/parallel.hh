/**
 * @file
 * Deterministic parallel execution engine.
 *
 * The evaluation grid of the paper — candidate policies × cache
 * configurations × traces — is embarrassingly parallel, but naive
 * threading would wreck the reproducibility contract that everything
 * else in recap is built on (every experiment replays bit-for-bit
 * from an explicit seed). The engine here is therefore designed
 * around a determinism contract rather than raw throughput:
 *
 *  - Work is expressed as an indexed loop (parallelFor): task i
 *    computes result slot i and nothing else, so the assembled output
 *    is independent of scheduling order.
 *  - Randomness inside task i must come from an Rng seeded with
 *    deriveTaskSeed(rootSeed, i): the per-task stream depends only on
 *    the root seed and the stable task index, never on which worker
 *    ran the task or when.
 *  - numThreads <= 1 executes inline on the calling thread (the exact
 *    legacy serial path); any numThreads yields bit-identical results
 *    by construction, which tests/test_parallel_determinism.cc
 *    asserts end to end.
 *
 * TaskPool itself is deliberately simple: fixed worker threads, one
 * bounded FIFO queue (no work stealing), and first-exception
 * propagation to the waiter.
 */

#ifndef RECAP_COMMON_PARALLEL_HH_
#define RECAP_COMMON_PARALLEL_HH_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace recap
{

/**
 * Derives the seed of task @p taskIndex from @p rootSeed by SplitMix64
 * mixing. Stable across platforms, runs, and thread counts; distinct
 * indices give statistically independent streams.
 */
uint64_t deriveTaskSeed(uint64_t rootSeed, uint64_t taskIndex);

/**
 * A fixed-size worker-thread pool with a bounded task queue.
 *
 * submit() blocks while the queue is at capacity (backpressure instead
 * of unbounded buffering). The first exception thrown by any task is
 * captured and rethrown by the next wait(); later exceptions of the
 * same batch are dropped. shutdown() drains the queue, then joins the
 * workers; the destructor calls it implicitly.
 */
class TaskPool
{
  public:
    /**
     * @param numThreads    Worker count; 0 selects hardwareThreads().
     * @param queueCapacity Max queued (not yet running) tasks; 0
     *                      selects 4 * numThreads + 16.
     */
    explicit TaskPool(unsigned numThreads = 0,
                      std::size_t queueCapacity = 0);

    /** Drains the queue and joins (exceptions are discarded). */
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueues @p task; blocks while the queue is full.
     * @throws UsageError after shutdown().
     */
    void submit(std::function<void()> task);

    /**
     * Blocks until every submitted task has finished, then rethrows
     * the first captured task exception, if any (clearing it).
     */
    void wait();

    /**
     * Drains remaining queued tasks, joins all workers, and rejects
     * further submit() calls. Idempotent.
     */
    void shutdown();

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable queueNotFull_;
    std::condition_variable queueNotEmpty_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t capacity_;
    /** Tasks submitted but not yet finished (queued + running). */
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
    std::vector<std::thread> workers_;
};

/**
 * Runs @p body(i) for every i in [0, count) on @p pool, in contiguous
 * index chunks, and blocks until the pool is idle (if the pool has
 * other outstanding tasks, those are waited for too). Rethrows the
 * first task exception.
 */
void parallelFor(TaskPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

/**
 * Convenience form: resolves @p numThreads (0 = hardwareThreads()),
 * then either runs the loop inline (numThreads <= 1, count <= 1, or
 * when called from a pool worker thread — the exact serial path,
 * exceptions propagate unchanged), on the process-wide sharedPool()
 * (numThreads == 0, so repeated batch calls stop paying per-call
 * thread spin-up), or on a temporary TaskPool of the explicit size.
 */
void parallelFor(std::size_t count, unsigned numThreads,
                 const std::function<void(std::size_t)>& body);

/** Resolves a num_threads knob: 0 means hardwareThreads(). */
unsigned resolveThreads(unsigned numThreads);

/**
 * The process-wide hardware-width pool reused by every
 * `numThreads == 0` parallelFor batch (sweeps, multi-policy
 * simulation, batch query evaluation). Lazily constructed, joined at
 * process exit. Concurrent batches from different external threads
 * share it safely (results are slot-indexed), but a batch's wait
 * also waits out the other batch's tasks — callers needing isolation
 * pass an explicit thread count.
 */
TaskPool& sharedPool();

/** True while the calling thread is executing a TaskPool task. */
bool onPoolWorkerThread();

} // namespace recap

#endif // RECAP_COMMON_PARALLEL_HH_
