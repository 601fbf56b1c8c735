#include "common/sampling_profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "common/log.h"

// The sampling profiler is excluded under tsan/asan: the SIGPROF handler
// interrupts threads at arbitrary instructions and walks raw stack memory,
// which ThreadSanitizer's signal interception and AddressSanitizer's
// stack poisoning both (correctly, from their point of view) flag — tsan
// deadlocks in its signal trampoline under per-thread CPU timers, and
// asan reports stack-use-after-scope for frames the unwinder inspects
// mid-epilogue. The portable answer is a compile-time stub: sanitizer
// builds report Unavailable and the hwobs tests skip-with-message.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TAXOREC_SAMPLING_STUB 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TAXOREC_SAMPLING_STUB 1
#endif
#endif
#if !defined(__linux__) || !defined(__x86_64__)
// Frame-pointer unwinding below is x86-64 ucontext-specific.
#define TAXOREC_SAMPLING_STUB 1
#endif

#if !defined(TAXOREC_SAMPLING_STUB)

#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstring>

namespace taxorec {
namespace {

constexpr int kMaxFrames = 26;
// Ring capacity in samples; the handler drops (and counts) past this.
constexpr size_t kRingCapacity = 1 << 16;

struct Sample {
  int32_t depth = 0;
  uintptr_t pc[kMaxFrames];
};

/// Per-thread registration record. The handler only ever touches the
/// record of the thread it interrupted (via thread_local), so the fields
/// written at registration time are plain values.
struct ThreadReg {
  pid_t tid = 0;
  clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  timer_t timer{};
  bool timer_armed = false;
  bool registered = false;
  int64_t armed_cpu_ns = 0;  // the thread's CPU clock when its timer armed
};

thread_local ThreadReg tl_reg;

struct SamplingState {
  std::mutex mu;                   // registry + arm/disarm transitions
  std::vector<ThreadReg*> threads;
  Sample* ring = nullptr;          // allocated at first Start, kept
  uint64_t interval_us = 1000;
  int64_t sampled_cpu_ns = 0;      // CPU time the disarmed timers covered
  bool handler_installed = false;
};

SamplingState& State() {
  static SamplingState* state = new SamplingState();
  return *state;
}

// Read by the signal handler; the mutex-ordered writes in Start/Stop are
// published by the relaxed armed flag. The ring is allocated once and
// never moves, so the handler sees either null or the ring.
std::atomic<bool> g_armed{false};
std::atomic<Sample*> g_ring{nullptr};
std::atomic<uint64_t> g_head{0};
std::atomic<uint64_t> g_dropped{0};

/// Async-signal-safe frame-pointer unwind of the interrupted context.
/// Every dereference is bounds-checked against the thread's stack extent
/// (recorded at registration), so a corrupt or FP-less frame terminates
/// the walk instead of faulting.
void SigprofHandler(int, siginfo_t*, void* ucontext) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  Sample* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;

  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  uintptr_t pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const uintptr_t sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  const uintptr_t lo = tl_reg.stack_lo != 0 ? std::max(tl_reg.stack_lo, sp)
                                            : sp;
  const uintptr_t hi = tl_reg.stack_hi;

  Sample local;
  local.pc[local.depth++] = pc;
  while (local.depth < kMaxFrames) {
    // A valid frame record is two pointers inside [lo, hi): saved RBP then
    // the return address. Chains must strictly ascend (stacks grow down).
    if (fp < lo || fp + 2 * sizeof(uintptr_t) > hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t next_fp = *reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret =
        *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    if (ret == 0) break;
    local.pc[local.depth++] = ret;
    if (next_fp <= fp) break;
    fp = next_fp;
  }

  const uint64_t idx = g_head.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kRingCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring[idx] = local;
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Starts a per-thread CPU-time timer delivering SIGPROF to `reg`'s
/// thread. Caller holds State().mu.
bool ArmTimer(ThreadReg* reg, uint64_t interval_us) {
  if (reg->timer_armed) return true;
  sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = reg->tid;
  if (timer_create(reg->cpu_clock, &sev, &reg->timer) != 0) return false;
  itimerspec spec{};
  spec.it_interval.tv_sec = static_cast<time_t>(interval_us / 1000000);
  spec.it_interval.tv_nsec = static_cast<long>((interval_us % 1000000) * 1000);
  spec.it_value = spec.it_interval;
  reg->armed_cpu_ns = CpuNs(reg->cpu_clock);
  if (timer_settime(reg->timer, 0, &spec, nullptr) != 0) {
    timer_delete(reg->timer);
    return false;
  }
  reg->timer_armed = true;
  return true;
}

/// Caller holds State().mu.
void DisarmTimer(ThreadReg* reg, SamplingState* state) {
  if (!reg->timer_armed) return;
  timer_delete(reg->timer);
  state->sampled_cpu_ns += CpuNs(reg->cpu_clock) - reg->armed_cpu_ns;
  reg->timer_armed = false;
}

/// Registers the calling thread into `state`. Caller holds State().mu.
void RegisterLocked(SamplingState* state) {
  if (tl_reg.registered) return;
  tl_reg.tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (pthread_getcpuclockid(pthread_self(), &tl_reg.cpu_clock) != 0) {
    tl_reg.cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      tl_reg.stack_lo = reinterpret_cast<uintptr_t>(addr);
      tl_reg.stack_hi = tl_reg.stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  tl_reg.registered = true;
  state->threads.push_back(&tl_reg);
  if (g_armed.load(std::memory_order_relaxed)) {
    ArmTimer(&tl_reg, state->interval_us);
  }
}

}  // namespace

bool SamplingProfilerSupported() { return true; }

bool SamplingActive() { return g_armed.load(std::memory_order_relaxed); }

Status StartSampling(const SamplingOptions& options) {
  if (options.interval_us == 0) {
    return Status::InvalidArgument("sampling interval must be > 0");
  }
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (g_armed.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("sampling already active");
  }
  if (state.ring == nullptr) state.ring = new Sample[kRingCapacity];
  state.interval_us = options.interval_us;
  g_ring.store(state.ring, std::memory_order_release);

  if (!state.handler_installed) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &SigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      return Status::Unavailable("sigaction(SIGPROF) failed");
    }
    state.handler_installed = true;
  }

  RegisterLocked(&state);
  g_armed.store(true, std::memory_order_relaxed);
  bool any = false;
  for (ThreadReg* reg : state.threads) {
    any = ArmTimer(reg, state.interval_us) || any;
  }
  if (!any) {
    g_armed.store(false, std::memory_order_relaxed);
    TAXOREC_LOG_EVERY_N(WARN, 1u << 30)
        << "sampling profiler unavailable (timer_create failed); "
           "flame output will be empty";
    return Status::Unavailable("timer_create failed for every thread");
  }
  return Status::OK();
}

void StopSampling() {
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  g_armed.store(false, std::memory_order_relaxed);
  for (ThreadReg* reg : state.threads) DisarmTimer(reg, &state);
}

void ClearSamples() {
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  g_head.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  state.sampled_cpu_ns = 0;
}

uint64_t SampleCount() {
  return std::min<uint64_t>(g_head.load(std::memory_order_relaxed),
                            kRingCapacity);
}

uint64_t SampleDroppedCount() {
  return g_dropped.load(std::memory_order_relaxed);
}

SampleRate SamplingRate() {
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  SampleRate rate;
  rate.cpu_seconds = static_cast<double>(state.sampled_cpu_ns) * 1e-9;
  rate.samples = g_head.load(std::memory_order_relaxed);
  rate.requested_per_cpu_second = 1e6 / static_cast<double>(state.interval_us);
  return rate;
}

std::map<std::string, uint64_t> FoldedStacks() {
  std::map<std::string, uint64_t> folded;
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  const uint64_t count = SampleCount();
  std::map<uintptr_t, std::string> symbols;
  for (uint64_t s = 0; s < count; ++s) {
    const Sample& sample = state.ring[s];
    std::string stack;
    // Samples record leaf→root; folded format wants root first.
    for (int f = sample.depth - 1; f >= 0; --f) {
      auto it = symbols.find(sample.pc[f]);
      if (it == symbols.end()) {
        it = symbols.emplace(sample.pc[f], internal::SymbolizePc(sample.pc[f]))
                 .first;
      }
      if (!stack.empty()) stack += ';';
      stack += it->second;
    }
    if (!stack.empty()) ++folded[stack];
  }
  return folded;
}

void SamplingRegisterCurrentThread() {
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  RegisterLocked(&state);
}

void SamplingUnregisterCurrentThread() {
  if (!tl_reg.registered) return;
  SamplingState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DisarmTimer(&tl_reg, &state);
  state.threads.erase(
      std::remove(state.threads.begin(), state.threads.end(), &tl_reg),
      state.threads.end());
  tl_reg.registered = false;
}

}  // namespace taxorec

#else  // TAXOREC_SAMPLING_STUB

namespace taxorec {

bool SamplingProfilerSupported() { return false; }
bool SamplingActive() { return false; }

Status StartSampling(const SamplingOptions&) {
  return Status::Unavailable(
      "sampling profiler disabled in this build (sanitizer or unsupported "
      "platform)");
}

void StopSampling() {}
void ClearSamples() {}
uint64_t SampleCount() { return 0; }
uint64_t SampleDroppedCount() { return 0; }
SampleRate SamplingRate() { return {}; }
std::map<std::string, uint64_t> FoldedStacks() { return {}; }
void SamplingRegisterCurrentThread() {}
void SamplingUnregisterCurrentThread() {}

}  // namespace taxorec

#endif  // TAXOREC_SAMPLING_STUB

namespace taxorec {

namespace internal {

std::string SymbolizePc(uintptr_t pc) {
  Dl_info info = {};
  if (dladdr(reinterpret_cast<void*>(pc), &info) == 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
    return buf;
  }
  if (info.dli_sname == nullptr) {
    // No symbol (libc IFUNC bodies such as memset, internal-linkage
    // functions): name the module and the offset from its load base, which
    // `addr2line -f -e <module> <offset>` resolves.
    std::string module = info.dli_fname != nullptr ? info.dli_fname : "";
    module.erase(0, module.rfind('/') + 1);
    char offset[32];
    std::snprintf(offset, sizeof(offset), "+0x%zx",
                  static_cast<size_t>(
                      pc - reinterpret_cast<uintptr_t>(info.dli_fbase)));
    return module + offset;
  }
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string out(demangled);
    std::free(demangled);
    // Folded-format separators cannot appear inside frame names.
    std::replace(out.begin(), out.end(), ';', ',');
    return out;
  }
  if (demangled != nullptr) std::free(demangled);
  return info.dli_sname;
}

}  // namespace internal

Status WriteFoldedStacks(const std::string& path) {
  const auto folded = FoldedStacks();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write flame file: " + path);
  for (const auto& [stack, count] : folded) {
    out << stack << " " << count << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  const uint64_t dropped = SampleDroppedCount();
  if (dropped > 0) {
    TAXOREC_LOG(WARN) << "sampling ring overflowed; flame profile is "
                         "truncated"
                      << Kv("dropped", dropped) << Kv("path", path);
  }
  const SampleRate rate = SamplingRate();
  const bool low = rate.per_cpu_second() < 0.5 * rate.requested_per_cpu_second;
  if (rate.cpu_seconds > 0.0 && LogEnabled(low ? kWARN : kINFO)) {
    LogMessage(low ? kWARN : kINFO, __FILE__, __LINE__)
        << (low ? "sampling rate below half the requested one (the CPU "
                  "timers fire on the scheduler tick)"
                : "sampling rate")
        << Kv("samples_per_cpu_s", rate.per_cpu_second())
        << Kv("requested_per_cpu_s", rate.requested_per_cpu_second)
        << Kv("path", path);
  }
  return Status::OK();
}

}  // namespace taxorec
