#include "common/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

#include "common/json.h"
#include "common/log.h"
#include "common/profiler.h"
#include "common/span_table.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace taxorec {

#if defined(__linux__)

namespace {

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr MakeAttr(const PerfEventSpec& spec, bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = leader ? 1 : 0;  // group enabled as a unit via the leader
  attr.exclude_kernel = 1;         // paranoid<=1 not required for user-only
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  attr.inherit = 0;  // inherit is incompatible with PERF_FORMAT_GROUP reads
  return attr;
}

}  // namespace

PerfEventGroup::~PerfEventGroup() { Close(); }

Status PerfEventGroup::Open(const std::vector<PerfEventSpec>& specs) {
  Close();
  if (specs.empty()) {
    return Status::InvalidArgument("perf event group needs at least a leader");
  }
  fds_.assign(specs.size(), -1);
  opened_.assign(specs.size(), false);
  for (size_t i = 0; i < specs.size(); ++i) {
    perf_event_attr attr = MakeAttr(specs[i], /*leader=*/i == 0);
    const int fd = static_cast<int>(
        PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1,
                      /*group_fd=*/i == 0 ? -1 : leader_, /*flags=*/0));
    if (fd < 0) {
      if (i == 0) {
        const int err = errno;
        fds_.clear();
        opened_.clear();
        return Status::Unavailable(
            std::string("perf_event_open(") + specs[0].name +
            ") failed: " + std::strerror(err));
      }
      continue;  // partially capable PMU: keep the members that opened
    }
    fds_[i] = fd;
    opened_[i] = true;
    if (i == 0) leader_ = fd;
  }
  ioctl(leader_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return Status::OK();
}

Status PerfEventGroup::Read(std::vector<uint64_t>* values) const {
  values->assign(opened_.size(), 0);
  if (leader_ < 0) return Status::Unavailable("perf event group not open");
  // PERF_FORMAT_GROUP layout: {nr, time_enabled, time_running, value...}.
  uint64_t buf[3 + kPerfHwEventCount + 8] = {};
  const ssize_t n = read(leader_, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) {
    return Status::IOError("perf group read failed");
  }
  const uint64_t nr = buf[0];
  const uint64_t enabled = buf[1];
  const uint64_t running = buf[2];
  // Multiplex scaling: when the PMU rotated the group out, counts cover
  // only `running` of `enabled` time; scale up linearly (standard perf
  // estimate). running == 0 with nonzero counts cannot happen.
  const double scale =
      running > 0 && enabled > running
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  size_t src = 0;
  for (size_t i = 0; i < opened_.size(); ++i) {
    if (!opened_[i]) continue;
    if (src >= nr) break;
    const double scaled = static_cast<double>(buf[3 + src]) * scale;
    (*values)[i] = static_cast<uint64_t>(scaled);
    ++src;
  }
  return Status::OK();
}

void PerfEventGroup::Close() {
  for (const int fd : fds_) {
    if (fd >= 0) close(fd);
  }
  fds_.clear();
  opened_.clear();
  leader_ = -1;
}

#else  // !__linux__

PerfEventGroup::~PerfEventGroup() { Close(); }

Status PerfEventGroup::Open(const std::vector<PerfEventSpec>&) {
  return Status::Unavailable("perf_event_open requires Linux");
}

Status PerfEventGroup::Read(std::vector<uint64_t>* values) const {
  values->assign(opened_.size(), 0);
  return Status::Unavailable("perf_event_open requires Linux");
}

void PerfEventGroup::Close() {
  fds_.clear();
  opened_.clear();
  leader_ = -1;
}

#endif  // __linux__

const std::vector<PerfEventSpec>& HardwarePerfSpecs() {
#if defined(__linux__)
  static const std::vector<PerfEventSpec>* specs =
      new std::vector<PerfEventSpec>{
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
           "cache_references"},
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache_misses"},
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch_misses"},
          {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND,
           "stalled_cycles"},
      };
#else
  static const std::vector<PerfEventSpec>* specs =
      new std::vector<PerfEventSpec>{
          {0, 0, "cycles"},
          {0, 1, "instructions"},
          {0, 2, "cache_references"},
          {0, 3, "cache_misses"},
          {0, 4, "branch_misses"},
          {0, 5, "stalled_cycles"},
      };
#endif
  return *specs;
}

namespace {

double Ratio(bool have_num, uint64_t num, bool have_den, uint64_t den) {
  if (!have_num || !have_den || den == 0) return -1.0;
  return static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void PerfSiteCounters::Add(const PerfSiteCounters& other) {
  enters += other.enters;
  for (int i = 0; i < kPerfHwEventCount; ++i) {
    counts[i] += other.counts[i];
    have[i] = have[i] || other.have[i];
  }
}

double PerfSiteCounters::Ipc() const {
  return Ratio(have[kPerfInstructions], counts[kPerfInstructions],
               have[kPerfCycles], counts[kPerfCycles]);
}

double PerfSiteCounters::Cpi() const {
  return Ratio(have[kPerfCycles], counts[kPerfCycles],
               have[kPerfInstructions], counts[kPerfInstructions]);
}

double PerfSiteCounters::LlcMissRate() const {
  return Ratio(have[kPerfCacheMisses], counts[kPerfCacheMisses],
               have[kPerfCacheReferences], counts[kPerfCacheReferences]);
}

double PerfSiteCounters::BranchMissRate() const {
  return Ratio(have[kPerfBranchMisses], counts[kPerfBranchMisses],
               have[kPerfInstructions], counts[kPerfInstructions]);
}

double PerfSiteCounters::StalledFrac() const {
  return Ratio(have[kPerfStalledCycles], counts[kPerfStalledCycles],
               have[kPerfCycles], counts[kPerfCycles]);
}

namespace {

std::once_flag g_probe_once;
bool g_supported = false;
std::atomic<const std::vector<PerfEventSpec>*> g_test_specs{nullptr};

void ProbeSupport() {
  PerfEventGroup probe;
  const Status s = probe.Open(HardwarePerfSpecs());
  g_supported = s.ok();
  if (!g_supported) {
    int paranoid = -100;
    std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
    if (in) in >> paranoid;
    TAXOREC_LOG(WARN) << "hardware perf counters unavailable; resource "
                         "counter sections will be omitted"
                      << Kv("error", s.message())
                      << Kv("perf_event_paranoid", paranoid);
  }
}

void SumByName(const ProfileNode& node,
               std::map<std::string, PerfSiteCounters>* sites) {
  if (node.counters.enters > 0) (*sites)[node.name].Add(node.counters);
  for (const ProfileNode& child : node.children) SumByName(child, sites);
}

}  // namespace

bool PerfCountersSupported() {
  std::call_once(g_probe_once, ProbeSupport);
  return g_supported;
}

void PerfSiteCounters::WriteJsonFields(JsonWriter* w) const {
  // Counts are named by the armed set (the hardware set unless a test
  // armed its own).
  const auto* armed = internal::g_counter_specs.load(std::memory_order_acquire);
  const std::vector<PerfEventSpec>& specs =
      armed != nullptr ? *armed : HardwarePerfSpecs();
  for (size_t i = 0; i < specs.size() && i < kPerfHwEventCount; ++i) {
    if (have[i]) w->Key(specs[i].name).Uint(counts[i]);
  }
  // Derived rates only when their inputs exist: zeros from absent events
  // would poison bench_compare gating and break byte-stability.
  if (const double v = Ipc(); v >= 0.0) w->Key("ipc").Double(v);
  if (const double v = Cpi(); v >= 0.0) w->Key("cpi").Double(v);
  if (const double v = LlcMissRate(); v >= 0.0) {
    w->Key("llc_miss_rate").Double(v);
  }
  if (const double v = BranchMissRate(); v >= 0.0) {
    w->Key("branch_miss_rate").Double(v);
  }
  if (const double v = StalledFrac(); v >= 0.0) {
    w->Key("stalled_frac").Double(v);
  }
}

std::string PerfCountersJsonObject() {
  std::map<std::string, PerfSiteCounters> sites;
  SumByName(MergedProfile(), &sites);
  if (sites.empty()) return "";
  JsonWriter w;
  w.BeginObject();
  for (const auto& [name, site] : sites) {
    w.Key(name).BeginObject();
    w.Key("enters").Uint(site.enters);
    site.WriteJsonFields(&w);
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

namespace internal {

const std::vector<PerfEventSpec>* CounterSpecsToArm() {
  if (const auto* specs = g_test_specs.load(std::memory_order_acquire)) {
    return specs;
  }
  return PerfCountersSupported() ? &HardwarePerfSpecs() : nullptr;
}

void UseCounterSpecsForTest(const std::vector<PerfEventSpec>* specs) {
  g_test_specs.store(specs, std::memory_order_release);
}

}  // namespace internal
}  // namespace taxorec
