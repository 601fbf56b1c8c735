#include "common/introspection.h"

#include <atomic>

#if defined(__linux__) || defined(__APPLE__)
#include <signal.h>
#define TAXOREC_HAVE_SIGUSR1 1
#endif

namespace taxorec {
namespace {

// sig_atomic_t would do for a single-threaded consumer; the atomic makes
// the poll safe from whichever thread owns the loop without extra rules.
std::atomic<bool> g_requested{false};

#if defined(TAXOREC_HAVE_SIGUSR1)
void OnSigusr1(int) { g_requested.store(true, std::memory_order_relaxed); }
#endif

}  // namespace

Status InstallSigusr1Handler() {
#if defined(TAXOREC_HAVE_SIGUSR1)
  struct sigaction sa = {};
  sa.sa_handler = OnSigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // don't surface EINTR into unrelated syscalls
  if (sigaction(SIGUSR1, &sa, nullptr) != 0) {
    return Status::Internal("sigaction(SIGUSR1) failed");
  }
#endif
  return Status::OK();
}

bool ConsumeIntrospectionRequest() {
  return g_requested.exchange(false, std::memory_order_relaxed);
}

}  // namespace taxorec
