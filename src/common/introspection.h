// Live introspection hook: SIGUSR1 asks a running taxorec process to dump
// its observability state (metrics snapshot, flight-recorder ring) without
// stopping.
//
// The handler only sets a flag — everything signal-unsafe (allocation,
// file I/O, mutexes) happens later when the main loop polls
// ConsumeIntrospectionRequest() at a safe point (per epoch in taxorec_cli
// train, per replay batch in taxorec_serve). Signals delivered between
// polls coalesce into one dump, which is the useful semantics for a human
// running `kill -USR1 <pid>` by hand.
//
//   InstallSigusr1Handler();
//   ...
//   if (ConsumeIntrospectionRequest()) DumpObservability(...);
#ifndef TAXOREC_COMMON_INTROSPECTION_H_
#define TAXOREC_COMMON_INTROSPECTION_H_

#include "common/status.h"

namespace taxorec {

/// Installs the SIGUSR1 flag-setting handler. Idempotent; returns Internal
/// when sigaction itself fails (never on re-install). No-op on platforms
/// without SIGUSR1.
Status InstallSigusr1Handler();

/// True once per received SIGUSR1 burst: returns whether a request arrived
/// since the last call and clears the flag.
bool ConsumeIntrospectionRequest();

}  // namespace taxorec

#endif  // TAXOREC_COMMON_INTROSPECTION_H_
