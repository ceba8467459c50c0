// Black-box dumps: the flight recorder's JSON post-mortem, written next to
// the FlowError whenever a wave fails or a recovery policy engages.
//
// A chaos-sweep failure used to surface as one exception message; the events
// leading up to it (which passes ran, which stages committed, what the
// retry/rollback history was) were gone. dump_black_box() snapshots the
// obs::FlightRecorder tail plus the failure context into one JSON file so
// every failure ships its own evidence.
//
// Destination: GNNMLS_FLIGHT_OUT=<path> ("off"/"" disables); defaults to
// flight_recorder.json in the working directory. Each dump overwrites the
// file — the interesting failure is the one that just happened — and bumps
// the ft.blackbox_dumps counter.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ft/error.hpp"

namespace gnnmls::ft {

// The dump payload as a string (exposed for tests): failure context plus the
// last `max_events` recorder events (0 = all).
std::string black_box_json(const std::vector<FlowError>& failures, std::size_t wave,
                           std::size_t attempt, const std::string& note,
                           std::size_t max_events = 0);

// Writes the payload to the configured path. Returns the path written, or ""
// when disabled or on I/O failure (failure also logs; a post-mortem must
// never turn a recoverable flow error into a crash).
std::string dump_black_box(const std::vector<FlowError>& failures, std::size_t wave,
                           std::size_t attempt, const std::string& note = "");

}  // namespace gnnmls::ft
