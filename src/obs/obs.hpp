#pragma once

/// \file obs.hpp
/// \brief Umbrella header for the observability layer (mlsi::obs).
///
/// Three independent, individually-enabled facilities:
///  * trace.hpp      — thread-aware spans and instants, Chrome trace JSON.
///                     The one event API: TraceSpan and trace_instant. The
///                     solver's search events are instants with args.
///  * metrics.hpp    — counters, gauges, histograms, time-stamped series
///  * flight_rec.hpp — per-thread ring buffers of recent spans, dumpable
///                     from a crash signal handler; fed by TraceSpan
///
/// All three are off by default and cost one relaxed atomic load per
/// instrumentation site when off. They are enabled by mlsi_synth's
/// --trace-out / --metrics-out flags, by mlsi_serve (metrics + flight
/// recorder by default), by bench::init() (metrics only), or
/// programmatically. See DESIGN.md "Observability" and "Live
/// observability" for the event taxonomy, metric names and overhead
/// budget.

#include "obs/flight_rec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
