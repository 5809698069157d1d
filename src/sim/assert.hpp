// Internal invariant checking.
//
// `SIO_ASSERT` is active in all build types: the simulator's value is its
// correctness, and the cost of the checks is negligible next to event
// dispatch.  Failures throw `sio::sim::AssertionError` so tests can observe
// them and so a failed invariant cannot silently corrupt an experiment.

#pragma once

#include <stdexcept>
#include <string>

// `SIO_SIM_CHECKS` gates the sim-sanitizer: runtime detection of
// schedule-in-the-past, double-resume of a coroutine handle, and deadlock
// (event queue drained while tasks are still live).  Like `SIO_ASSERT` it is
// on in every build type; define it to 0 only to measure its cost.  Measured
// on perfbench `repro` (pass_s.p50, median of 3 runs, 4-CPU Xeon host):
// with its state in a table keyed by frame address the checks made a pass
// 21% slower than a checks-off build (1.125 s vs 0.926 s); with the state in
// each coroutine frame, 4% (0.824 s vs 0.795 s).
#ifndef SIO_SIM_CHECKS
#define SIO_SIM_CHECKS 1
#endif

namespace sio::sim {

/// Thrown when an internal invariant of the simulator is violated.
class AssertionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Base class for sim-sanitizer diagnostics (derives from AssertionError so
/// existing handlers keep working).
class SimCheckError : public AssertionError {
 public:
  using AssertionError::AssertionError;
};

/// An event was scheduled at a time earlier than the current simulated time.
class SchedulePastError : public SimCheckError {
 public:
  using SimCheckError::SimCheckError;
};

/// The same suspended coroutine handle was posted for resumption twice.
class DoubleResumeError : public SimCheckError {
 public:
  using SimCheckError::SimCheckError;
};

/// The event queue drained while spawned tasks were still live.
class DeadlockError : public SimCheckError {
 public:
  using SimCheckError::SimCheckError;
};

[[noreturn]] inline void assertion_failure(const char* expr, const char* file, int line) {
  throw AssertionError(std::string("SIO_ASSERT failed: ") + expr + " at " + file + ":" +
                       std::to_string(line));
}

}  // namespace sio::sim

#define SIO_ASSERT(expr)                                        \
  do {                                                          \
    if (!(expr)) {                                              \
      ::sio::sim::assertion_failure(#expr, __FILE__, __LINE__); \
    }                                                           \
  } while (false)
