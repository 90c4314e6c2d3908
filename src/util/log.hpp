// Leveled logging with a process-wide threshold.  Default threshold is
// WARNING so tests and benchmarks stay quiet; examples raise it to INFO to
// narrate what the framework is doing.
//
// The threshold can also come from the environment: JUPITER_LOG=debug|info|
// warning|error|off is read once, on first use.  An explicit
// set_log_level() call always wins over the environment.
//
// A simulator stamps the lines of the thread it runs on with the simulated
// instant they were emitted at:
//   [INFO ] d0 03:15:42 | spot request rejected in zone 4 ...
#pragma once

#include <mutex>
#include <optional>
#include <sstream>
#include <string>

namespace jupiter {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level);
LogLevel log_level();

/// Parses a JUPITER_LOG value ("debug", "info", "warning"/"warn", "error",
/// "off"; case-insensitive).  nullopt on anything else.
std::optional<LogLevel> parse_log_level(const std::string& name);

/// Re-reads JUPITER_LOG from the environment and applies it if it parses.
/// Returns the level applied, if any.  Called implicitly on first log use;
/// exposed so tests can exercise the path deterministically.
std::optional<LogLevel> init_log_level_from_env();

/// The source of the sim-time stamp on log lines: a simulator.
class LogClock {
 public:
  virtual std::string log_time() const = 0;

 protected:
  ~LogClock() = default;
};

/// What the calling thread's log lines carry: a tag and a clock, either
/// possibly null.  Scopes install one per thread, and parallel_for hands
/// its caller's to the pool helpers draining its batch, so a line logged
/// for one fleet cluster carries that cluster's tag and sim time whichever
/// thread logs it.
struct LogContext {
  const std::string* tag = nullptr;
  const LogClock* clock = nullptr;
};

/// The calling thread's context; nullptr when no scope is installed.
const LogContext* log_context();

/// RAII: installs `ctx` (which must outlive the scope) as the calling
/// thread's log context and restores the previous one on destruction.
class LogContextScope {
 public:
  explicit LogContextScope(const LogContext* ctx);
  ~LogContextScope();
  LogContextScope(const LogContextScope&) = delete;
  LogContextScope& operator=(const LogContextScope&) = delete;

 private:
  const LogContext* prev_;
};

/// Registers `clock` as the calling thread's resting clock: it stamps the
/// thread's lines while no running simulator's clock is installed.  The
/// first registrant on a thread keeps it until it unregisters, so nested
/// simulators cannot steal each other's prefix.
void set_log_clock(const LogClock* clock);
/// Removes `clock` wherever it is registered; no-op when it is not.
void clear_log_clock(const LogClock* clock);

/// The calling thread's log tag ("" when unset).  Fleet clusters set it to
/// their cluster id ("c0", "c1", ...) so interleaved lines from parallel
/// clusters stay attributable:
///   [INFO ] [c2] d0 03:15:42 | spot request rejected ...
const std::string& log_tag();

/// RAII log tag: every line logged under the scope, on this thread or by a
/// pool helper running this thread's parallel_for, is prefixed with
/// "[tag]".  Scopes nest; each restores the previous context.
class LogTagScope {
 public:
  explicit LogTagScope(std::string tag);
  LogTagScope(const LogTagScope&) = delete;
  LogTagScope& operator=(const LogTagScope&) = delete;

 private:
  std::string tag_;
  LogContext ctx_;
  LogContextScope scope_;
};

/// RAII log clock: `clock` stamps every line logged under the scope, on
/// this thread or by a pool helper running this thread's parallel_for.  A
/// simulator installs one for each run.
class LogClockScope {
 public:
  explicit LogClockScope(const LogClock* clock);
  LogClockScope(const LogClockScope&) = delete;
  LogClockScope& operator=(const LogClockScope&) = delete;

 private:
  LogContext ctx_;
  LogContextScope scope_;
};

/// Emits one line (thread-safe) if `level` passes the threshold.
void log_line(LogLevel level, const std::string& msg);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, ss_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    ss_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream ss_;
};
}  // namespace detail

#define JLOG(level) \
  ::jupiter::detail::LogStream(::jupiter::LogLevel::level)

}  // namespace jupiter
