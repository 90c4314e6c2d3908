#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

namespace jupiter {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};
std::atomic<bool> g_initialized{false};
std::mutex g_mu;

// Each thread's resting clock, guarded by g_mu.
std::map<std::thread::id, const LogClock*> g_resting;

// The calling thread's context; no lock needed (each thread reads only its
// own, and a helper reads its batch caller's while the caller waits).
thread_local const LogContext* t_ctx = nullptr;

const std::string kNoTag;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?????";
  }
}

/// First use initializes the threshold from JUPITER_LOG, unless an explicit
/// set_log_level() claimed initialization first.
void ensure_init() {
  bool expected = false;
  if (!g_initialized.compare_exchange_strong(expected, true)) return;
  if (const char* env = std::getenv("JUPITER_LOG")) {
    if (auto level = parse_log_level(env)) {
      g_level.store(*level);
    } else {
      std::fprintf(stderr,
                   "[WARN ] unrecognized JUPITER_LOG value \"%s\" "
                   "(want debug|info|warning|error|off)\n",
                   env);
    }
  }
}
}  // namespace

std::optional<LogLevel> parse_log_level(const std::string& name) {
  std::string low;
  low.reserve(name.size());
  for (char c : name) {
    low += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (low == "debug") return LogLevel::kDebug;
  if (low == "info") return LogLevel::kInfo;
  if (low == "warning" || low == "warn") return LogLevel::kWarning;
  if (low == "error") return LogLevel::kError;
  if (low == "off" || low == "none") return LogLevel::kOff;
  return std::nullopt;
}

std::optional<LogLevel> init_log_level_from_env() {
  g_initialized.store(true);
  const char* env = std::getenv("JUPITER_LOG");
  if (!env) return std::nullopt;
  auto level = parse_log_level(env);
  if (level) g_level.store(*level);
  return level;
}

void set_log_level(LogLevel level) {
  g_initialized.store(true);  // explicit choice beats the environment
  g_level.store(level);
}

LogLevel log_level() {
  ensure_init();
  return g_level.load();
}

void set_log_clock(const LogClock* clock) {
  std::lock_guard lk(g_mu);
  g_resting.try_emplace(std::this_thread::get_id(), clock);  // first wins
}

void clear_log_clock(const LogClock* clock) {
  std::lock_guard lk(g_mu);
  std::erase_if(g_resting,
                [clock](const auto& e) { return e.second == clock; });
}

const LogContext* log_context() { return t_ctx; }

LogContextScope::LogContextScope(const LogContext* ctx) : prev_(t_ctx) {
  t_ctx = ctx;
}

LogContextScope::~LogContextScope() { t_ctx = prev_; }

const std::string& log_tag() {
  return t_ctx != nullptr && t_ctx->tag != nullptr ? *t_ctx->tag : kNoTag;
}

LogTagScope::LogTagScope(std::string tag)
    : tag_(std::move(tag)),
      ctx_{&tag_, t_ctx != nullptr ? t_ctx->clock : nullptr},
      scope_(&ctx_) {}

LogClockScope::LogClockScope(const LogClock* clock)
    : ctx_{t_ctx != nullptr ? t_ctx->tag : nullptr, clock}, scope_(&ctx_) {}

void log_line(LogLevel level, const std::string& msg) {
  ensure_init();
  if (level < g_level.load()) return;
  const std::string& t = log_tag();
  std::string tag = t.empty() ? std::string() : "[" + t + "] ";
  std::lock_guard lk(g_mu);
  const LogClock* clock = t_ctx != nullptr ? t_ctx->clock : nullptr;
  if (clock == nullptr) {
    auto it = g_resting.find(std::this_thread::get_id());
    if (it != g_resting.end()) clock = it->second;
  }
  if (clock != nullptr) {
    std::fprintf(stderr, "[%s] %s%s | %s\n", level_tag(level), tag.c_str(),
                 clock->log_time().c_str(), msg.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s%s\n", level_tag(level), tag.c_str(),
                 msg.c_str());
  }
}

}  // namespace jupiter
