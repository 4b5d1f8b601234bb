#include "common/failpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace sz14::fail {
namespace {

/// Sorted registry of every compiled-in trigger()/check() site.
constexpr std::string_view kKnownSites[] = {
    "archive.scrub.rewrite",
    "archive.writer.write",
    "pread_file.read",
    "serve.server.drop_request",
    "serve.transport.connect",
    "serve.transport.recv",
};

bool is_known_site(std::string_view site) {
  return std::binary_search(std::begin(kKnownSites), std::end(kKnownSites),
                            site);
}

void warn_unknown_site(std::string_view site, const char* how) {
  if (is_known_site(site)) return;
  std::fprintf(stderr,
               "sz14: warning: %s unknown failpoint site '%.*s' — it will "
               "never fire (run `sz14 failpoints ls` for the registered "
               "sites)\n",
               how, static_cast<int>(site.size()), site.data());
}

struct Entry {
  Spec spec;
  long long passed = 0;  // triggers consumed by `skip`
  long long fired = 0;   // times fired under the current arming
  std::uint64_t hits_total = 0;

  [[nodiscard]] bool live() const noexcept {
    return spec.kind != Kind::kOff &&
           (spec.count < 0 || fired < spec.count);
  }
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, Entry> sites;
  bool env_parsed = false;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static dtors
  return *r;
}

/// Recompute the fast-path gate under the registry lock.
void publish_armed_locked(Registry& reg) {
  int live = 0;
  for (const auto& [name, e] : reg.sites)
    if (e.live()) ++live;
  detail::g_armed.store(live, std::memory_order_release);
}

bool parse_kind(std::string_view text, Kind& out) {
  if (text == "off") out = Kind::kOff;
  else if (text == "error") out = Kind::kError;
  else if (text == "enospc") out = Kind::kEnospc;
  else if (text == "short") out = Kind::kShort;
  else if (text == "torn") out = Kind::kTorn;
  else if (text == "stall") out = Kind::kStall;
  else if (text == "drop") out = Kind::kDrop;
  else if (text == "abort") out = Kind::kAbort;
  else return false;
  return true;
}

/// One "site=kind[:skip[:count[:arg]]]" clause; false on malformed input.
bool parse_clause(std::string_view clause, std::string& site, Spec& spec) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  site.assign(clause.substr(0, eq));
  std::string_view rest = clause.substr(eq + 1);
  spec = Spec{};
  int* const slots[] = {&spec.skip, &spec.count, &spec.arg};
  std::size_t slot = 0;
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    std::size_t end = rest.find(':', pos);
    if (end == std::string_view::npos) end = rest.size();
    const std::string_view part = rest.substr(pos, end - pos);
    if (pos == 0) {
      if (!parse_kind(part, spec.kind)) return false;
    } else {
      if (slot >= 3 || part.empty()) return false;
      try {
        *slots[slot++] = std::stoi(std::string(part));
      } catch (const std::exception&) {
        return false;
      }
    }
    pos = end + 1;
  }
  return true;
}

void parse_env_locked(Registry& reg) {
  reg.env_parsed = true;
  const char* env = std::getenv("SZ14_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  const std::string_view text(env);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view clause = text.substr(pos, end - pos);
    if (!clause.empty()) {
      std::string site;
      Spec spec;
      if (parse_clause(clause, site, spec)) {
        warn_unknown_site(site, "SZ14_FAILPOINTS names");
        reg.sites[site] = Entry{spec};
      } else {
        std::fprintf(stderr,
                     "sz14: ignoring malformed SZ14_FAILPOINTS clause '%.*s'\n",
                     static_cast<int>(clause.size()), clause.data());
      }
    }
    pos = end + 1;
  }
}

}  // namespace

namespace detail {

std::atomic<int> g_armed{-1};

std::optional<Fired> check_slow(std::string_view site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (!reg.env_parsed) parse_env_locked(reg);
  const auto it = reg.sites.find(std::string(site));
  std::optional<Fired> fired;
  if (it != reg.sites.end() && it->second.live()) {
    Entry& e = it->second;
    if (e.passed < e.spec.skip) {
      ++e.passed;
    } else {
      ++e.fired;
      ++e.hits_total;
      fired = Fired{e.spec.kind, e.spec.arg};
    }
  }
  publish_armed_locked(reg);
  return fired;
}

}  // namespace detail

std::span<const std::string_view> known_sites() { return kKnownSites; }

void arm(const std::string& site, Spec spec) {
  warn_unknown_site(site, "arming");
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (!reg.env_parsed) parse_env_locked(reg);
  Entry& e = reg.sites[site];
  const std::uint64_t kept_hits = e.hits_total;
  e = Entry{spec};
  e.hits_total = kept_hits;
  publish_armed_locked(reg);
}

void disarm(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.sites.find(site);
  if (it != reg.sites.end()) it->second.spec.kind = Kind::kOff;
  publish_armed_locked(reg);
}

void disarm_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (!reg.env_parsed) parse_env_locked(reg);  // keep lazy-parse state sane
  for (auto& [name, e] : reg.sites) e.spec.kind = Kind::kOff;
  publish_armed_locked(reg);
}

std::uint64_t hits(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hits_total;
}

void reload_from_env() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.env_parsed = false;
  parse_env_locked(reg);
  publish_armed_locked(reg);
}

std::optional<Fired> trigger(std::string_view site) {
  auto fired = check(site);
  if (!fired) return std::nullopt;
  switch (fired->kind) {
    case Kind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(fired->arg));
      return std::nullopt;  // delay only; the operation proceeds
    case Kind::kError:
      throw std::runtime_error(std::string(site) +
                               ": injected I/O error (failpoint)");
    case Kind::kEnospc:
      throw std::runtime_error(std::string(site) +
                               ": injected ENOSPC — no space left on device "
                               "(failpoint)");
    case Kind::kAbort:
      std::fflush(nullptr);
      std::_Exit(kAbortExitCode);
    default:
      return fired;  // kShort/kTorn/kDrop: the site enacts these
  }
}

}  // namespace sz14::fail
