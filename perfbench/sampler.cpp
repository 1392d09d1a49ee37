#include "sampler.hpp"

#include <backtrace.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kUtil = layer_index("util");
constexpr int kMaxFrames = 64;
// Requested period; the kernel delivers CPU-time signals on its scheduler
// tick, so the real rate is lower (about 250 Hz at HZ=250).
constexpr long kIntervalUs = 1000;
// Sample records are [frame count, pc...]; 16 MiB of addresses holds more
// than 30,000 full-depth samples, far beyond one run's tick budget.
constexpr std::size_t kBufferWords = std::size_t{1} << 21;

backtrace_state* g_state = nullptr;
std::uintptr_t* g_buf = nullptr;
std::size_t g_len = 0;
std::uint64_t g_kept = 0;
std::uint64_t g_dropped = 0;
volatile std::sig_atomic_t g_keep = 0;
struct sigaction g_previous {};

struct Walk {
  std::uintptr_t pcs[kMaxFrames];
  int n = 0;
};

int on_pc(void* data, std::uintptr_t pc) {
  auto* w = static_cast<Walk*>(data);
  w->pcs[w->n++] = pc;
  return w->n == kMaxFrames ? 1 : 0;
}

void on_unwind_error(void*, const char*, int) {}

void on_state_error(void*, const char* msg, int errnum) {
  std::cerr << "sampler: libbacktrace: " << msg;
  if (errnum > 0) std::cerr << ": " << std::strerror(errnum);
  std::cerr << '\n';
}

std::uintptr_t interrupted_pc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "perfbench sampler: unsupported architecture"
#endif
}

// Async-signal context: no allocation, no locks. libbacktrace's
// backtrace_simple never allocates, and libgcc finds unwind tables through
// the lock-free _dl_find_object.
void on_sigprof(int, siginfo_t*, void* uctx) {
  if (g_keep == 0) return;
  const int saved_errno = errno;
  Walk w;
  backtrace_simple(g_state, 0, on_pc, on_unwind_error, &w);
  // Drop the handler and signal-trampoline frames: the walk reports the
  // interrupted pc exactly (and return addresses minus one after it).
  const std::uintptr_t pc = interrupted_pc(uctx);
  int first = 0;
  while (first < w.n && w.pcs[first] != pc) ++first;
  const std::uintptr_t* frames = w.pcs + first;
  int n = w.n - first;
  if (n == 0) {  // the unwinder lost the trail: keep the interrupted pc
    frames = &pc;
    n = 1;
  }
  if (g_len + 1 + static_cast<std::size_t>(n) > kBufferWords) {
    ++g_dropped;
  } else {
    g_buf[g_len++] = static_cast<std::uintptr_t>(n);
    for (int i = 0; i < n; ++i) g_buf[g_len++] = frames[i];
    ++g_kept;
  }
  errno = saved_errno;
}

/// Layer of a nowlb module (namespace or src/ directory); anything that is
/// not one of the layers, such as nowlb::detail, counts as util.
int module_layer(std::string_view module) {
  const int layer = layer_index(module);
  return layer >= 0 && layer < kUtil ? layer : kUtil;
}

/// Layer of one mangled symbol name, or -1 when it is not in nowlb::.
int layer_of_symbol(const char* s) {
  // Itanium mangling: _Z [Z...] N [rVKRO] 5nowlb <len><first component>.
  // A leading Z marks a local entity (a lambda's operator(), say), whose
  // enclosing function's name follows. Unscoped and std:: names never
  // start with N 5nowlb, which is how std:: frames are walked through.
  if (s == nullptr || std::strncmp(s, "_Z", 2) != 0) return -1;
  s += 2;
  while (*s == 'Z') ++s;
  if (*s != 'N') return -1;
  ++s;
  while (*s == 'r' || *s == 'V' || *s == 'K' || *s == 'R' || *s == 'O') ++s;
  if (std::strncmp(s, "5nowlb", 6) != 0) return -1;
  s += 6;
  char* end = nullptr;
  const long len = std::strtol(s, &end, 10);
  if (end == s || len <= 0 ||
      std::strlen(end) < static_cast<std::size_t>(len)) {
    return kUtil;  // a class or function declared directly in nowlb::
  }
  return module_layer(std::string_view(end, static_cast<std::size_t>(len)));
}

/// Layer of a source file under the nowlb source root, or -1.
int layer_of_source(const char* file) {
  static const std::string_view root = PERFBENCH_NOWLB_SRC;
  if (file == nullptr) return -1;
  const std::string_view path(file);
  if (path.substr(0, root.size()) != root) return -1;
  const std::string_view module = path.substr(root.size());
  const std::size_t slash = module.find('/');
  if (slash == std::string_view::npos) return kUtil;
  return module_layer(module.substr(0, slash));
}

// Walks the inline chain of one pc, innermost first, until a frame belongs
// to nowlb. A mangled name decides by its namespace. GCC's coroutine
// bodies carry no linkage name in DWARF, so an unmangled name decides by
// the source directory its code sits in.
int on_inline_frame(void* data, std::uintptr_t, const char* file, int,
                    const char* function) {
  const bool mangled =
      function != nullptr && std::strncmp(function, "_Z", 2) == 0;
  const int layer = mangled ? layer_of_symbol(function) : layer_of_source(file);
  if (layer < 0) return 0;
  *static_cast<int*>(data) = layer;
  return 1;
}

int layer_of_pc(std::uintptr_t pc) {
  static std::unordered_map<std::uintptr_t, int> cache;
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  int layer = -1;
  backtrace_pcinfo(g_state, pc, on_inline_frame, on_unwind_error, &layer);
  cache.emplace(pc, layer);
  return layer;
}

}  // namespace

std::uint64_t LayerSplit::total() const {
  std::uint64_t t = 0;
  for (auto s : samples) t += s;
  return t;
}

double LayerSplit::share(int layer) const {
  const auto t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(samples[static_cast<std::size_t>(layer)]) /
         static_cast<double>(t);
}

double LayerSplit::coverage() const {
  return total() == 0 ? 0.0 : 1.0 - share(kOther);
}

Sampler::Sampler() {
  if (g_state == nullptr) {
    g_state = backtrace_create_state(nullptr, 0, on_state_error, nullptr);
  }
  g_buf = new std::uintptr_t[kBufferWords];
  g_len = 0;
  g_kept = 0;
  g_dropped = 0;
  // Resolve the unwinder's lazy bindings outside the handler.
  Walk warm;
  backtrace_simple(g_state, 0, on_pc, on_unwind_error, &warm);

  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, &g_previous);
}

Sampler::~Sampler() {
  stop();
  disarm();
  sigaction(SIGPROF, &g_previous, nullptr);
  delete[] g_buf;
  g_buf = nullptr;
}

void Sampler::arm() {
  itimerval tv{};
  tv.it_interval.tv_usec = kIntervalUs;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void Sampler::disarm() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void Sampler::start() { g_keep = 1; }
void Sampler::stop() { g_keep = 0; }

LayerSplit Sampler::take() {
  LayerSplit split;
  std::size_t i = 0;
  while (i < g_len) {
    const auto n = static_cast<std::size_t>(g_buf[i++]);
    int layer = kOther;
    for (std::size_t f = 0; f < n; ++f) {
      const int l = layer_of_pc(g_buf[i + f]);
      if (l >= 0) {
        layer = l;
        break;
      }
    }
    ++split.samples[static_cast<std::size_t>(layer)];
    i += n;
  }
  g_len = 0;
  g_kept = 0;
  return split;
}

std::uint64_t Sampler::kept() const { return g_kept; }
std::uint64_t Sampler::dropped() const { return g_dropped; }

}  // namespace perfbench
