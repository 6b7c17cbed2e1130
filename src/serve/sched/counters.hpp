#pragma once
// The scheduler's counter set: one struct that every result view of a
// serving run shares. A replica accumulates it while it is ticked
// (`ReplicaState::counters`), the EventLoop folds replicas with `+=` into
// the fleet totals (`SchedStats`) and copies each replica's into its
// `ReplicaStats`, and the `ServeRecorder` exports it as metrics at the
// end of the run.
//
// `kSchedCounterFields` is the only list of counters in the codebase: it
// names each counter's metric family and help text and says how it folds
// across replicas. A new counter is one member plus one table row — the
// static_assert below refuses a member without a row.

#include <array>
#include <cstddef>

#include "util/matrix.hpp"

namespace marlin::serve::sched {

struct SchedCounters {
  index_t preemptions = 0;
  index_t rejected = 0;  // could never fit in the KV budget
  index_t shed = 0;      // SLO shed-on-hopeless (kFinished, no tokens)
  index_t prefill_steps = 0;
  index_t decode_steps = 0;
  /// Speculative decoding (all 0 when speculation is off):
  /// propose-then-verify rounds, draft tokens proposed, tokens committed.
  index_t spec_rounds = 0;
  index_t spec_draft_tokens = 0;
  index_t spec_committed_tokens = 0;
  /// SLO accounting (0 when no deadline is configured): completed
  /// requests that missed their TTFT / TPOT deadline.
  index_t slo_ttft_violations = 0;
  index_t slo_tpot_violations = 0;
  /// Prompt tokens whose prefill was skipped because their KV came out of
  /// the prefix cache.
  index_t prefix_tokens_skipped = 0;
  /// Block-manager counters (all 0 with the cache off and n=1 sampling).
  /// Hit blocks are exactly the physical allocations (and their
  /// recomputed prefill) saved; the hit rate is hits / lookups.
  index_t prefix_cache_hit_blocks = 0;
  index_t prefix_cache_lookup_blocks = 0;
  index_t prefix_cache_evictions = 0;
  index_t cow_forks = 0;
  index_t cow_copies = 0;
  /// Peak KV blocks in use at once — on one replica; the fleet value is
  /// the maximum over replicas.
  index_t peak_kv_blocks = 0;

  bool operator==(const SchedCounters&) const = default;
  /// Folds another replica's counters in: sums, and the maximum for
  /// `peak_kv_blocks`.
  SchedCounters& operator+=(const SchedCounters& other);
};

/// One counter: its Prometheus family, help text and member. A `peak`
/// counter folds by maximum and is exported as a gauge; every other one
/// folds by sum and is exported as a counter.
struct SchedCounterField {
  const char* metric;
  const char* help;
  index_t SchedCounters::*member;
  bool peak = false;
};

inline constexpr auto kSchedCounterFields = std::to_array<SchedCounterField>({
    {"marlin_preemptions_total", "Recompute preemptions of running sequences",
     &SchedCounters::preemptions},
    {"marlin_requests_rejected_total",
     "Requests that could never fit the KV budget", &SchedCounters::rejected},
    {"marlin_requests_shed_total", "Requests shed by deadline-aware admission",
     &SchedCounters::shed},
    {"marlin_prefill_steps_total", "Chunked-prefill rounds",
     &SchedCounters::prefill_steps},
    {"marlin_decode_steps_total", "Decode engine steps",
     &SchedCounters::decode_steps},
    {"marlin_spec_rounds_total", "Speculative propose-then-verify rounds",
     &SchedCounters::spec_rounds},
    {"marlin_spec_draft_tokens_total", "Draft tokens proposed",
     &SchedCounters::spec_draft_tokens},
    {"marlin_spec_committed_tokens_total", "Tokens committed by verification",
     &SchedCounters::spec_committed_tokens},
    {"marlin_slo_ttft_violations_total",
     "Completed requests past the TTFT deadline",
     &SchedCounters::slo_ttft_violations},
    {"marlin_slo_tpot_violations_total",
     "Completed requests past the TPOT deadline",
     &SchedCounters::slo_tpot_violations},
    {"marlin_prefix_tokens_skipped_total",
     "Prefill tokens skipped thanks to cached prefixes",
     &SchedCounters::prefix_tokens_skipped},
    {"marlin_prefix_cache_hit_blocks_total",
     "KV blocks reused from the prefix cache",
     &SchedCounters::prefix_cache_hit_blocks},
    {"marlin_prefix_cache_lookup_blocks_total",
     "Prompt blocks probed against the prefix cache",
     &SchedCounters::prefix_cache_lookup_blocks},
    {"marlin_prefix_cache_evictions_total",
     "Cached-but-idle prefix blocks reclaimed under pressure",
     &SchedCounters::prefix_cache_evictions},
    {"marlin_cow_forks_total",
     "Sequences forked to share a prompt copy-on-write",
     &SchedCounters::cow_forks},
    {"marlin_cow_copies_total",
     "Shared KV blocks copied on first divergent write",
     &SchedCounters::cow_copies},
    {"marlin_kv_blocks_peak", "Fleet-wide peak KV blocks in use",
     &SchedCounters::peak_kv_blocks, /*peak=*/true},
});

static_assert(
    [] {
      for (std::size_t i = 0; i < kSchedCounterFields.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          if (kSchedCounterFields[i].member == kSchedCounterFields[j].member) {
            return false;
          }
        }
      }
      return sizeof(SchedCounters) ==
             kSchedCounterFields.size() * sizeof(index_t);
    }(),
    "every SchedCounters member needs exactly one kSchedCounterFields row");

inline SchedCounters& SchedCounters::operator+=(const SchedCounters& other) {
  for (const SchedCounterField& f : kSchedCounterFields) {
    index_t& mine = this->*f.member;
    const index_t theirs = other.*f.member;
    mine = f.peak ? (mine < theirs ? theirs : mine) : mine + theirs;
  }
  return *this;
}

}  // namespace marlin::serve::sched
