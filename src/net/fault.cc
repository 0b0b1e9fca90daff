#include "src/net/fault.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/common/string_util.h"

namespace hipress {

const char* MembershipEventKindName(MembershipEventKind kind) {
  switch (kind) {
    case MembershipEventKind::kJoin:
      return "join";
    case MembershipEventKind::kLeave:
      return "leave";
    case MembershipEventKind::kRejoin:
      return "rejoin";
  }
  return "unknown";
}

SimTime FaultConfig::CrashTime(int node) const {
  SimTime earliest = -1;
  for (const NodeCrash& crash : crashes) {
    if (crash.node == node && (earliest < 0 || crash.at < earliest)) {
      earliest = crash.at;
    }
  }
  return earliest;
}

bool FaultConfig::AliveAt(int node, SimTime when) const {
  // The node is dead iff the most recent crash at or before `when` has not
  // been closed by a later rejoin at or before `when`. Crash/rejoin
  // schedules are static, so this is decidable for any `when`.
  SimTime latest_crash = -1;
  for (const NodeCrash& crash : crashes) {
    if (crash.node == node && crash.at <= when && crash.at > latest_crash) {
      latest_crash = crash.at;
    }
  }
  if (latest_crash < 0) {
    return true;
  }
  for (const MembershipEvent& event : membership) {
    if (event.kind == MembershipEventKind::kRejoin && event.node == node &&
        event.at > latest_crash && event.at <= when) {
      return true;
    }
  }
  return false;
}

double FaultConfig::DegradationFactor(int src, int dst, SimTime when) const {
  double factor = 1.0;
  for (const LinkDegradation& window : degradations) {
    const bool src_match = window.src < 0 || window.src == src;
    const bool dst_match = window.dst < 0 || window.dst == dst;
    if (src_match && dst_match && when >= window.start && when < window.end &&
        window.bandwidth_factor > 0.0) {
      factor = std::min(factor, window.bandwidth_factor);
    }
  }
  return factor;
}

double FaultUniform(uint64_t seed, uint64_t ordinal) {
  const uint64_t z =
      SplitMix64Mix(seed + (ordinal + 1) * 0x9e3779b97f4a7c15ULL);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

namespace {

// Every chaos degradation window cuts its link to 35% bandwidth for 30 ms.
constexpr double kChaosDegradeFactor = 0.35;
constexpr double kChaosDegradeDurationMs = 30.0;

// Parses an endpoint that is either an integer or the '*' wildcard (-1).
StatusOr<int> ParseEndpoint(const std::string& text) {
  if (text == "*") {
    return -1;
  }
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 0) {
    return InvalidArgumentError("bad fault endpoint: " + text);
  }
  return static_cast<int>(value);
}

StatusOr<double> ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("bad fault number: " + text);
  }
  return value;
}

}  // namespace

StatusOr<FaultConfig> ParseFaultSpec(const std::string& spec) {
  FaultConfig config;
  for (const std::string& raw : Split(spec, ',')) {
    const std::string clause = Trim(raw);
    if (clause.empty()) {
      continue;
    }
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("fault clause missing '=': " + clause);
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "drop") {
      ASSIGN_OR_RETURN(config.drop_prob, ParseDouble(value));
      if (config.drop_prob < 0.0 || config.drop_prob >= 1.0) {
        return InvalidArgumentError("drop probability must be in [0, 1)");
      }
    } else if (key == "seed") {
      ASSIGN_OR_RETURN(const double seed, ParseDouble(value));
      config.seed = static_cast<uint64_t>(seed);
    } else if (key == "crash") {
      // crash=N@MS
      const std::vector<std::string> parts = Split(value, '@');
      if (parts.size() != 2) {
        return InvalidArgumentError("crash clause wants N@MS: " + value);
      }
      NodeCrash crash;
      ASSIGN_OR_RETURN(crash.node, ParseEndpoint(parts[0]));
      ASSIGN_OR_RETURN(const double at_ms, ParseDouble(parts[1]));
      if (crash.node < 0 || at_ms < 0.0) {
        return InvalidArgumentError("bad crash clause: " + value);
      }
      crash.at = FromMillis(at_ms);
      config.crashes.push_back(crash);
    } else if (key == "degrade") {
      // degrade=A-B@T0-T1@F (ms, remaining-bandwidth factor)
      const std::vector<std::string> parts = Split(value, '@');
      if (parts.size() != 3) {
        return InvalidArgumentError("degrade clause wants A-B@T0-T1@F: " +
                                    value);
      }
      const std::vector<std::string> link = Split(parts[0], '-');
      const std::vector<std::string> window = Split(parts[1], '-');
      if (link.size() != 2 || window.size() != 2) {
        return InvalidArgumentError("bad degrade clause: " + value);
      }
      LinkDegradation degradation;
      ASSIGN_OR_RETURN(degradation.src, ParseEndpoint(link[0]));
      ASSIGN_OR_RETURN(degradation.dst, ParseEndpoint(link[1]));
      ASSIGN_OR_RETURN(const double start_ms, ParseDouble(window[0]));
      ASSIGN_OR_RETURN(const double end_ms, ParseDouble(window[1]));
      ASSIGN_OR_RETURN(degradation.bandwidth_factor, ParseDouble(parts[2]));
      if (start_ms < 0.0 || end_ms <= start_ms ||
          degradation.bandwidth_factor <= 0.0 ||
          degradation.bandwidth_factor > 1.0) {
        return InvalidArgumentError("bad degrade clause: " + value);
      }
      degradation.start = FromMillis(start_ms);
      degradation.end = FromMillis(end_ms);
      config.degradations.push_back(degradation);
    } else if (key == "join" || key == "leave" || key == "rejoin") {
      // join=N@MS / leave=N@MS / rejoin=N@MS
      const std::vector<std::string> parts = Split(value, '@');
      if (parts.size() != 2) {
        return InvalidArgumentError(key + " clause wants N@MS: " + value);
      }
      MembershipEvent event;
      event.kind = key == "join"    ? MembershipEventKind::kJoin
                   : key == "leave" ? MembershipEventKind::kLeave
                                    : MembershipEventKind::kRejoin;
      ASSIGN_OR_RETURN(event.node, ParseEndpoint(parts[0]));
      ASSIGN_OR_RETURN(const double at_ms, ParseDouble(parts[1]));
      if (event.node < 0 || at_ms < 0.0) {
        return InvalidArgumentError("bad " + key + " clause: " + value);
      }
      event.at = FromMillis(at_ms);
      config.membership.push_back(event);
    } else if (key == "standby") {
      int node = -1;
      ASSIGN_OR_RETURN(node, ParseEndpoint(value));
      if (node < 0) {
        return InvalidArgumentError("bad standby clause: " + value);
      }
      config.standby_nodes.push_back(node);
    } else {
      return InvalidArgumentError("unknown fault clause: " + key);
    }
  }
  return config;
}

Status ValidateFaultSchedule(const FaultConfig& faults, int num_nodes) {
  std::vector<bool> standby(static_cast<size_t>(num_nodes), false);
  for (const int node : faults.standby_nodes) {
    if (node < 0 || node >= num_nodes) {
      return InvalidArgumentError(
          StrFormat("standby node %d out of range", node));
    }
    if (standby[node]) {
      return InvalidArgumentError(
          StrFormat("standby node %d listed twice", node));
    }
    standby[node] = true;
  }
  std::vector<bool> member(static_cast<size_t>(num_nodes), false);
  std::vector<bool> crashed(static_cast<size_t>(num_nodes), false);
  int members = 0;
  for (int node = 0; node < num_nodes; ++node) {
    member[node] = !standby[node];
    members += member[node] ? 1 : 0;
  }
  if (members == 0) {
    return InvalidArgumentError("every node is standby");
  }
  struct WalkEvent {
    SimTime at = 0;
    int order = 0;  // crashes sort before membership events at equal time
    int node = -1;
    MembershipEventKind kind = MembershipEventKind::kJoin;
  };
  std::vector<WalkEvent> walk;
  for (const NodeCrash& crash : faults.crashes) {
    walk.push_back(WalkEvent{crash.at, 0, crash.node, {}});
  }
  for (const MembershipEvent& event : faults.membership) {
    if (event.node < 0 || event.node >= num_nodes) {
      return InvalidArgumentError(StrFormat(
          "%s node %d out of range", MembershipEventKindName(event.kind),
          event.node));
    }
    walk.push_back(WalkEvent{event.at, 1, event.node, event.kind});
  }
  std::sort(walk.begin(), walk.end(),
            [](const WalkEvent& a, const WalkEvent& b) {
              return a.at != b.at     ? a.at < b.at
                     : a.order != b.order ? a.order < b.order
                                          : a.node < b.node;
            });
  for (const WalkEvent& event : walk) {
    if (event.order == 0) {  // crash
      if (member[event.node]) {
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("crash schedule empties the cluster");
        }
      }
      crashed[event.node] = true;
      continue;
    }
    switch (event.kind) {
      case MembershipEventKind::kJoin:
        if (member[event.node]) {
          return InvalidArgumentError(
              StrFormat("join of current member %d", event.node));
        }
        if (crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "join of crashed node %d (use rejoin)", event.node));
        }
        member[event.node] = true;
        ++members;
        break;
      case MembershipEventKind::kLeave:
        if (!member[event.node]) {
          return InvalidArgumentError(
              StrFormat("leave of non-member %d", event.node));
        }
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("leave schedule empties the cluster");
        }
        break;
      case MembershipEventKind::kRejoin:
        if (!crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "rejoin of node %d without a prior crash", event.node));
        }
        crashed[event.node] = false;
        member[event.node] = true;
        ++members;
        break;
    }
  }
  return OkStatus();
}

FaultConfig MakeChaosSchedule(const ChaosOptions& options) {
  FaultConfig config;
  config.seed = options.seed;
  config.drop_prob = options.drop_prob;
  const int standby_count =
      std::max(0, std::min(options.num_standby, options.num_nodes - 2));
  std::vector<int> members;
  std::vector<int> standby;
  for (int node = 0; node < options.num_nodes; ++node) {
    if (node >= options.num_nodes - standby_count) {
      standby.push_back(node);
      config.standby_nodes.push_back(node);
    } else {
      members.push_back(node);
    }
  }
  std::vector<int> crashed;
  // All randomness comes from one seeded ordinal stream, so the schedule
  // is a pure function of ChaosOptions.
  uint64_t ordinal = 0;
  auto uniform = [&] {
    return FaultUniform(options.seed ^ 0xc4a05c4edULL, ordinal++);
  };
  auto take = [&](std::vector<int>* pool) {
    size_t index = static_cast<size_t>(uniform() *
                                       static_cast<double>(pool->size()));
    index = std::min(index, pool->size() - 1);
    const int node = (*pool)[index];
    pool->erase(pool->begin() + static_cast<long>(index));
    return node;
  };

  enum EventClass { kCrash = 0, kRejoinEv, kJoinEv, kLeaveEv, kDegradeEv };
  // First pass walks every class once (feasibility permitting) so short
  // schedules still interleave all transition kinds; later events are
  // hash-picked among whatever is feasible.
  static constexpr EventClass kForced[] = {kCrash, kRejoinEv, kJoinEv,
                                           kLeaveEv, kDegradeEv};
  double now_ms = options.first_event_ms;
  for (int k = 0; k < options.events; ++k) {
    std::vector<EventClass> feasible;
    // Crashes and leaves keep the cluster at >= 2 live members.
    if (members.size() > 2) {
      feasible.push_back(kCrash);
    }
    if (!crashed.empty()) {
      feasible.push_back(kRejoinEv);
    }
    if (!standby.empty()) {
      feasible.push_back(kJoinEv);
    }
    if (members.size() > 2) {
      feasible.push_back(kLeaveEv);
    }
    if (members.size() >= 2) {
      feasible.push_back(kDegradeEv);
    }
    if (feasible.empty()) {
      break;
    }
    EventClass chosen = feasible[0];
    if (k < static_cast<int>(sizeof(kForced) / sizeof(kForced[0]))) {
      const EventClass want = kForced[k];
      if (std::find(feasible.begin(), feasible.end(), want) !=
          feasible.end()) {
        chosen = want;
      }
    } else {
      size_t index = static_cast<size_t>(
          uniform() * static_cast<double>(feasible.size()));
      chosen = feasible[std::min(index, feasible.size() - 1)];
    }
    switch (chosen) {
      case kCrash: {
        const int node = take(&members);
        config.crashes.push_back({node, FromMillis(now_ms)});
        crashed.push_back(node);
        break;
      }
      case kRejoinEv: {
        const int node = take(&crashed);
        config.membership.push_back(
            {MembershipEventKind::kRejoin, node, FromMillis(now_ms)});
        members.push_back(node);
        break;
      }
      case kJoinEv: {
        const int node = take(&standby);
        config.membership.push_back(
            {MembershipEventKind::kJoin, node, FromMillis(now_ms)});
        members.push_back(node);
        break;
      }
      case kLeaveEv: {
        const int node = take(&members);
        config.membership.push_back(
            {MembershipEventKind::kLeave, node, FromMillis(now_ms)});
        break;
      }
      case kDegradeEv: {
        std::vector<int> pool = members;
        const int src = take(&pool);
        const int dst = take(&pool);
        LinkDegradation window;
        window.src = src;
        window.dst = dst;
        window.start = FromMillis(now_ms);
        window.end = FromMillis(now_ms + kChaosDegradeDurationMs);
        window.bandwidth_factor = kChaosDegradeFactor;
        config.degradations.push_back(window);
        break;
      }
    }
    now_ms += options.spacing_ms * (0.5 + uniform());
  }
  // Close any crash window left open so every crashed node rejoins and the
  // post-quiesce state check covers the full crash->rejoin lifecycle.
  while (!crashed.empty()) {
    const int node = take(&crashed);
    config.membership.push_back(
        {MembershipEventKind::kRejoin, node, FromMillis(now_ms)});
    now_ms += options.spacing_ms;
  }
  return config;
}

}  // namespace hipress
