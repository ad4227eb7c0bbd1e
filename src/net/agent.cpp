#include "net/agent.hpp"

#include <algorithm>
#include <utility>

#include "util/fault_injection.hpp"

namespace opprentice::net {

std::uint64_t BackoffPolicy::delay_ms(std::uint64_t attempt) const {
  std::uint64_t delay = base_ms;
  for (std::uint64_t i = 0; i < attempt && delay < max_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, max_ms);
  // Jitter in [0.5, 1.0]: half the fleet never thunders back in phase.
  const std::uint64_t h = util::fault_key(seed, attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double scaled = static_cast<double>(delay) * (0.5 + 0.5 * u);
  return static_cast<std::uint64_t>(scaled);
}

AgentCore::AgentCore(std::string source_id)
    : source_id_(std::move(source_id)) {}

void AgentCore::queue_data(const std::string& series_id,
                           std::int64_t interval_seconds,
                           std::span<const ts::RawPoint> points,
                           std::size_t batch) {
  if (batch == 0) batch = points.size() == 0 ? 1 : points.size();
  for (std::size_t at = 0; at < points.size(); at += batch) {
    const std::size_t n = std::min(batch, points.size() - at);
    pending_.push_back(make_data(next_seq(), series_id, interval_seconds,
                                 points.subspan(at, n)));
  }
}

void AgentCore::queue_labels(const std::string& series_id,
                             std::uint64_t begin,
                             std::vector<std::uint8_t> labels) {
  LabelPayload payload;
  payload.series_id = series_id;
  payload.begin = begin;
  payload.labels = std::move(labels);
  pending_.push_back(make_label(next_seq(), payload));
}

void AgentCore::queue_heartbeat() {
  pending_.push_back(make_heartbeat(next_seq()));
}

void AgentCore::finish() {
  if (finished_) return;
  finished_ = true;
  pending_.push_back(make_bye(next_seq()));
}

std::optional<Frame> AgentCore::next_frame() {
  if (phase_ == Phase::kDone || phase_ == Phase::kFailed) return std::nullopt;
  if (outstanding_) return std::nullopt;
  if (phase_ == Phase::kHello) {
    outstanding_ = true;
    return make_hello(0, HelloPayload{source_id_, last_acked_});
  }
  if (pending_.empty()) {
    if (finished_) phase_ = Phase::kDone;
    return std::nullopt;
  }
  outstanding_ = true;
  return pending_.front();
}

void AgentCore::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kWelcome: {
      WelcomePayload welcome;
      if (!decode_welcome(frame, &welcome)) return;
      // Everything the server already committed needs no retransmission.
      last_acked_ = std::max(last_acked_, welcome.resume_seq);
      while (!pending_.empty() && pending_.front().seq <= last_acked_) {
        pending_.pop_front();
      }
      phase_ = Phase::kStreaming;
      outstanding_ = false;
      retry_attempt_ = 0;
      return;
    }
    case FrameType::kAck: {
      AckPayload ack;
      if (!decode_ack(frame, &ack)) return;
      if (!pending_.empty() && pending_.front().seq == ack.seq) {
        last_acked_ = std::max(last_acked_, ack.seq);
        pending_.pop_front();
        outstanding_ = false;
        retry_attempt_ = 0;
        if (pending_.empty() && finished_) phase_ = Phase::kDone;
      }
      return;
    }
    case FrameType::kRetry: {
      RetryPayload retry;
      if (!decode_retry(frame, &retry)) return;
      if (!pending_.empty() && pending_.front().seq == retry.seq) {
        // Backpressure: same frame again after the hinted delay.
        outstanding_ = false;
        retry_hint_ = retry.retry_after_ticks;
        ++retry_attempt_;
        ++backpressure_retries_;
      }
      return;
    }
    case FrameType::kError:
      phase_ = Phase::kFailed;
      outstanding_ = false;
      return;
    default:
      return;  // client-side frame echoed back: ignore
  }
}

void AgentCore::on_timeout() {
  if (!outstanding_) return;
  outstanding_ = false;
  ++retransmits_;
  ++retry_attempt_;
}

void AgentCore::on_disconnect() {
  if (phase_ == Phase::kDone || phase_ == Phase::kFailed) return;
  outstanding_ = false;
  phase_ = Phase::kHello;
  ++reconnects_;
}

std::uint32_t AgentCore::retry_after_ticks() {
  return std::exchange(retry_hint_, 0u);
}

}  // namespace opprentice::net
