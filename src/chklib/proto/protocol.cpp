#include "chklib/proto/protocol.hpp"

#include <utility>

#include "chklib/verify/monitor.hpp"

namespace chk::chklib {

std::optional<GrantArbiter::Grant> GrantArbiter::handle(const ControlMsg& msg) {
  if (msg.kind == ControlKind::kTokenRelease) return release(msg.epoch);
  if (held_) {
    queue_.push_back(msg.src);
    return std::nullopt;
  }
  held_ = Grant{msg.src, msg.epoch};
  return held_;
}

std::optional<GrantArbiter::Grant> GrantArbiter::release(std::uint32_t epoch) {
  if (queue_.empty()) {
    held_.reset();
    return std::nullopt;
  }
  held_ = Grant{queue_.front(), epoch};
  queue_.pop_front();
  return held_;
}

void Protocol::halt() {
  for (auto& timer : timers_) timer.cancel();
  timers_.clear();
  for (des::Process* proc : procs_) {
    if (!proc->finished()) rt_->sim().kill(*proc);
  }
  procs_.clear();
}

void Protocol::save_image(des::Process& carrier, Rank r, CheckpointImage image, bool delta) {
  const des::TimePoint block_start = rt_->sim().now();
  const std::uint32_t index = image.index;
  ++stats_.local_checkpoints;
  stats_.image_log.push_back(ProtocolStats::ImageRecord{
      index, static_cast<std::uint32_t>(r), image.state.size(), image.captured_at_ns, delta});

  const bool buffered = is_buffered(scheme_);
  if (buffered) {
    // Main-memory checkpointing: block only for the local copy.
    rt_->machine().node(r).mem_copy(carrier, image.state.size());
  } else {
    // Write-through: the application carries the whole (contended)
    // stable-storage write and whatever the protocol does with its result.
    write_image(carrier, r, image, WriteContext::kAppBlocking);
  }
  stats_.app_blocked += rt_->sim().now() - block_start;
  if (auto* tracer = rt_->sim().tracer()) {
    tracer->span(obs::EventKind::kCkptWindow, static_cast<std::uint16_t>(r),
                 block_start.to_nanos(), rt_->sim().now().to_nanos(), 0, index);
  }
  if (!buffered) return;
  // A checkpointer thread streams the copy out.
  track(rt_->sim().spawn(writer_name(r, index),
                         [this, r, image = std::move(image)](des::Process& self) mutable {
                           write_image(self, r, image, WriteContext::kBackground);
                         }));
}

void Protocol::write_image(des::Process& writer, Rank r, CheckpointImage& image,
                           WriteContext context) {
  const std::uint32_t tag = acquire_write(r, writer, image.index);
  const bool background = context == WriteContext::kBackground;
  xplorer::Node& node = rt_->machine().node(r);
  if (background) node.begin_background_io();
  // The monitor brackets the whole write, retries included: the stagger
  // invariant is about the rank occupying the write pipeline, which it
  // does for every attempt.
  if (auto* monitor = rt_->comm().monitor()) monitor->on_image_write_begin(r, image.index);
  const xplorer::IoStatus status = rt_->store().write_image_blocking(writer, r, image, context);
  if (auto* monitor = rt_->comm().monitor()) monitor->on_image_write_end(r);
  if (background) node.end_background_io();
  release_write(r, tag);
  if (status != xplorer::IoStatus::kOk) ++stats_.ckpt_write_failures;
  image_written(r, writer, status, context, image);
}

}  // namespace chk::chklib
