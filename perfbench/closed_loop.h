// Closed-loop request accounting for one daemon client: at most `window`
// NextBatch requests outstanding (a double-buffered trainer keeps 2), a
// fixed number of requests per stream, and the client-observed wait of each
// reply measured from the send of the request it answers. Replies of one
// stream arrive in request order, so the oldest outstanding send time is the
// one a reply answers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

namespace perfbench {

class ClosedLoopWindow {
 public:
  ClosedLoopWindow(int window, int64_t total_requests)
      : window_(window), total_(total_requests) {}

  /// True while another request may go out: the window has room and the
  /// stream's request budget is not spent.
  bool CanSend() const {
    return static_cast<int>(send_times_.size()) < window_ && sent_ < total_;
  }

  /// Records a request sent at `now` (seconds). Callers check CanSend().
  void OnSend(double now) {
    send_times_.push_back(now);
    ++sent_;
  }

  /// Records the reply to the oldest outstanding request, received at `now`;
  /// returns that request's wait (send -> reply in hand). Requires an
  /// outstanding request.
  double OnReceive(double now) {
    const double sent_at = send_times_.front();
    send_times_.pop_front();
    ++received_;
    return now - sent_at;
  }

  int outstanding() const { return static_cast<int>(send_times_.size()); }
  int64_t sent() const { return sent_; }
  int64_t received() const { return received_; }
  /// Every budgeted request was sent and answered.
  bool done() const { return received_ == total_; }

 private:
  int window_;
  int64_t total_;
  int64_t sent_ = 0;
  int64_t received_ = 0;
  std::deque<double> send_times_;
};

}  // namespace perfbench
