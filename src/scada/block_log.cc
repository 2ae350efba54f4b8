#include "scada/block_log.h"

#include <algorithm>
#include <cassert>

namespace ss::scada {

void BlockLog::push_back(ByteView encoded) {
  assert(!encoded.empty());
  if (blocks_.empty() ||
      blocks_.back().size() + encoded.size() > block_bytes_) {
    // The first block grows on demand so a small log stays small; once a
    // second one is needed the log is large, and blocks are sized whole.
    const bool first = blocks_.empty();
    blocks_.emplace_back();
    if (!first) blocks_.back().reserve(std::max(block_bytes_, encoded.size()));
  }
  Bytes& tail = blocks_.back();
  tail.insert(tail.end(), encoded.begin(), encoded.end());
  ends_.push_back(static_cast<std::uint32_t>(tail.size()));
  bytes_ += encoded.size();
}

void BlockLog::pop_front() {
  const std::size_t end = ends_.front();
  ends_.pop_front();
  bytes_ -= end - head_;
  head_ = end;
  Bytes& front = blocks_.front();
  if (head_ == front.size()) {
    blocks_.pop_front();
    head_ = 0;
  } else if (blocks_.size() == 1 && head_ * 2 > front.size()) {
    // The only block is still being appended to, so it is never freed
    // whole: drop its evicted head once that is the larger half.
    front.erase(front.begin(),
                front.begin() + static_cast<std::ptrdiff_t>(head_));
    for (std::uint32_t& e : ends_) e -= static_cast<std::uint32_t>(head_);
    head_ = 0;
  }
}

void BlockLog::clear() {
  blocks_.clear();
  ends_.clear();
  head_ = 0;
  bytes_ = 0;
}

std::vector<ByteView> BlockLog::blocks(std::size_t first) const {
  // Find the block and offset where record `first` starts.
  std::size_t block = 0;
  std::size_t begin = head_;
  for (std::size_t i = 0; i < first && i < ends_.size(); ++i) {
    begin = ends_[i];
    if (begin == blocks_[block].size()) {
      ++block;
      begin = 0;
    }
  }
  std::vector<ByteView> views;
  for (; block < blocks_.size(); ++block, begin = 0) {
    views.push_back(ByteView(blocks_[block]).subspan(begin));
  }
  return views;
}

}  // namespace ss::scada
