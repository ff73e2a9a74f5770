#include "nn/replay_buffer.hpp"

#include <stdexcept>

namespace oselm::nn {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ReplayBuffer: capacity == 0");
  }
  storage_.reserve(capacity);
}

void ReplayBuffer::push(const Transition& transition) {
  if (storage_.size() < capacity_) {
    storage_.push_back(transition);
    return;
  }
  storage_[next_] = transition;
  next_ = (next_ + 1) % capacity_;
}

std::vector<Transition> ReplayBuffer::sample(std::size_t count,
                                             util::Rng& rng) const {
  std::vector<const Transition*> picks;
  sample_into(count, rng, picks);
  std::vector<Transition> batch;
  batch.reserve(count);
  for (const Transition* pick : picks) batch.push_back(*pick);
  return batch;
}

void ReplayBuffer::sample_into(std::size_t count, util::Rng& rng,
                               std::vector<const Transition*>& out) const {
  if (storage_.empty()) {
    throw std::logic_error("ReplayBuffer::sample: buffer empty");
  }
  out.clear();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(&storage_[rng.uniform_index(storage_.size())]);
  }
}

const Transition& ReplayBuffer::at(std::size_t logical_index) const {
  if (logical_index >= storage_.size()) {
    throw std::out_of_range("ReplayBuffer::at: index out of range");
  }
  if (storage_.size() < capacity_) return storage_[logical_index];
  return storage_[(next_ + logical_index) % capacity_];
}

void ReplayBuffer::clear() noexcept {
  storage_.clear();
  next_ = 0;
}

}  // namespace oselm::nn
