// Temporal 60/20/20 per-user splitting (§V-A2 of the paper).
#ifndef TAXOREC_DATA_SPLIT_H_
#define TAXOREC_DATA_SPLIT_H_

#include "data/dataset.h"

namespace taxorec {

/// Splits each user's interactions by timestamp: the earliest 60% go to
/// training, the next 20% to validation, the rest to test. Users with
/// fewer than 3 interactions put everything in training. Duplicated
/// (user, item) pairs are collapsed (first occurrence wins).
DataSplit TemporalSplit(const Dataset& data);

}  // namespace taxorec

#endif  // TAXOREC_DATA_SPLIT_H_
